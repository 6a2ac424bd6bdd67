import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from riskpath import (
    CorpusStats,
    GenSpec,
    Layer,
    PlantedChain,
    ScoringConfig,
    build_graph,
    discover,
    enumerate_oracle,
    load_snapshot,
    pagerank,
    save_snapshot,
)
from riskpath import ConfigError, cli
from riskpath import pipeline
from riskpath.cli import main
from riskpath.pipeline import PipelineConfig, run
from riskpath.syngen import generate, write_corpus
from util import TEMPORAL_REFERENCE_CELLS, subprocess_env, temporal_reference_graph

# each subcommand's --help at 80 columns, as argparse of Python 3.11 prints it
HELP_TEXT = json.loads((Path(__file__).parent / "cli_help.json").read_text("utf-8"))

CHAIN = PlantedChain((Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC), attestations=1)


@pytest.fixture
def corpus_dir(tmp_path):
    spec = GenSpec(n_docs=60, seed=21, entities_per_layer=25,
                   planted_chains=(CHAIN,), background_noise=1.5)
    write_corpus(generate(spec), tmp_path / "corpus")
    return tmp_path / "corpus"


@pytest.fixture
def workdir(tmp_path, corpus_dir):
    wd = tmp_path / "work"
    code = main(["ingest", "--triples", str(corpus_dir / "triples.jsonl"),
                 "--entities", str(corpus_dir / "entities.jsonl"),
                 "--out", str(wd)])
    assert code == 0
    return wd


def _set_every_normalized(text, literal):
    data = json.loads(text)
    data["normalized"] = {eid: "@" for eid in data["normalized"]}
    return json.dumps(data).replace('"@"', literal)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestIngestCommand:
    def test_valid_fixture_exit_zero(self, workdir):
        assert (workdir / "graph.rpkg").exists()
        assert (workdir / "rejections.jsonl").exists()
        assert (workdir / "parse_errors.jsonl").exists()
        for name in ("entities.json", "relations.json", "corpus_stats.json"):
            assert not (workdir / name).exists()
        load_snapshot(workdir / "graph.rpkg")

    def test_writes_pipeline_ingest_bytes(self, tmp_path, corpus_dir, workdir):
        run(PipelineConfig(triples=corpus_dir / "triples.jsonl",
                           entities=corpus_dir / "entities.jsonl"), tmp_path / "p")
        for name in ("graph.rpkg", "rejections.jsonl", "parse_errors.jsonl"):
            assert (workdir / name).read_bytes() == (tmp_path / "p" / name).read_bytes()

    @pytest.mark.parametrize("flag, text", [
        ("--aliases", "{not json"),
        ("--aliases", '["heat", "heatwave"]'),
        ("--aliases", '{"heat": 5}'),
        ("--layer-lexicon", "{not json"),
        ("--layer-lexicon", '["flood"]'),
        ("--layer-lexicon", '{"flood": "orbital"}'),
    ], ids=["aliases-unparsable", "aliases-list", "aliases-non-string",
            "lexicon-unparsable", "lexicon-list", "lexicon-unknown-layer"])
    def test_malformed_side_file_exit_one(self, tmp_path, corpus_dir, capsys,
                                          flag, text):
        side = tmp_path / "side.json"
        side.write_text(text)
        code = main(["ingest", "--triples", str(corpus_dir / "triples.jsonl"),
                     "--entities", str(corpus_dir / "entities.jsonl"),
                     flag, str(side), "--out", str(tmp_path / "w")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_too_many_malformed_exit_one(self, tmp_path, corpus_dir):
        bad = tmp_path / "bad.jsonl"
        lines = (corpus_dir / "triples.jsonl").read_text().splitlines()[:17]
        bad.write_text("\n".join(lines + ["{broken"] * 3) + "\n")
        code = main(["ingest", "--triples", str(bad),
                     "--entities", str(corpus_dir / "entities.jsonl"),
                     "--out", str(tmp_path / "w")])
        assert code == 1

    def test_strict_with_unregistered_exit_one(self, tmp_path, corpus_dir):
        triples = tmp_path / "extra.jsonl"
        triples.write_text(
            (corpus_dir / "triples.jsonl").read_text()
            + json.dumps({"s": "mystery blob", "p": "does", "o": "phy-0000",
                          "doc": "dx"}) + "\n")
        code = main(["ingest", "--triples", str(triples),
                     "--entities", str(corpus_dir / "entities.jsonl"),
                     "--strict", "--out", str(tmp_path / "w")])
        assert code == 1

    def test_json_format_single_document(self, tmp_path, corpus_dir, capsys):
        code, payload = run_json(capsys, [
            "ingest", "--triples", str(corpus_dir / "triples.jsonl"),
            "--entities", str(corpus_dir / "entities.jsonl"),
            "--out", str(tmp_path / "w"), "--format", "json"])
        assert code == 0
        assert payload["parse_errors"] == 0

    @pytest.mark.parametrize("which", ["triples", "entities"])
    def test_non_utf8_input_exit_one(self, tmp_path, corpus_dir, capsys, which):
        paths = {name: corpus_dir / f"{name}.jsonl" for name in ("triples", "entities")}
        bad = tmp_path / f"{which}.jsonl"
        bad.write_bytes(paths[which].read_bytes() + b'{"s": "\xff"}\n')
        paths[which] = bad
        wd = tmp_path / "w"
        code = main(["ingest", "--triples", str(paths["triples"]),
                     "--entities", str(paths["entities"]), "--out", str(wd)])
        assert code == 1
        assert f"error: {bad}: not UTF-8" in capsys.readouterr().err
        assert not (wd / "graph.rpkg").exists()


class TestStatsCommand:
    def test_matches_library(self, workdir, capsys):
        code, payload = run_json(capsys, ["stats", str(workdir),
                                          "--format", "json"])
        assert code == 0
        graph = load_snapshot(workdir / "graph.rpkg")
        assert payload == graph.stats().to_dict()

    def test_missing_workdir_exit_one(self, tmp_path):
        assert main(["stats", str(tmp_path / "nope")]) == 1

    def test_env_var_default(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("RISKPATH_WORKDIR", str(workdir))
        assert main(["stats", "--format", "json"]) == 0

    def test_no_workdir_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("RISKPATH_WORKDIR", raising=False)
        assert main(["stats"]) == 2


class TestPagerankCommand:
    def test_writes_scores_matching_library(self, workdir, capsys):
        code, payload = run_json(capsys, ["pagerank", str(workdir),
                                          "--format", "json"])
        assert code == 0
        graph = load_snapshot(workdir / "graph.rpkg")
        expected = pagerank(graph, ScoringConfig()).to_dict()
        assert payload == expected
        stored = json.loads((workdir / "pagerank.json").read_text())
        assert stored == expected

    def test_negative_top_exit_one(self, workdir, capsys):
        assert main(["pagerank", str(workdir), "--top", "-440"]) == 1
        assert capsys.readouterr().err.startswith("error: --top")
        assert not (workdir / "pagerank.json").exists()
        assert main(["pagerank", str(workdir), "--top", "0"]) == 0
        assert capsys.readouterr().out.count("\n") == 1  # the status line only


class TestDiscoverCommand:
    def test_output_equals_library_result(self, workdir, capsys):
        code, payload = run_json(capsys, [
            "discover", str(workdir), "--theta", "0.5", "--format", "json"])
        assert code == 0
        graph = load_snapshot(workdir / "graph.rpkg")
        stats = CorpusStats.from_graph(graph)
        config = ScoringConfig(theta_novelty=0.5)
        centrality = pagerank(graph, config)
        expected = discover(graph, stats, centrality, config).to_json_dict(graph)
        assert payload == expected
        assert json.loads((workdir / "pathways.json").read_text()) == expected

    def test_unconverged_pagerank_warns_once(self, workdir, caplog):
        assert not (workdir / "pagerank.json").exists()
        assert main(["discover", str(workdir), "--pr-max-iters", "1"]) == 0
        assert [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING] == [
            "pagerank did not converge in 1 iterations"]

    def test_theta_one_empty_exit_zero(self, workdir, capsys):
        code, payload = run_json(capsys, [
            "discover", str(workdir), "--theta", "1.0", "--format", "json"])
        assert code == 0
        assert payload["pathways"] == []

    def test_top_k_truncates_to_highest(self, workdir, capsys):
        code, full = run_json(capsys, [
            "discover", str(workdir), "--theta", "0.3", "--top-k", "1000",
            "--format", "json"])
        assert code == 0
        assert len(full["pathways"]) > 5
        code, top5 = run_json(capsys, [
            "discover", str(workdir), "--theta", "0.3", "--top-k", "5",
            "--format", "json"])
        assert top5["pathways"] == full["pathways"][:5]
        # ranking agrees with the exhaustive oracle
        graph = load_snapshot(workdir / "graph.rpkg")
        stats = CorpusStats.from_graph(graph)
        config = ScoringConfig(theta_novelty=0.3, top_k=5)
        oracle = enumerate_oracle(graph, stats, pagerank(graph, config), config)
        assert top5["pathways"] == oracle.to_json_dict(graph)["pathways"]

    def test_default_flags_equal_stock_config(self, workdir, capsys):
        code, payload = run_json(capsys, ["discover", str(workdir),
                                          "--format", "json"])
        assert code == 0
        graph = load_snapshot(workdir / "graph.rpkg")
        stats = CorpusStats.from_graph(graph)
        config = ScoringConfig()
        expected = discover(graph, stats, pagerank(graph, config),
                            config).to_json_dict(graph)
        assert payload == expected
        assert payload["metadata"]["alpha"] == 0.5
        assert payload["metadata"]["beta"] == 0.3
        assert payload["metadata"]["gamma"] == 0.2
        assert payload["metadata"]["theta"] == 0.7
        assert payload["metadata"]["d_max"] == 5

    def test_table_format_prints_arrow_chains(self, workdir, capsys):
        code = main(["discover", str(workdir), "--theta", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "→" in out

    @pytest.mark.parametrize("edit", [
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "normalized"}),
        lambda text: text[:len(text) // 2],
        lambda text: "[]",
        lambda text: _set_every_normalized(text, "1e309"),
        lambda text: _set_every_normalized(text, "NaN"),
        lambda text: _set_every_normalized(text, "-5.0"),
    ], ids=["missing-normalized", "truncated", "not-an-object", "normalized-1e309",
            "normalized-nan", "normalized-negative"])
    def test_bad_pagerank_json_exit_one(self, workdir, capsys, edit):
        assert main(["pagerank", str(workdir)]) == 0
        pr_path = workdir / "pagerank.json"
        pr_path.write_text(edit(pr_path.read_text()))
        capsys.readouterr()
        assert main(["discover", str(workdir)]) == 1
        assert "error:" in capsys.readouterr().err

    def _discover_recomputes(self, workdir, capsys, caplog):
        capsys.readouterr()
        caplog.clear()
        code, payload = run_json(capsys, ["discover", str(workdir), "--format", "json"])
        assert code == 0
        assert "pagerank.json does not match the graph; recomputing" in [
            r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        graph = load_snapshot(workdir / "graph.rpkg")
        config = ScoringConfig()
        expected = discover(graph, CorpusStats.from_graph(graph),
                            pagerank(graph, config), config).to_json_dict(graph)
        assert payload == expected

    def test_pagerank_json_for_other_damping_is_not_reused(self, workdir, capsys, caplog):
        assert main(["pagerank", str(workdir), "--damping", "0.5"]) == 0
        self._discover_recomputes(workdir, capsys, caplog)

    def test_pagerank_json_for_other_relations_is_not_reused(self, workdir, capsys,
                                                             caplog):
        assert main(["pagerank", str(workdir)]) == 0
        graph = load_snapshot(workdir / "graph.rpkg")
        relations = list(graph.relations.values())
        # the same entities, one relation reversed
        first = relations[0]
        relations[0] = first._replace(source=first.target, target=first.source)
        save_snapshot(build_graph(list(graph.entities.values()), relations),
                      workdir / "graph.rpkg")
        self._discover_recomputes(workdir, capsys, caplog)

    def test_pagerank_json_for_the_graph_is_reused(self, workdir, capsys, caplog):
        assert main(["pagerank", str(workdir)]) == 0
        caplog.clear()
        assert main(["discover", str(workdir)]) == 0
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]

    def test_leftover_corpus_stats_is_never_read(self, workdir, capsys):
        code, expected = run_json(capsys, ["discover", str(workdir),
                                           "--format", "json"])
        assert code == 0
        (workdir / "corpus_stats.json").write_text("garbage")
        code, payload = run_json(capsys, ["discover", str(workdir),
                                          "--format", "json"])
        assert code == 0
        assert payload == expected

    def test_corrupt_snapshot_exit_one(self, workdir, capsys):
        path = workdir / "graph.rpkg"
        path.write_bytes(path.read_bytes()[:-1])
        assert main(["discover", str(workdir)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_artifacts_exit_one_with_hint(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["discover", str(empty)])
        err = capsys.readouterr().err
        assert code == 1
        assert "ingest" in err


class TestReportCommand:
    def test_temporal_reference_fixture_cells(self, tmp_path, capsys):
        wd = tmp_path / "w"
        wd.mkdir()
        save_snapshot(temporal_reference_graph(), wd / "graph.rpkg")
        code, payload = run_json(capsys, ["report", "temporal", str(wd),
                                          "--format", "json"])
        assert code == 0
        for (phase, layer), expected in TEMPORAL_REFERENCE_CELLS.items():
            assert payload["percentages"][phase.value][layer.value] == expected
        code = main(["report", "temporal", str(wd)])
        out = capsys.readouterr().out
        assert code == 0
        for column in ("78.0%", "45.0%", "23.0%", "52.0%", "71.0%",
                       "58.0%", "31.0%", "63.0%", "82.0%"):
            assert column in out

    def test_layers_report(self, workdir, capsys):
        code, payload = run_json(capsys, ["report", "layers", str(workdir),
                                          "--format", "json"])
        assert code == 0
        assert abs(sum(payload["fractions"].values()) - 1.0) <= 1e-12


class TestExportCommand:
    def test_full_graph_dot(self, workdir, capsys):
        code = main(["export", str(workdir)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph")
        assert out.rstrip().endswith("}")
        assert "->" in out
        assert "#6baed6" in out  # physical layer color

    def test_empty_pathway_set_nodes_only(self, workdir, tmp_path, capsys):
        pathways = tmp_path / "empty_paths.json"
        pathways.write_text(json.dumps({"pathways": [], "metadata": {}}))
        code = main(["export", str(workdir), "--pathways", str(pathways)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph")
        assert "->" not in out
        assert '[label=' in out  # nodes still present

    def test_pathway_subset_edges(self, workdir, capsys):
        assert main(["discover", str(workdir), "--theta", "0.5",
                     "--out", str(workdir / "p.json")]) == 0
        capsys.readouterr()
        payload = json.loads((workdir / "p.json").read_text())
        n_edges = len({(a, p, b) for row in payload["pathways"]
                       for a, p, b in zip(row["entities"], row["predicates"],
                                          row["entities"][1:])})
        code = main(["export", str(workdir), "--pathways",
                     str(workdir / "p.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("->") == n_edges


    @pytest.mark.parametrize("text", [
        "{not json",
        "[]",
        '{"pathways": {}}',
        '{"pathways": [5]}',
        '{"pathways": [{"predicates": []}]}',
        '{"pathways": [{"entities": [], "predicates": "causes"}]}',
        '{"pathways": [{"entities": [1, 2], "predicates": ["causes"]}]}',
        '{"pathways": [{"entities": ["@S", "@T", "@S", "@T"], "predicates": ["@P"]}]}',
        '{"pathways": [{"entities": ["@S"], "predicates": []}]}',
        '{}',
    ], ids=["unparsable", "top-level-list", "pathways-object", "row-not-object",
            "no-entities", "predicates-string", "entities-non-string",
            "predicates-short", "one-entity", "no-pathways"])
    def test_bad_pathways_file_exit_one(self, workdir, tmp_path, capsys, text):
        # "@S" -["@P"]-> "@T" stand for an edge of the graph
        graph = load_snapshot(workdir / "graph.rpkg")
        source, predicate, target = next(iter(graph.relations.values())).triple
        for token, value in (("@S", graph.entities[source].canonical_name),
                             ("@P", predicate),
                             ("@T", graph.entities[target].canonical_name)):
            text = text.replace(f'"{token}"', json.dumps(value))
        pathways = tmp_path / "bad_paths.json"
        pathways.write_text(text)
        code = main(["export", str(workdir), "--pathways", str(pathways)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_out_write_keeps_old_file(self, workdir, tmp_path, capsys,
                                             monkeypatch):
        out = tmp_path / "graph.dot"
        out.write_bytes(b"old bytes\n")

        def no_replace(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", no_replace)
        assert main(["export", str(workdir), "--out", str(out)]) == 1
        assert "error: replace refused" in capsys.readouterr().err
        assert out.read_bytes() == b"old bytes\n"


class TestSyngenCommand:
    def test_generates_corpus(self, tmp_path, capsys):
        code, manifest = run_json(capsys, [
            "syngen", "--docs", "20", "--seed", "3", "--entities-per-layer",
            "20", "--chain", "P,S,E:1", "--out", str(tmp_path / "c"),
            "--format", "json"])
        assert code == 0
        assert (tmp_path / "c" / "triples.jsonl").exists()
        assert manifest["counts"]["docs"] == 20
        assert manifest["chains"][0]["attestations"] == 1

    @pytest.mark.parametrize("flags", [
        ["--chain", "P,S:abc"],
        ["--chain", "P,S:1.5"],
        ["--popularity-skew", "nan"],
        ["--popularity-skew", "-1"],
        ["--popularity-skew", "1000"],
        ["--planted-severity", "2"],
        ["--planted-severity", "-0.1"],
        ["--background-noise", "-0.01"],
    ])
    def test_bad_spec_exit_one(self, tmp_path, capsys, flags):
        out = tmp_path / "c"
        code = main(["syngen", "--docs", "20", "--entities-per-layer", "20",
                     "--out", str(out)] + flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "triples.jsonl").exists()

    def test_noise_beyond_formable_edges_exit_one(self, tmp_path):
        # the noise sampler used to draw forever for a pool it cannot form
        proc = subprocess.run(
            [sys.executable, "-m", "riskpath.cli", "syngen", "--docs", "20",
             "--background-noise", "1e9", "--out", str(tmp_path / "c")],
            env=subprocess_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: background_noise")
        assert not (tmp_path / "c" / "triples.jsonl").exists()

    def test_noise_kind_the_bias_barely_draws_exit_one(self, tmp_path, capsys):
        # 180,000 noise edges need 7,224 same-layer ones beyond the cross-layer
        # edges the pool can form; at this bias the sampler would try for seconds
        start = time.perf_counter()
        code = main(["syngen", "--docs", "20", "--entities-per-layer", "60",
                     "--same-layer-bias", "1e-12", "--background-noise", "1000",
                     "--out", str(tmp_path / "c")])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert capsys.readouterr().err.startswith("error: background_noise 1000.0 needs 7224 "
                                                  "same-layer noise edges")
        assert not (tmp_path / "c" / "triples.jsonl").exists()


class TestPipelineCommand:
    def test_run_then_resume_noop(self, tmp_path, corpus_dir, capsys):
        config = {
            "triples": str(corpus_dir / "triples.jsonl"),
            "entities": str(corpus_dir / "entities.jsonl"),
            "scoring": {"theta_novelty": 0.5},
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        wd = tmp_path / "wd"
        code, summary = run_json(capsys, [
            "pipeline", "run", "--config", str(config_path),
            "--workdir", str(wd), "--format", "json"])
        assert code == 0
        assert summary["executed"] == ["ingest", "pagerank", "discover", "report"]
        code, summary = run_json(capsys, [
            "pipeline", "resume", "--workdir", str(wd), "--format", "json"])
        assert code == 0
        assert summary["executed"] == []

    @pytest.mark.parametrize("field, value", [
        ("alpha", "x"), ("d_max", 5.0), ("top_k", True), ("fmax_mode", 1),
        ("strict", 1), ("malformed_tolerance", False),
        ("aliases", 3), ("scoring", []),
        ("alpha", float("nan")), ("pr_tolerance", float("nan")),
        ("pr_tolerance", float("inf")), ("temporal_by", "bogus"),
        ("triples_format", "csv"), ("malformed_tolerance", -1),
        ("malformed_tolerance", 1.5), ("retry_limit", -1), ("retry_base_delay", -1),
        ("retry_base_delay", float("inf")), ("retry_base_delay", float("nan"))],
        ids=lambda v: repr(v))
    def test_ill_typed_config_exit_one_before_any_stage(self, tmp_path, corpus_dir,
                                                        capsys, field, value):
        config = {"triples": str(corpus_dir / "triples.jsonl"),
                  "entities": str(corpus_dir / "entities.jsonl")}
        if field in ScoringConfig.__dataclass_fields__:
            config["scoring"] = {field: value}
        else:
            config[field] = value
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        wd = tmp_path / "wd"
        code = main(["pipeline", "run", "--config", str(config_path),
                     "--workdir", str(wd)])
        assert code == 1
        assert repr(field) in capsys.readouterr().err
        assert not (wd / "graph.rpkg").exists()

    @pytest.mark.parametrize("knob, value, flag", [
        ("workers", 1, ["--workers", "2"]), ("prune", True, ["--prune"])],
        ids=["workers", "prune"])
    def test_removed_knob_is_rejected(self, tmp_path, corpus_dir, capsys,
                                      knob, value, flag):
        # the pipeline's "workers" and "prune" fields are gone, and
        # "pipeline run" takes no flag for either
        config = {"triples": str(corpus_dir / "triples.jsonl"),
                  "entities": str(corpus_dir / "entities.jsonl"), knob: value}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        wd = tmp_path / "wd"
        assert main(["pipeline", "run", "--config", str(config_path),
                     "--workdir", str(wd)]) == 1
        assert f"unknown pipeline config field(s): [{knob!r}]" in capsys.readouterr().err
        del config[knob]
        config_path.write_text(json.dumps(config))
        assert main(["pipeline", "run", "--config", str(config_path),
                     "--workdir", str(wd), *flag]) == 2
        assert not (wd / "graph.rpkg").exists()

    @pytest.mark.parametrize("command, flag, value, field", [
        ("pagerank", "--pr-tolerance", "inf", "pr_tolerance"),
        ("pagerank", "--pr-tolerance", "nan", "pr_tolerance"),
        ("pagerank", "--damping", "nan", "damping"),
        ("discover", "--alpha", "nan", "alpha"),
        ("discover", "--theta", "inf", "theta_novelty"),
    ], ids=lambda v: v)
    def test_non_finite_scoring_flag_exit_one(self, workdir, capsys, command, flag,
                                              value, field):
        assert main([command, str(workdir), flag, value]) == 1
        assert repr(field) in capsys.readouterr().err
        assert not (workdir / "pagerank.json").exists()
        assert not (workdir / "pathways.json").exists()

    @pytest.mark.parametrize("tolerance", ["-1", "1.5", "nan"])
    def test_ingest_tolerance_outside_unit_interval_exit_one(self, tmp_path, corpus_dir,
                                                            capsys, tolerance):
        wd = tmp_path / "wd"
        code = main(["ingest", "--triples", str(corpus_dir / "triples.jsonl"),
                     "--entities", str(corpus_dir / "entities.jsonl"),
                     "--malformed-tolerance", tolerance, "--out", str(wd)])
        assert code == 1
        assert "'malformed_tolerance'" in capsys.readouterr().err
        assert not (wd / "graph.rpkg").exists()

    @pytest.mark.parametrize("text", ["[]", '{"entities": "e.jsonl"}', "{bad"],
                             ids=["list", "no-triples", "unparsable"])
    def test_resume_bad_config_exit_one(self, tmp_path, capsys, text):
        wd = tmp_path / "wd"
        wd.mkdir()
        (wd / "manifest.json").write_text("{}")
        (wd / "config.json").write_text(text)
        code = main(["pipeline", "resume", "--workdir", str(wd)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["pipeline", "run", "--config", "{bad}", "--workdir", "{wd}"],
        ["pipeline", "resume", "--workdir", "{wd}"],
        ["discover", "{wd}", "--config", "{bad}"],
    ], ids=["run-config", "resume-config", "discover-config"])
    def test_non_utf8_config_exit_one(self, workdir, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"triples": "\xff"}')
        (workdir / "manifest.json").write_text("[]")
        (workdir / "config.json").write_bytes(bad.read_bytes())
        code = main([arg.format(bad=bad, wd=workdir) for arg in argv])
        assert code == 1
        assert "cannot load" in capsys.readouterr().err

    def test_run_without_config_usage_error(self, tmp_path):
        assert main(["pipeline", "run", "--workdir", str(tmp_path)]) == 2


class TestSettingsDefinedOnce:
    """Every default comes from its config dataclass, every JSON config or
    artifact goes through one reader, and the help text stays as it was."""

    @staticmethod
    def _record(monkeypatch, name, result=None):
        """Replace ``cli.<name>`` by a recorder of its positional arguments;
        it returns ``result``, or what the original returns when None."""
        original, calls = getattr(cli, name), []

        def recorder(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs) if result is None else result

        monkeypatch.setattr(cli, name, recorder)
        return calls

    def test_discover_builds_stock_scoring_config(self, workdir, monkeypatch):
        calls = self._record(monkeypatch, "discover")
        assert main(["discover", str(workdir)]) == 0
        [(_, _, _, config)] = calls
        assert config == ScoringConfig()

    def test_ingest_builds_stock_pipeline_config(self, tmp_path, monkeypatch):
        summary = {"entities": 0, "relations": 0, "doc_count": 0,
                   "parse_errors": 0, "rejections": 0, "unregistered": 0}
        calls = self._record(monkeypatch, "ingest", (None, "", summary))
        assert main(["ingest", "--triples", "t.jsonl", "--entities", "e.jsonl",
                     "--out", str(tmp_path / "wd")]) == 0
        [(config, _)] = calls
        assert config == PipelineConfig(triples="t.jsonl", entities="e.jsonl")

    def test_syngen_builds_stock_gen_spec(self, tmp_path, monkeypatch):
        calls = self._record(monkeypatch, "generate")
        assert main(["syngen", "--docs", "1", "--out", str(tmp_path / "c")]) == 0
        assert calls == [(GenSpec(n_docs=1),)]

    _INGEST = ["ingest", "--triples", "{corpus}/triples.jsonl",
               "--entities", "{corpus}/entities.jsonl", "--out", "{tmp}/out"]

    # what the file holds, where the bad bytes go ({bad} is tmp/bad.json), argv
    @pytest.mark.parametrize("content", [b'{"a": "\xff"}', b"{bad", b"[]"],
                             ids=["not-utf8", "unparsable", "json-list"])
    @pytest.mark.parametrize("what, target, argv", [
        pytest.param("scoring config", "{bad}", ["discover", "{wd}", "--config", "{bad}"],
                     id="discover-config"),
        pytest.param("pipeline config", "{bad}",
                     ["pipeline", "run", "--config", "{bad}", "--workdir", "{tmp}/run"],
                     id="run-config"),
        pytest.param("pipeline config", "{wd}/config.json",
                     ["pipeline", "resume", "--workdir", "{wd}"], id="resume-config"),
        pytest.param("alias file", "{bad}", _INGEST + ["--aliases", "{bad}"],
                     id="ingest-aliases"),
        pytest.param("layer lexicon", "{bad}", _INGEST + ["--layer-lexicon", "{bad}"],
                     id="ingest-layer-lexicon"),
        pytest.param("pagerank scores", "{wd}/pagerank.json", ["discover", "{wd}"],
                     id="pagerank-json"),
        pytest.param("pathways file", "{bad}", ["export", "{wd}", "--pathways", "{bad}"],
                     id="export-pathways"),
    ])
    def test_bad_json_file_names_what_it_should_hold(
            self, workdir, corpus_dir, tmp_path, capsys, content, what, target, argv):
        names = {"bad": tmp_path / "bad.json", "wd": workdir, "corpus": corpus_dir,
                 "tmp": tmp_path}
        (workdir / "manifest.json").write_text("[]")
        Path(target.format(**names)).write_bytes(content)
        capsys.readouterr()
        assert main([arg.format(**names) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f" {what} " in err, err

    @pytest.mark.parametrize("command", sorted(HELP_TEXT))
    def test_help_text_unchanged(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out == HELP_TEXT[command]


DEEP = "[" * 100_000 + "]" * 100_000  # nested past any recursion limit


def _exit_one_without_traceback(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    return err


class TestDeeplyNestedJson:
    """Every JSON reader ends a document nested too deeply to decode with a
    typed error."""

    def test_triples_line(self, tmp_path, corpus_dir, capsys):
        triples = tmp_path / "triples.jsonl"
        triples.write_text((corpus_dir / "triples.jsonl").read_text() + DEEP + "\n")
        line = len(triples.read_text().splitlines())
        err = _exit_one_without_traceback(capsys, [
            "ingest", "--triples", str(triples), "--entities",
            str(corpus_dir / "entities.jsonl"), "--malformed-tolerance", "0",
            "--out", str(tmp_path / "w")])
        assert f"first error at line {line}: maximum recursion depth exceeded" in err

    def test_entities_line(self, tmp_path, corpus_dir, capsys):
        entities = tmp_path / "entities.jsonl"
        entities.write_text((corpus_dir / "entities.jsonl").read_text() + DEEP + "\n")
        line = len(entities.read_text().splitlines())
        err = _exit_one_without_traceback(capsys, [
            "ingest", "--triples", str(corpus_dir / "triples.jsonl"),
            "--entities", str(entities), "--out", str(tmp_path / "w")])
        assert f"entity metadata line {line}: maximum recursion depth exceeded" in err

    @pytest.mark.parametrize("name, what", [("pagerank.json", "pagerank scores"),
                                            ("scoring.json", "scoring config")])
    def test_discover_input(self, workdir, capsys, name, what):
        assert main(["pagerank", str(workdir)]) == 0
        (workdir / name).write_text(DEEP)
        err = _exit_one_without_traceback(capsys, ["discover", str(workdir), "--config",
                                                   str(workdir / name)]
                                          if name == "scoring.json"
                                          else ["discover", str(workdir)])
        assert f"cannot load {what} " in err and "maximum recursion depth" in err

    def test_manifest_starts_fresh(self, tmp_path, corpus_dir, capsys, caplog):
        wd = tmp_path / "wd"
        run(PipelineConfig(triples=corpus_dir / "triples.jsonl",
                           entities=corpus_dir / "entities.jsonl"), wd)
        (wd / "manifest.json").write_text(DEEP)
        with caplog.at_level(logging.WARNING, logger="riskpath"):
            code, summary = run_json(capsys, ["pipeline", "resume", "--workdir", str(wd),
                                              "--format", "json"])
        assert code == 0
        assert "manifest unreadable (maximum recursion depth" in caplog.text
        assert summary["executed"] == ["ingest", "pagerank", "discover", "report"]

    def test_pathways_read_by_report(self, tmp_path, corpus_dir, capsys):
        wd = tmp_path / "wd"
        run(PipelineConfig(triples=corpus_dir / "triples.jsonl",
                           entities=corpus_dir / "entities.jsonl"), wd)
        (wd / "pathways.json").write_text(DEEP)
        with pytest.raises(ConfigError, match="cannot load pathways file .* maximum recursion"):
            pipeline._stage_report(PipelineConfig.from_json_file(wd / "config.json"), wd,
                                   load_snapshot(wd / "graph.rpkg"))
        # a pathways.json that its manifest record vouches for: discover is
        # kept and the report stage reads it
        rows = json.loads((wd / "manifest.json").read_text())
        discover_row, = (row for row in rows if row["stage_name"] == "discover")
        discover_row["output_fingerprints"] = [pipeline._sha256_file(wd / "pathways.json")]
        (wd / "manifest.json").write_text(json.dumps(rows))
        err = _exit_one_without_traceback(capsys, ["pipeline", "resume", "--workdir", str(wd)])
        assert "stage report failed" in err and "cannot load pathways file" in err


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert main(["ingest"]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_import_loads_neither_scipy_nor_numpy(self):
        # numpy is imported by pagerank alone, and scipy by nothing
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, riskpath.cli; print(sorted(m for m in "
             "sys.modules if m.split('.')[0] in ('scipy', 'numpy')))"],
            env=subprocess_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# Runs CLI commands in one process and prints, per command, its exit code,
# whether numpy was loaded after it, and its stdout.
_NUMPY_PROBE = """
import contextlib, io, json, sys
from riskpath.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    print(json.dumps([argv[:2], code, "numpy" in sys.modules, out.getvalue()]))
"""


def test_only_pagerank_loads_numpy(tmp_path, corpus_dir):
    config = {"triples": str(corpus_dir / "triples.jsonl"),
              "entities": str(corpus_dir / "entities.jsonl")}
    wd = tmp_path / "wd"
    run(PipelineConfig.from_dict(config), wd)
    rerun = tmp_path / "rerun.json"
    rerun.write_text(json.dumps({**config, "scoring": {"theta_novelty": 0.5}}))
    no_numpy = [
        ["syngen", "--docs", "20", "--out", str(tmp_path / "corpus2")],
        ["ingest", "--triples", str(corpus_dir / "triples.jsonl"),
         "--entities", str(corpus_dir / "entities.jsonl"), "--out", str(tmp_path / "wd2")],
        ["stats", str(wd)],
        ["report", "temporal", str(wd)],
        ["report", "layers", str(wd)],
        ["export", str(wd), "--pathways", str(wd / "pathways.json")],
        ["discover", str(wd), "--out", str(tmp_path / "pathways.json")],
        ["pipeline", "run", "--config", str(rerun), "--workdir", str(wd),
         "--format", "json"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE,
         json.dumps(no_numpy + [["pagerank", str(wd)]])],
        env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(command, code, loaded) for command, code, loaded, _ in steps] == [
        (argv[:2], 0, False) for argv in no_numpy] + [(["pagerank", str(wd)], 0, True)]
    # the rerun reused the stored graph and scores
    assert json.loads(steps[-2][3])["executed"] == ["discover", "report"]
