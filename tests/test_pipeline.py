import contextlib
import dataclasses
import fcntl
import hashlib
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from riskpath import (
    CentralityScores,
    ConfigError,
    CorpusStats,
    GenSpec,
    Layer,
    PipelineError,
    PlantedChain,
    ScoringConfig,
    build_graph,
    discover,
    generate,
    load_snapshot,
    save_snapshot,
)
import riskpath.graph as graph_module
import riskpath.pipeline as pipeline
from riskpath.pipeline import (
    PipelineConfig,
    classify_error,
    resume,
    retry_policy,
    run,
)
from riskpath.syngen import write_corpus
from test_ingest import _golden_corpus
from util import subprocess_env

CHAIN = PlantedChain((Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC), attestations=1)


def make_config(tmp_path, **overrides) -> PipelineConfig:
    spec = GenSpec(n_docs=60, seed=11, entities_per_layer=25,
                   planted_chains=(CHAIN,), background_noise=1.5)
    paths = write_corpus(generate(spec), tmp_path / "corpus")
    params = dict(
        triples=str(paths["triples"]),
        entities=str(paths["entities"]),
        scoring=ScoringConfig(theta_novelty=0.5),
        retry_base_delay=0.0,
    )
    params.update(overrides)
    return PipelineConfig(**params)


class TestRetryPolicy:
    def test_classification(self):
        assert classify_error(OSError("disk hiccup")) == "transient"
        assert classify_error(OSError("io")) == "transient"
        assert classify_error(ValueError("bad")) == "permanent"
        assert classify_error(PipelineError("nope")) == "permanent"

    def test_backoff_doubles(self):
        err = OSError("x")
        assert retry_policy(err, 1, 3, 0.5) == (True, 0.5)
        assert retry_policy(err, 2, 3, 0.5) == (True, 1.0)
        assert retry_policy(err, 3, 3, 0.5) == (True, 2.0)
        assert retry_policy(err, 4, 3, 0.5) == (False, 0.0)

    def test_permanent_fails_fast(self):
        assert retry_policy(ValueError("x"), 1) == (False, 0.0)


class TestRun:
    def test_fresh_run_completes_all_stages(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        summary = run(config, workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert summary.skipped == []
        for record in summary.records:
            assert record.status == "done"
            assert record.attempts == 1
            for name in record.output_paths:
                assert (workdir / name).exists()
        assert (workdir / "pathways.json").exists()
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert [r["stage_name"] for r in manifest] == [
            "ingest", "pagerank", "discover", "report"]
        for name in ("entities.json", "relations.json", "corpus_stats.json"):
            assert not (workdir / name).exists()

    def test_pipeline_output_equals_library_calls(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        graph = load_snapshot(workdir / "graph.rpkg")
        stats = CorpusStats.from_graph(graph)
        centrality = CentralityScores.from_dict(
            json.loads((workdir / "pagerank.json").read_text()))
        expected = discover(graph, stats, centrality, config.scoring).to_json_dict(graph)
        assert json.loads((workdir / "pathways.json").read_text()) == expected

    def test_rerun_skips_everything(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        before = {name: (workdir / name).stat().st_mtime_ns
                  for name in ("graph.rpkg", "pathways.json")}
        summary = run(config, workdir)
        assert summary.executed == []
        assert summary.skipped == list(pipeline.STAGE_ORDER)
        after = {name: (workdir / name).stat().st_mtime_ns
                 for name in ("graph.rpkg", "pathways.json")}
        assert before == after

    def test_theta_change_reruns_only_discover_and_report(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        changed = make_config(tmp_path,
                              scoring=ScoringConfig(theta_novelty=0.55))
        summary = run(changed, workdir)
        assert summary.skipped == ["ingest", "pagerank"]
        assert summary.executed == ["discover", "report"]

    def test_rerun_overwrites_manifest_in_place(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        # an open handle keeps the old inode from being reused by a new file
        with open(workdir / "manifest.json", "rb") as held:
            summary = run(make_config(tmp_path, scoring=ScoringConfig(theta_novelty=0.55)),
                          workdir)
            assert summary.executed == ["discover", "report"]
            assert os.path.samestat(os.fstat(held.fileno()),
                                    os.stat(workdir / "manifest.json"))

    def test_junk_manifest_overwritten_by_one_document(self, tmp_path, caplog):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        workdir.mkdir()
        (workdir / "manifest.json").write_bytes(b"#" * 2000)
        with open(workdir / "manifest.json", "rb") as held:
            with caplog.at_level(logging.WARNING, logger="riskpath"):
                run(config, workdir)
            assert os.path.samestat(os.fstat(held.fileno()),
                                    os.stat(workdir / "manifest.json"))
        assert "manifest unreadable" in caplog.text
        # json.loads rejects any stale byte left after the document
        rows = json.loads((workdir / "manifest.json").read_bytes())
        assert [row["stage_name"] for row in rows] == list(pipeline.STAGE_ORDER)

    @staticmethod
    def corrupt_and_rerun(tmp_path, artifact):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        before = {name: (workdir / name).read_bytes()
                  for name in ("graph.rpkg", "pagerank.json", "pathways.json")}
        (workdir / artifact).write_bytes(b"garbage")
        summary = run(config, workdir)
        # artifact restored and downstream consistent again
        for name, data in before.items():
            assert (workdir / name).read_bytes() == data, name
        return summary

    def test_corrupted_intermediate_reruns_stage_and_downstream(self, tmp_path):
        summary = self.corrupt_and_rerun(tmp_path, "graph.rpkg")
        assert summary.skipped == []
        assert summary.executed == ["ingest", "pagerank", "discover", "report"]

    def test_corrupted_pagerank_reruns_stage_and_downstream(self, tmp_path):
        summary = self.corrupt_and_rerun(tmp_path, "pagerank.json")
        assert summary.skipped == ["ingest"]
        assert summary.executed == ["pagerank", "discover", "report"]

    def test_five_stage_manifest_reruns_everything(self, tmp_path):
        # a workdir left by the layout with a separate build stage and JSON
        # intermediates: its ingest record names other outputs
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        before = (workdir / "pathways.json").read_bytes()
        manifest = json.loads((workdir / "manifest.json").read_text())
        old_outputs = ["entities.json", "relations.json", "corpus_stats.json",
                       "rejections.jsonl", "parse_errors.jsonl"]
        for name in old_outputs[:3]:
            (workdir / name).write_text("garbage")
        manifest[0]["output_paths"] = old_outputs
        manifest[0]["output_fingerprints"] = [
            pipeline._sha256_file(workdir / name) for name in old_outputs]
        manifest.insert(1, dict(manifest[1], stage_name="build",
                                output_paths=["graph.rpkg"],
                                output_fingerprints=[
                                    pipeline._sha256_file(workdir / "graph.rpkg")]))
        (workdir / "manifest.json").write_text(json.dumps(manifest))
        summary = resume(workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert (workdir / "pathways.json").read_bytes() == before
        rewritten = json.loads((workdir / "manifest.json").read_text())
        assert [r["stage_name"] for r in rewritten] == list(pipeline.STAGE_ORDER)
        for name in old_outputs[:3]:
            assert not (workdir / name).exists(), name

    def test_stale_output_removal_spares_other_files(self, tmp_path):
        # only a bare name that no current stage writes may be removed
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        (workdir / "sub").mkdir()
        spared = [tmp_path / "outside.txt", workdir / "sub" / "x.json"]
        for path in spared:
            path.write_text("keep")
        manifest = json.loads((workdir / "manifest.json").read_text())
        manifest[0]["output_paths"] += [
            "old.json", "../outside.txt", "sub/x.json", str(spared[1]), "sub",
            "..", "config.json", "manifest.json", "pipeline.lock"]
        (workdir / "old.json").write_text("stale")
        (workdir / "manifest.json").write_text(json.dumps(manifest))
        summary = resume(workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert not (workdir / "old.json").exists()
        assert all(path.read_text() == "keep" for path in spared)
        assert (workdir / "config.json").exists()

    def test_snapshot_of_another_version_reruns_ingest(self, tmp_path, monkeypatch):
        # a workdir written by a release with another snapshot format
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        old = graph_module.SNAPSHOT_VERSION - 1
        with monkeypatch.context() as patch:
            patch.setattr(graph_module, "SNAPSHOT_VERSION", old)
            patch.setattr(pipeline, "SNAPSHOT_VERSION", old)
            run(config, workdir)
        changed = make_config(tmp_path, scoring=ScoringConfig(theta_novelty=0.55))
        summary = run(changed, workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        load_snapshot(workdir / "graph.rpkg")

    def test_leftover_corpus_stats_is_never_read(self, tmp_path):
        config = make_config(tmp_path)
        clean = tmp_path / "clean"
        run(config, clean)
        workdir = tmp_path / "work"
        workdir.mkdir()
        (workdir / "corpus_stats.json").write_text(
            json.dumps({"doc_count": 1, "edge_doc_index": {}}))
        run(config, workdir)
        assert ((workdir / "pathways.json").read_bytes()
                == (clean / "pathways.json").read_bytes())

    def test_path_typed_config_runs(self, tmp_path):
        config = make_config(tmp_path)
        path_config = make_config(tmp_path, triples=Path(config.triples),
                                  entities=Path(config.entities))
        assert path_config == config
        assert isinstance(path_config.triples, str)
        summary = run(path_config, tmp_path / "work")
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert (PipelineConfig.from_json_file(tmp_path / "work" / "config.json")
                == config)

    def test_unconverged_pagerank_warns_once(self, tmp_path, caplog):
        config = make_config(
            tmp_path, scoring=ScoringConfig(theta_novelty=0.5, pr_max_iters=1))
        with caplog.at_level(logging.WARNING, logger="riskpath"):
            run(config, tmp_path / "work")
        # only warnings are captured; ingest may also warn about unregistered names
        assert [r.getMessage() for r in caplog.records if "pagerank" in r.getMessage()
                ] == ["pagerank did not converge in 1 iterations"]

    def test_failure_recorded_in_manifest(self, tmp_path):
        config = make_config(tmp_path)
        config.triples = str(tmp_path / "missing.jsonl")
        workdir = tmp_path / "work"
        with pytest.raises(PipelineError):
            run(config, workdir)
        assert not (workdir / "pipeline.lock").exists()


class TestRetryIntegration:
    def test_transient_error_succeeds_on_second_attempt(self, tmp_path, monkeypatch):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        real = pipeline.STAGES["pagerank"]
        calls = {"n": 0}

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] < 2:
                raise OSError("injected I/O flake")
            return real(*args)

        monkeypatch.setitem(pipeline.STAGES, "pagerank", flaky)
        summary = run(config, workdir)
        record = next(r for r in summary.records if r.stage_name == "pagerank")
        assert record.status == "done"
        assert record.attempts == 2

    def test_persistent_transient_error_fails_after_limit(self, tmp_path, monkeypatch):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"

        def always_broken(*args):
            raise OSError("still broken")

        monkeypatch.setitem(pipeline.STAGES, "pagerank", always_broken)
        with pytest.raises(PipelineError, match="4 attempt"):
            run(config, workdir)
        manifest = json.loads((workdir / "manifest.json").read_text())
        record = next(r for r in manifest if r["stage_name"] == "pagerank")
        assert record["status"] == "failed"
        assert record["attempts"] == 4

    def test_validation_error_fails_fast(self, tmp_path, monkeypatch):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"

        def invalid(*args):
            raise ValueError("bad input shape")

        monkeypatch.setitem(pipeline.STAGES, "ingest", invalid)
        with pytest.raises(PipelineError, match="1 attempt"):
            run(config, workdir)
        manifest = json.loads((workdir / "manifest.json").read_text())
        record = next(r for r in manifest if r["stage_name"] == "ingest")
        assert record["attempts"] == 1


def _set_row(field, value):
    def edit(rows):
        rows[1][field] = value
    return edit


class TestResume:
    @pytest.mark.parametrize("edit", [
        _set_row("output_paths", 5),
        _set_row("output_paths", ["pagerank.json", 7]),
        _set_row("output_fingerprints", [None]),
        _set_row("attempts", "x"),
        _set_row("attempts", True),
        _set_row("status", 7),
        _set_row("stage_name", ["pagerank"]),
        _set_row("input_fingerprint", 0),
        _set_row("started", 1.5),
        lambda rows: rows[1].pop("attempts"),
        lambda rows: rows.append("discover"),
        lambda rows: rows.clear() or rows.append(None),
    ], ids=["paths-int", "paths-non-string", "fingerprints-non-string",
            "attempts-string", "attempts-bool", "status-int", "stage-name-list",
            "fingerprint-int", "unknown-field", "missing-field", "row-string",
            "row-null"])
    def test_ill_formed_manifest_row_reruns_everything(self, tmp_path, caplog, edit):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        before = (workdir / "pathways.json").read_bytes()
        rows = json.loads((workdir / "manifest.json").read_text())
        edit(rows)
        (workdir / "manifest.json").write_text(json.dumps(rows))
        with caplog.at_level(logging.WARNING, logger="riskpath"):
            summary = resume(workdir)
        assert "manifest unreadable" in caplog.text
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert (workdir / "pathways.json").read_bytes() == before

    @pytest.mark.parametrize("data", [b"{bad", b"[\xff]", b"\xff\xfe[]", b"{}"],
                             ids=["unparsable", "non-utf8", "utf16-bom", "object"])
    def test_undecodable_manifest_reruns_everything(self, tmp_path, caplog, data):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        (workdir / "manifest.json").write_bytes(data)
        with caplog.at_level(logging.WARNING, logger="riskpath"):
            summary = resume(workdir)
        assert "manifest unreadable" in caplog.text
        assert summary.executed == list(pipeline.STAGE_ORDER)

    def test_resume_without_manifest_is_error(self, tmp_path):
        with pytest.raises(PipelineError, match="resume"):
            resume(tmp_path)

    def test_resume_on_complete_workdir_is_noop(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        summary = resume(workdir)
        assert summary.executed == []
        assert summary.skipped == list(pipeline.STAGE_ORDER)


def run_pipeline_subprocess(config_path, workdir, crash_at=None):
    env = subprocess_env()
    env.pop("RISKPATH_TEST_CRASH", None)
    if crash_at:
        env["RISKPATH_TEST_CRASH"] = crash_at
    return subprocess.run(
        [sys.executable, "-m", "riskpath.cli", "pipeline", "run",
         "--config", str(config_path), "--workdir", str(workdir)],
        env=env, capture_output=True, text=True)


class TestCrashResume:
    @pytest.mark.parametrize("crash_at", [
        "after_record:ingest",
        "before_record:pagerank",
        "after_record:pagerank",
        "before_record:discover",
        "after_record:discover",
    ])
    def test_killed_then_resumed_is_byte_identical(self, tmp_path, crash_at):
        config = make_config(tmp_path)
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps(config.to_dict()))

        clean_dir = tmp_path / "clean"
        proc = run_pipeline_subprocess(config_path, clean_dir)
        assert proc.returncode == 0, proc.stderr

        crash_dir = tmp_path / "crash"
        proc = run_pipeline_subprocess(config_path, crash_dir, crash_at=crash_at)
        assert proc.returncode == 70
        # the interrupted run must not have completed
        manifest = json.loads((crash_dir / "manifest.json").read_text())
        assert (any(r["status"] != "done" for r in manifest)
                or len(manifest) < len(pipeline.STAGE_ORDER))

        summary = resume(crash_dir)
        assert summary.executed, "resume should re-run something"
        for name in ("pathways.json", "graph.rpkg", "report_temporal.json",
                     "report_layers.json"):
            assert (crash_dir / name).read_bytes() == \
                (clean_dir / name).read_bytes(), name


OUTPUTS = [name for names in pipeline.STAGE_OUTPUTS.values() for name in names]


def _kept_after(workdir, names, rerun) -> set[str]:
    """The files among ``names`` that are still the same file after
    ``rerun()``; open handles keep an old inode from being reused."""
    with contextlib.ExitStack() as stack:
        held = {name: stack.enter_context(open(workdir / name, "rb")) for name in names}
        rerun()
        return {name for name, fh in held.items()
                if os.path.samestat(os.fstat(fh.fileno()), os.stat(workdir / name))}


class TestUnchangedOutputs:
    def test_theta_rerun_keeps_every_output_whose_bytes_hold(self, tmp_path):
        workdir = tmp_path / "work"
        run(make_config(tmp_path), workdir)
        before = {name: (workdir / name).read_bytes() for name in OUTPUTS}
        changed = make_config(tmp_path, scoring=ScoringConfig(theta_novelty=0.55))
        kept = _kept_after(workdir, OUTPUTS + [pipeline.CONFIG_NAME],
                           lambda: run(changed, workdir))
        same = {name for name in OUTPUTS if (workdir / name).read_bytes() == before[name]}
        assert kept == same
        assert {"graph.rpkg", "pagerank.json", "rejections.jsonl", "parse_errors.jsonl",
                "report_temporal.json", "report_layers.json"} <= kept
        assert "pathways.json" not in kept

    def test_rerun_of_every_stage_with_equal_bytes_replaces_nothing(self, tmp_path):
        workdir = tmp_path / "work"
        run(make_config(tmp_path), workdir)
        # a new tolerance reruns ingest, and every stage after it
        changed = make_config(tmp_path, malformed_tolerance=0.2)
        summaries = []
        assert _kept_after(workdir, OUTPUTS,
                           lambda: summaries.append(run(changed, workdir))) == set(OUTPUTS)
        assert summaries[0].executed == list(pipeline.STAGE_ORDER)
        assert not list(workdir.glob("*.tmp"))

    @pytest.mark.parametrize("old", [b"old\n", b"new\n!", b"new", b""],
                             ids=["other", "longer", "shorter", "empty"])
    def test_other_bytes_are_renamed_into_place(self, tmp_path, old):
        path = tmp_path / "out.json"
        path.write_bytes(old)
        with open(path, "rb") as held:
            pipeline._atomic_write_text(path, "new\n")
            assert not os.path.samestat(os.fstat(held.fileno()), os.stat(path))
            assert held.read() == old  # replaced by a rename, never written in place
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_changed_graph_is_renamed_into_place(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        with open(config.triples, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"s": "phy-0000", "p": "feeds", "o": "soc-0000",
                                 "doc": "extra"}) + "\n")
        size = (workdir / "graph.rpkg").stat().st_size
        kept = _kept_after(workdir, ["graph.rpkg", "parse_errors.jsonl"],
                           lambda: run(config, workdir))
        assert kept == {"parse_errors.jsonl"}
        assert (workdir / "graph.rpkg").stat().st_size != size
        assert load_snapshot(workdir / "graph.rpkg").doc_count == 61
        assert not list(workdir.glob("*.tmp"))

    @pytest.mark.parametrize("other, same", [
        (b"a" * (3 << 20), True),
        (b"a" * (3 << 20) + b"b", False),
        (b"a" * (3 << 20 - 1), False),
        (b"a" * (2 << 20) + b"b" + b"a" * ((1 << 20) - 1), False),
        (None, False),
    ], ids=["equal", "longer", "shorter", "same-size-third-chunk", "missing"])
    def test_same_bytes_compares_files_by_chunk(self, tmp_path, other, same):
        path, tmp = tmp_path / "graph.rpkg", tmp_path / "graph.rpkg.tmp"
        tmp.write_bytes(b"a" * (3 << 20))
        if other is not None:
            path.write_bytes(other)
        assert pipeline._same_bytes(path, tmp) is same

    @pytest.mark.parametrize("crash_at", ["before_record:ingest", "before_record:discover",
                                          "before_record:report"])
    def test_crash_in_a_rerun_resumes_byte_identical(self, tmp_path, crash_at):
        paths = {}
        for name, theta in (("first", 0.5), ("second", 0.55)):
            config = make_config(tmp_path, scoring=ScoringConfig(theta_novelty=theta),
                                 malformed_tolerance=theta / 5)
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(config.to_dict()))
        clean, crash = tmp_path / "clean", tmp_path / "crash"
        assert run_pipeline_subprocess(paths["second"], clean).returncode == 0
        assert run_pipeline_subprocess(paths["first"], crash).returncode == 0
        proc = run_pipeline_subprocess(paths["second"], crash, crash_at=crash_at)
        assert proc.returncode == 70
        resume(crash)
        for name in OUTPUTS:
            assert (crash / name).read_bytes() == (clean / name).read_bytes(), name


class TestOneGraphPerRun:
    @pytest.fixture
    def loads(self, monkeypatch) -> list[str]:
        """The file names riskpath.pipeline.load_snapshot is called with."""
        calls = []
        real = pipeline.load_snapshot
        monkeypatch.setattr(pipeline, "load_snapshot",
                            lambda path: calls.append(Path(path).name) or real(path))
        return calls

    def test_fresh_run_loads_no_snapshot(self, tmp_path, loads):
        summary = run(make_config(tmp_path), tmp_path / "work")
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert loads == []

    def test_theta_rerun_loads_the_snapshot_once(self, tmp_path, loads):
        workdir = tmp_path / "work"
        run(make_config(tmp_path), workdir)
        changed = make_config(tmp_path, scoring=ScoringConfig(theta_novelty=0.55))
        assert run(changed, workdir).executed == ["discover", "report"]
        assert loads == ["graph.rpkg"]

    def test_resume_after_ingest_loads_the_snapshot_once(self, tmp_path, loads):
        config = make_config(tmp_path)
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps(config.to_dict()))
        clean, crash = tmp_path / "clean", tmp_path / "crash"
        run(config, clean)
        proc = run_pipeline_subprocess(config_path, crash, crash_at="after_record:ingest")
        assert proc.returncode == 70
        assert resume(crash).executed == ["pagerank", "discover", "report"]
        assert loads == ["graph.rpkg"]
        for name in OUTPUTS:
            assert (crash / name).read_bytes() == (clean / name).read_bytes(), name

    def test_retried_stage_reuses_the_run_graph(self, tmp_path, monkeypatch, loads):
        def fail_once(stage):
            real, failed = pipeline.STAGES[stage], []

            def flaky(*args):
                if not failed:
                    failed.append(stage)
                    raise OSError(f"injected {stage} flake")
                return real(*args)
            monkeypatch.setitem(pipeline.STAGES, stage, flaky)

        workdir = tmp_path / "work"
        fail_once("pagerank")
        fail_once("discover")
        summary = run(make_config(tmp_path), workdir)
        assert [record.attempts for record in summary.records] == [1, 2, 2, 1]
        assert loads == []
        # a θ-only rerun loads the snapshot for discover's first attempt only
        fail_once("discover")
        changed = make_config(tmp_path, scoring=ScoringConfig(theta_novelty=0.55))
        summary = run(changed, workdir)
        assert summary.executed == ["discover", "report"]
        assert [record.attempts for record in summary.records] == [1, 2, 2, 1]
        assert loads == ["graph.rpkg"]

    def test_ingest_hashes_its_snapshot_once(self, tmp_path, monkeypatch):
        hashed = []
        real = pipeline._sha256_file
        monkeypatch.setattr(pipeline, "_sha256_file",
                            lambda path: hashed.append(Path(path).name) or real(path))
        workdir = tmp_path / "work"
        config = make_config(tmp_path)
        # the second run reruns ingest, which leaves graph.rpkg's bytes as they were
        for config in (config, dataclasses.replace(config, malformed_tolerance=0.2)):
            hashed.clear()
            assert run(config, workdir).executed[0] == "ingest"
            # ingest's key for the graph it holds, then each later stage's input
            assert hashed.count("graph.rpkg") + hashed.count("graph.rpkg.tmp") == 4
            ingest = json.loads((workdir / "manifest.json").read_text())[0]
            graph = hashlib.sha256((workdir / "graph.rpkg").read_bytes()).hexdigest()
            assert ingest["output_fingerprints"][0] == graph

    @pytest.mark.parametrize("after", ["ingest", "pagerank", "discover"])
    def test_snapshot_replaced_between_stages_is_loaded(self, tmp_path, monkeypatch,
                                                         loads, after):
        config = make_config(tmp_path)
        clean = tmp_path / "clean"
        run(config, clean)
        graph = load_snapshot(clean / "graph.rpkg")
        kept = [r for i, r in enumerate(graph.relations.values()) if i % 3]
        ends = {end for r in kept for end in (r.source, r.target)}
        other = build_graph([e for e in graph.entities.values() if e.id in ends], kept,
                            doc_count=graph.doc_count)
        real = pipeline.STAGES[after]

        def then_replace(*args):
            result = real(*args)
            save_snapshot(other, args[1] / "graph.rpkg")
            return result

        monkeypatch.setitem(pipeline.STAGES, after, then_replace)
        workdir = tmp_path / "work"
        run(config, workdir)
        assert loads == ["graph.rpkg"]
        # the later stages, run outside a pipeline run on a copy, load the file
        expected = tmp_path / "expected"
        shutil.copytree(workdir, expected)
        later = pipeline.STAGE_ORDER[pipeline.STAGE_ORDER.index(after) + 1:]
        for stage in later:
            pipeline.STAGES[stage](config, expected, load_snapshot(expected / "graph.rpkg"))
        names = [name for stage in later for name in pipeline.STAGE_OUTPUTS[stage]]
        assert {name: (workdir / name).read_bytes() for name in names} == \
            {name: (expected / name).read_bytes() for name in names}
        assert any((workdir / name).read_bytes() != (clean / name).read_bytes()
                   for name in names)


class TestStageFingerprints:
    # each stage's input fingerprint on the golden ingest corpus; one that
    # moves reruns that stage in every working directory written before
    PINNED = {
        "ingest": {
            "jsonl": "710583c5427279cdaf65aeffd1e3d369632272f2fd50d44d00aadbd3a0c89b6e",
            "tsv": "a6d9c67101122e64ad9e83d6a235a689855b5766c8c343dd7749ab383c533039"},
        "pagerank": "a9ee59d41dd0e1d3f27fea20727d0c341bf11173c8803b8942f15ee568349328",
        "discover": "164e8ae403419fcc4f93474dfe8a8ffcd35455af902adb1842c1e72482434332",
        "report": "dc1106073bf2118c34dcb31e28a77a06eec49fca674d50e5ff7dbfd34d8ee456",
    }

    @pytest.mark.parametrize("fmt", ("jsonl", "tsv"))
    def test_pinned_on_golden_corpus(self, tmp_path, fmt):
        summary = run(_golden_corpus(tmp_path / "corpus", fmt), tmp_path / "work")
        assert summary.executed == list(pipeline.STAGE_ORDER)
        want = dict(self.PINNED, ingest=self.PINNED["ingest"][fmt])
        assert {r.stage_name: r.input_fingerprint for r in summary.records} == want


class TestLock:
    def test_live_holder_blocks(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        workdir.mkdir()
        with open(workdir / "pipeline.lock", "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(PipelineError, match="lock"):
                run(config, workdir)
        assert not (workdir / "manifest.json").exists()

    def test_killed_holder_does_not_block(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        workdir.mkdir()
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import fcntl, sys\n"
             "fh = open(sys.argv[1], 'w')\n"
             "fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
             "print('locked', flush=True)\n"
             "sys.stdin.read()\n",
             str(workdir / "pipeline.lock")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "locked\n"
            with pytest.raises(PipelineError, match="lock"):
                run(config, workdir)
        finally:
            holder.kill()
            holder.communicate(timeout=60)
        assert holder.returncode == -signal.SIGKILL
        assert (workdir / "pipeline.lock").exists()
        summary = run(config, workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert not (workdir / "pipeline.lock").exists()

    def test_stale_lock_taken_over(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        workdir.mkdir()
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        (workdir / "pipeline.lock").write_text(
            json.dumps({"pid": dead.pid, "started_at": 0}))
        summary = run(config, workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert not (workdir / "pipeline.lock").exists()

    def test_holder_record_replaces_longer_stale_bytes(self, tmp_path):
        path = tmp_path / "pipeline.lock"
        path.write_bytes(b"#" * 200)
        with pipeline._pipeline_lock(tmp_path):
            # json.loads rejects any stale byte left after the record
            record = json.loads(path.read_bytes())
            assert record["pid"] == os.getpid()
        assert not path.exists()


class TestPipelineConfig:
    def test_json_round_trip(self, tmp_path):
        config = make_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()))
        assert PipelineConfig.from_json_file(path) == config

    @pytest.mark.parametrize("data", [b'{"triples": "\xff"}', b"\xff"],
                             ids=["in-string", "leading"])
    def test_non_utf8_file_is_config_error(self, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="cannot load pipeline config"):
            PipelineConfig.from_json_file(path)
        with pytest.raises(ConfigError, match="cannot load scoring config"):
            ScoringConfig.from_json_file(path)

    def test_missing_required_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"triples": "x"}))
        with pytest.raises(Exception, match="entities"):
            PipelineConfig.from_json_file(path)
