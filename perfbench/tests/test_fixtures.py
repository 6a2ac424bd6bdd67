"""Oracle-checked fixtures for the benchmark's workloads, and its own parts.

Each workload's generator runs at a few hundred relations or docs, and its
exact set-up and measured operation produce ``pathways.json``, which must
match ``enumerate_oracle``. The output checks must pass on it and fail on
tampered copies.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import dataclasses
import json
import os

import pytest

import riskpath.cli
from riskpath import (
    CentralityScores,
    CorpusStats,
    RiskPathError,
    enumerate_oracle,
    load_snapshot,
)

import check
import spans
import worker
import workloads
from workloads import WORKLOADS, setup_api

SMALL_SIZE = {
    "c9-discover-d5": {"per_layer": 50, "n_relations": 300, "n_docs": 6},
    "c9-cli-session": {"per_layer": 50, "n_relations": 300, "n_docs": 6},
    "syngen-pipeline": {"n_docs": 300},
}


def _run_small(name, seed, workdir):
    workload = WORKLOADS[name]
    workload.setup(workload.inputs(seed, **SMALL_SIZE[name]), workdir, setup_api())
    return workload.run(workdir)


def _oracle_json(out_dir, config):
    graph = load_snapshot(out_dir / "graph.rpkg")
    stats_path = out_dir / "corpus_stats.json"
    stats = (CorpusStats.from_dict(json.loads(stats_path.read_text()))
             if stats_path.exists() else CorpusStats.from_graph(graph))
    centrality = CentralityScores.from_dict(
        json.loads((out_dir / "pagerank.json").read_text()))
    return enumerate_oracle(graph, stats, centrality, config).to_json_dict(graph)


@pytest.mark.parametrize("seed", [None, 31])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_matches_oracle(name, seed, tmp_path):
    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    out_dir = _run_small(name, seed, tmp_path)
    got = json.loads((out_dir / "pathways.json").read_text())
    want = _oracle_json(out_dir, workload.expected)
    assert want["pathways"], "fixture too small to report any pathway"
    if workload.expected.fmax_mode == "edge-max":
        # pruning is on: it may only lower the candidate counter
        assert (got["metadata"].pop("candidates_enumerated")
                <= want["metadata"].pop("candidates_enumerated"))
    assert got == want
    check.check_output(out_dir, workload.expected)
    if workload.pipeline:
        check.check_manifest(out_dir)


def test_cli_session_uses_thread_pool_defaults(tmp_path, monkeypatch):
    seen = {}
    real = riskpath.cli.discover

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(riskpath.cli, "discover", spy)
    _run_small("c9-cli-session", 2024, tmp_path)
    assert seen["workers"] == (os.cpu_count() or 1)
    assert seen["prune"] is None  # the edge-max default, which prunes


@pytest.fixture(scope="module")
def d5_output(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("d5")
    return _run_small("c9-discover-d5", 2024, workdir)


def _tamper(out_dir, edit):
    payload = json.loads((out_dir / "pathways.json").read_text())
    edit(payload)
    (out_dir / "pathways.json").write_text(json.dumps(payload))


@pytest.mark.parametrize("edit", [
    lambda p: p["pathways"][0].update(score=p["pathways"][0]["score"] + 1e-12),
    lambda p: p["pathways"].reverse(),
    lambda p: p["pathways"][0]["entities"].reverse(),
    lambda p: p["metadata"].update(d_max=4),
    lambda p: p["pathways"].clear(),
], ids=["score", "order", "direction", "settings", "empty"])
def test_check_output_rejects_tampering(d5_output, tmp_path, edit):
    for name in ("graph.rpkg", "pagerank.json", "pathways.json"):
        (tmp_path / name).write_bytes((d5_output / name).read_bytes())
    check.check_output(tmp_path, WORKLOADS["c9-discover-d5"].expected)
    _tamper(tmp_path, edit)
    with pytest.raises((check.CheckError, RiskPathError)):
        check.check_output(tmp_path, WORKLOADS["c9-discover-d5"].expected)


def test_check_reference_stores_then_compares(d5_output, tmp_path):
    reference = tmp_path / "ref" / "pathways.json"
    check.check_reference(d5_output, reference)
    assert reference.read_bytes() == (d5_output / "pathways.json").read_bytes()
    check.check_reference(d5_output, reference)
    reference.write_bytes(reference.read_bytes() + b" ")
    with pytest.raises(check.CheckError):
        check.check_reference(d5_output, reference)


def test_check_manifest_requires_every_stage(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps(
        [{"stage_name": s, "status": "done"} for s in ("ingest", "build")]))
    with pytest.raises(check.CheckError):
        check.check_manifest(tmp_path)


def _span(id_, name, parent, start, end, **counts):
    return {"id": id_, "name": name, "parent": parent, "run_id": "r", "start": start,
            "end": end, "rss_rise_kb": 2048, "counts": counts}


def test_layer_metrics_self_time_and_counts():
    trace = [
        _span(0, "cli.main", None, 0.0, 10.0),
        _span(1, "graph.load_snapshot", 0, 1.0, 4.0, **{"graph.snapshot_bytes": 7}),
        _span(2, "discovery.discover", 0, 4.0, 8.0,
              **{"discovery.candidates_enumerated": 50,
                 "discovery.pathways_returned": 5}),
        _span(3, "cli.main", None, 10.0, 12.0),
        _span(4, "graph.load_snapshot", 3, 10.5, 11.5, **{"graph.snapshot_bytes": 7}),
    ]
    values = spans.layer_metrics(trace)
    assert values["cli.self_s"] == pytest.approx(10.0 - 3.0 - 4.0 + 2.0 - 1.0)
    assert values["cli.commands"] == 2
    assert values["graph.load_snapshot_s"] == pytest.approx(4.0)
    assert values["graph.load_snapshot_calls"] == 2
    assert values["graph.snapshot_bytes"] == 7
    assert values["graph.load_snapshot_rss_rise_mb"] == pytest.approx(4.0)
    assert values["discovery.yield"] == pytest.approx(0.1)
    assert values["ingest.parse_triples_s"] == 0
    assert set(values) == set(spans.PER_LAYER_UNITS) - {"trace.overhead_s"}


def test_tracer_records_nested_spans_and_restores(d5_output, tmp_path):
    original_main = riskpath.cli.main
    original_from_graph = CorpusStats.__dict__["from_graph"]
    for name in ("graph.rpkg", "pagerank.json"):
        (tmp_path / name).write_bytes((d5_output / name).read_bytes())
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        workloads._run_discover_d5(tmp_path)
    finally:
        tracer.restore()
    assert riskpath.cli.main is original_main
    assert CorpusStats.__dict__["from_graph"] is original_from_graph
    recorded = tracer.to_dicts()
    names = [s["name"] for s in recorded]
    assert names[0] == "cli.main"
    assert {"graph.load_snapshot", "ingest.corpus_stats",
            "scoring.centrality_from_dict", "discovery.discover",
            "discovery.to_json_dict"} <= set(names)
    assert all(s["parent"] == 0 for s in recorded[1:])
    values = spans.layer_metrics(recorded)
    assert values["discovery.pathways_returned"] == 10
    assert values["discovery.candidates_enumerated"] > 0


def _small_loop_spec(monkeypatch, workdir, **extra):
    name = "c9-cli-session"
    small = dataclasses.replace(WORKLOADS[name], size=SMALL_SIZE[name])
    monkeypatch.setitem(WORKLOADS, name, small)
    small.setup(small.inputs(3, **small.size), workdir, setup_api())
    return {"workload": name, "seed": 3, "workdir": str(workdir), "run_id": "t",
            "reference": str(workdir / "ref" / "pathways.json"),
            "seconds": 0, "min_ops": 2, "until_s": 60, **extra}


def test_loop_interleaves_timed_setups_and_checked_operations(monkeypatch, tmp_path):
    result = worker.run_loop(_small_loop_spec(monkeypatch, tmp_path))
    assert (result["attempted"], result["failed"], result["errors"]) == (3, 0, [])
    assert len(result["wall_s"]) == len(result["setup_s"]) == 2
    assert result["maxrss_kb"] > 0
    assert not (tmp_path / "setup-rep").exists()


def test_loop_counts_failed_checks_and_stops(monkeypatch, tmp_path):
    spec = _small_loop_spec(monkeypatch, tmp_path)
    reference = tmp_path / "ref" / "pathways.json"
    reference.parent.mkdir()
    reference.write_text("{}")
    result = worker.run_loop(spec)
    assert result["attempted"] == result["failed"] == 3
    assert all(error.startswith("CheckError") for error in result["errors"])
