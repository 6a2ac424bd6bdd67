"""Output checks run after each measured operation, outside the timing.

``check_output`` recomputes every reported pathway from the snapshot with the
public scoring functions; ``check_reference`` holds ``pathways.json`` to the
bytes the first run of the same workload and seed wrote; ``check_manifest``
requires every pipeline stage to be done.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from riskpath import (
    CentralityScores,
    CorpusStats,
    Layer,
    Pathway,
    ScoringConfig,
    cross_layer_connectivity,
    cross_layer_count,
    impact_potential,
    literature_frequency,
    load_snapshot,
    novelty_score,
    pathway_frequency,
)
from riskpath.discovery import edge_max_frequency
from riskpath.pipeline import MANIFEST_NAME, STAGE_ORDER


class CheckError(Exception):
    """The program's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_output(out_dir: Path, expected: ScoringConfig) -> None:
    """Validate ``pathways.json`` in ``out_dir`` against its graph and scores."""
    graph = load_snapshot(out_dir / "graph.rpkg")
    with open(out_dir / "pagerank.json", encoding="utf-8") as fh:
        centrality = CentralityScores.from_dict(json.load(fh))
    with open(out_dir / "pathways.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    meta = payload["metadata"]
    for key, want in (("alpha", expected.alpha), ("beta", expected.beta),
                      ("gamma", expected.gamma), ("theta", expected.theta_novelty),
                      ("d_max", expected.d_max), ("top_k", expected.top_k),
                      ("fmax_mode", expected.fmax_mode)):
        _require(meta[key] == want, f"metadata {key}={meta[key]!r}, expected {want!r}")
    stats = CorpusStats.from_graph(graph)
    f_max = meta["f_max_used"]
    if expected.fmax_mode == "edge-max":
        _require(f_max == edge_max_frequency(graph, stats),
                 f"f_max_used {f_max} is not the largest edge doc count")

    rows = payload["pathways"]
    _require(rows, "no pathways reported")
    _require(len(rows) <= expected.top_k, f"{len(rows)} rows exceed top_k")
    name_to_id = {e.canonical_name: eid for eid, e in graph.entities.items()}
    by_triple = {rel.triple: rid for rid, rel in graph.relations.items()}
    keys = []
    for i, row in enumerate(rows):
        try:
            ids = tuple(name_to_id[name] for name in row["entities"])
            rids = tuple(by_triple[(a, pred, b)]
                         for a, pred, b in zip(ids, row["predicates"], ids[1:]))
        except KeyError as exc:
            raise CheckError(f"row {i}: {exc} is not in the graph") from None
        pathway = Pathway(ids, rids)
        pathway.validate(graph, expected.d_max)
        _require(graph.entity(ids[0]).layer is Layer.PHYSICAL,
                 f"row {i} does not start on a physical entity")
        _require(cross_layer_count(pathway, graph) >= 2,
                 f"row {i} crosses layers fewer than twice")
        _require(row["layers"] == [graph.entity(e).layer.value for e in ids],
                 f"row {i}: layers do not match the graph")
        f = pathway_frequency(pathway, stats, expected.freq_mode)
        _require(f <= f_max, f"row {i}: f={f} exceeds f_max_used={f_max}")
        score = novelty_score(f, literature_frequency(f, f_max),
                              cross_layer_connectivity(pathway, graph),
                              impact_potential(pathway, centrality, graph), expected)
        got = (row["f"], row["lf"], row["clc"], row["ip"], row["score"])
        want = (score.f, score.lf, score.clc, score.ip, score.total)
        _require(got == want, f"row {i}: (f, lf, clc, ip, score) {got} != recomputed {want}")
        _require(score.total > expected.theta_novelty, f"row {i}: score below theta")
        keys.append((-score.total, len(ids), ids, rids))
    _require(all(a < b for a, b in zip(keys, keys[1:])),
             "rows are not in (score desc, length asc, ids) order")


def check_manifest(out_dir: Path) -> None:
    """The pipeline manifest must show every stage done."""
    with open(out_dir / MANIFEST_NAME, encoding="utf-8") as fh:
        records = json.load(fh)
    _require([(r["stage_name"], r["status"]) for r in records]
             == [(stage, "done") for stage in STAGE_ORDER],
             f"manifest does not show all stages done: {records}")


def check_reference(out_dir: Path, reference: Path) -> None:
    """Compare ``pathways.json`` bytes to ``reference``; the first call for a
    workload and seed stores them."""
    data = (out_dir / "pathways.json").read_bytes()
    if not reference.exists():
        reference.parent.mkdir(parents=True, exist_ok=True)
        tmp = reference.with_name(reference.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, reference)
        return
    _require(data == reference.read_bytes(),
             f"pathways.json differs from the first run's ({reference})")
