"""The benchmark's workloads: input generators, set-up and measured operation.

Each workload loads a different riskpath layer (see README.md):

- ``c9-discover-d5``: discovery at the paper defaults dominates;
- ``c9-cli-session``: six snapshot loads dominate, discovery takes the
  edge-max / prune / thread-pool path;
- ``syngen-pipeline``: ingest dominates, discovery is about 1%.

The criterion-9 graph is generated as in
``tests/test_acceptance.py::test_criterion_9_scale_sanity`` at one tenth of
its size (3k entities, 10k relations, 200 docs), which keeps its average
degree and relations per doc; the syngen corpus has 5k docs. At full size
one discovery at ``d_max=5`` takes 25 s and 2.5 GB, too long and too large
for the dozens of runs a comparison needs, and smaller operations give more
samples per run on a noisy shared machine.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import riskpath.cli
import riskpath.pipeline
from riskpath import (
    Entity,
    GenSpec,
    Layer,
    PlantedChain,
    Relation,
    ScoringConfig,
    build_graph,
    generate,
    pagerank,
    save_snapshot,
    write_corpus,
)

SYNGEN_CHAIN = "P,S,E,S,E:1"


def c9_inputs(seed: int, per_layer: int, n_relations: int, n_docs: int):
    """Random three-layer graph with one doc per edge and no parallel edges."""
    rng = random.Random(seed)
    entities = []
    for layer in Layer:
        prefix = layer.value[:3]
        entities.extend(
            Entity(f"{prefix}{i:05d}", f"{prefix}{i:05d}", layer, round(rng.random(), 6))
            for i in range(per_layer))
    ids = [e.id for e in entities]
    doc_pool = [f"d{i:04d}" for i in range(n_docs)]
    relations, seen = [], set()
    while len(relations) < n_relations:
        s = rng.choice(ids)
        t = rng.choice(ids)
        if s == t or (s, t) in seen:
            continue
        seen.add((s, t))
        relations.append(Relation(f"r{len(relations):06d}", s, "links", t,
                                  frozenset({rng.choice(doc_pool)})))
    return entities, relations


def syngen_inputs(seed: int, n_docs: int) -> GenSpec:
    return GenSpec(n_docs=n_docs, seed=seed,
                   planted_chains=(PlantedChain.parse(SYNGEN_CHAIN),))


def setup_api() -> SimpleNamespace:
    """The program calls set-up makes; a tracer may patch them."""
    return SimpleNamespace(build_graph=build_graph, save_snapshot=save_snapshot,
                           pagerank=pagerank, generate=generate,
                           write_corpus=write_corpus)


def _setup_snapshot(inputs, workdir: Path, api) -> None:
    entities, relations = inputs
    api.save_snapshot(api.build_graph(entities, relations), workdir / "graph.rpkg")


def _setup_snapshot_pagerank(inputs, workdir: Path, api) -> None:
    entities, relations = inputs
    graph = api.build_graph(entities, relations)
    api.save_snapshot(graph, workdir / "graph.rpkg")
    centrality = api.pagerank(graph, ScoringConfig())
    with open(workdir / "pagerank.json", "w", encoding="utf-8") as fh:
        json.dump(centrality.to_dict(), fh, indent=2, sort_keys=True)


def _setup_corpus(spec: GenSpec, workdir: Path, api) -> None:
    api.write_corpus(api.generate(spec), workdir / "corpus")


def _cli(*argv) -> None:
    # looked up at call time, so a tracer's patch applies
    code = riskpath.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"riskpath {argv[0]} exited with code {code}")


def _run_discover_d5(workdir: Path) -> Path:
    _cli("discover", workdir, "--workers", "1")
    return workdir


def _run_cli_session(workdir: Path) -> Path:
    # demos/06_cli_workflow.sh on an existing snapshot; discover keeps the
    # CLI defaults (workers = os.cpu_count(), pruning on)
    _cli("stats", workdir)
    _cli("pagerank", workdir)
    _cli("discover", workdir, "--fmax-mode", "edge-max", "--d-max", "3")
    _cli("report", "temporal", workdir)
    _cli("report", "layers", workdir)
    _cli("export", workdir, "--pathways", workdir / "pathways.json",
         "--out", workdir / "pathways.dot")
    return workdir


def _run_pipeline(workdir: Path) -> Path:
    corpus = workdir / "corpus"
    config = riskpath.pipeline.PipelineConfig(
        triples=str(corpus / "triples.jsonl"), entities=str(corpus / "entities.jsonl"))
    riskpath.pipeline.run(config, workdir / "run")
    return workdir / "run"


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    setup_reps: int             # set-ups per traced run
    inputs: Callable            # (seed, **size) -> inputs; the benchmark's own, untimed
    size: dict                  # keyword arguments of ``inputs``
    setup: Callable             # (inputs, workdir, api) -> None; timed as setup_s
    outputs: tuple[str, ...]    # removed before each operation, untimed
    run: Callable               # workdir -> dir holding graph, pagerank, pathways
    expected: ScoringConfig     # settings pathways.json must have been made with
    pipeline: bool = False

    @property
    def key(self) -> str:
        """Names the inputs apart from the seed, e.g. for stored references."""
        return "-".join(f"{k}{v}" for k, v in sorted(self.size.items()))

    def clear(self, workdir: Path) -> None:
        for name in self.outputs:
            path = workdir / name
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()


C9_SIZE = {"per_layer": 1_000, "n_relations": 10_000, "n_docs": 200}

WORKLOADS = {w.name: w for w in (
    Workload("c9-discover-d5", 2024, 15, c9_inputs, C9_SIZE, _setup_snapshot_pagerank,
             ("pathways.json",), _run_discover_d5, ScoringConfig()),
    Workload("c9-cli-session", 2024, 15, c9_inputs, C9_SIZE, _setup_snapshot,
             ("pagerank.json", "pathways.json", "pathways.dot"), _run_cli_session,
             ScoringConfig(fmax_mode="edge-max", d_max=3)),
    Workload("syngen-pipeline", 7, 5, syngen_inputs, {"n_docs": 5_000}, _setup_corpus,
             ("run",), _run_pipeline, ScoringConfig(), pipeline=True),
)}
