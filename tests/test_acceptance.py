"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
timing lines; plain ``pytest`` reports pass/fail per criterion through the
test names.
"""

import json
import random
import resource
import subprocess
import sys
import time

import pytest

from riskpath import (
    CorpusStats,
    Entity,
    EntityMeta,
    GenSpec,
    Layer,
    Pathway,
    PlantedChain,
    RawTriple,
    Relation,
    ScoringConfig,
    aggregate,
    build_graph,
    cross_layer_connectivity,
    cross_layer_count,
    discover,
    enumerate_oracle,
    generate,
    impact_potential,
    literature_frequency,
    novelty_score,
    pagerank,
    temporal_distribution,
)
from riskpath.errors import ConfigError
from riskpath.pipeline import PipelineConfig, resume
from riskpath.scoring import CentralityScores
from riskpath.syngen import write_corpus
from oracle_pagerank import dense_pagerank
from util import (TEMPORAL_REFERENCE_CELLS, chain_graph, make_entity, random_graph,
                  subprocess_env, temporal_reference_graph)

DEFAULTS = ScoringConfig()
EXACT = 1e-12

# criterion-4 corpus results, cached for criterion 5
_CORPUS_RESULTS: list = []


def _report(criterion: str, started: float, budget: float, detail: str = ""):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{criterion} took {elapsed:.1f}s (budget {budget}s)"
    suffix = f" - {detail}" if detail else ""
    print(f"\n{criterion}: PASS in {elapsed:.2f}s{suffix}")


def test_criterion_1_formula_suite():
    started = time.monotonic()

    # literature frequency
    assert abs(literature_frequency(0, 10) - 1.0) < EXACT
    assert abs(literature_frequency(10, 10) - 0.0) < EXACT
    assert abs(literature_frequency(5, 10) - 0.5) < EXACT
    assert abs(literature_frequency(0, 0) - 1.0) < EXACT

    # cross-layer connectivity and count on layer-sequence fixtures
    def path_on(layers):
        graph, _ = chain_graph(layers)
        n = len(layers)
        return (Pathway(tuple(f"e{i}" for i in range(n)),
                        tuple(f"r{i}" for i in range(n - 1))), graph)

    pw, g = path_on([Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC])
    assert abs(cross_layer_connectivity(pw, g) - 1.0) < EXACT
    pw, g = path_on([Layer.PHYSICAL] * 3)
    assert abs(cross_layer_connectivity(pw, g) - 0.0) < EXACT
    pw, g = path_on([Layer.PHYSICAL, Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC])
    assert abs(cross_layer_connectivity(pw, g) - 2 / 3) < EXACT
    pw, g = path_on([Layer.PHYSICAL])
    assert cross_layer_count(pw, g) == 0
    pw, g = path_on([Layer.PHYSICAL, Layer.SOCIAL])
    assert cross_layer_count(pw, g) == 1
    pw, g = path_on([Layer.PHYSICAL, Layer.SOCIAL, Layer.PHYSICAL, Layer.ECONOMIC])
    assert cross_layer_count(pw, g) == 3

    # impact potential extremes
    graph, _ = chain_graph([Layer.PHYSICAL, Layer.SOCIAL], severities=[1.0, 1.0])
    ones = CentralityScores({"e0": 0.5, "e1": 0.5}, {"e0": 1.0, "e1": 1.0}, 1, True)
    pw = Pathway(("e0", "e1"), ("r0",))
    assert abs(impact_potential(pw, ones, graph) - 1.0) < EXACT
    graph, _ = chain_graph([Layer.PHYSICAL, Layer.SOCIAL], severities=[0.0, 0.0])
    assert abs(impact_potential(pw, ones, graph) - 0.0) < EXACT

    # novelty score, including the worked case 0.5*0.8 + 0.3*(2/3) + 0.2*0.5 = 0.7
    assert abs(novelty_score(0, 1.0, 1.0, 1.0, DEFAULTS).total - 1.0) < EXACT
    assert abs(novelty_score(0, 0.0, 0.0, 0.0, DEFAULTS).total - 0.0) < EXACT
    assert abs(novelty_score(2, 0.8, 2 / 3, 0.5, DEFAULTS).total - 0.7) < EXACT

    _report("criterion 1 (formula suite)", started, 1.0)


def test_criterion_2_default_config():
    started = time.monotonic()
    config = ScoringConfig()
    assert config.alpha == 0.5
    assert config.beta == 0.3
    assert config.gamma == 0.2
    assert config.theta_novelty == 0.7
    assert config.d_max == 5
    assert abs(config.alpha + config.beta + config.gamma - 1.0) <= EXACT
    with pytest.raises(ConfigError):
        ScoringConfig(alpha=0.5, beta=0.3, gamma=0.25)
    _report("criterion 2 (default config)", started, 1.0,
            "alpha=0.5 beta=0.3 gamma=0.2 theta=0.7 d_max=5")


def test_criterion_3_pagerank_correctness():
    started = time.monotonic()

    entities = [make_entity("a", Layer.PHYSICAL), make_entity("b", Layer.SOCIAL)]
    relations = [Relation("r0", "a", "p", "b", frozenset({"d"})),
                 Relation("r1", "b", "p", "a", frozenset({"d"}))]
    cycle = pagerank(build_graph(entities, relations), DEFAULTS)
    assert cycle.scores["a"] == 0.5 and cycle.scores["b"] == 0.5

    worst = 0.0
    for seed in range(20):
        rng = random.Random(3000 + seed)
        graph, _ = random_graph(rng, 50, rng.randint(60, 200))
        got = pagerank(graph, DEFAULTS)
        want = dense_pagerank(graph, DEFAULTS.damping, DEFAULTS.pr_tolerance,
                              DEFAULTS.pr_max_iters)
        assert abs(sum(got.scores.values()) - 1.0) <= 1e-9
        for eid, value in got.scores.items():
            err = abs(value - want[eid])
            worst = max(worst, err)
            assert err < 1e-8
    _report("criterion 3 (pagerank)", started, 5.0,
            f"20 seeds, worst per-node error {worst:.2e}")


def _criterion4_corpus():
    """100 seeded graphs with per-graph parameter mixes (cached)."""
    if _CORPUS_RESULTS:
        return _CORPUS_RESULTS
    for seed in range(100):
        rng = random.Random(20_000 + seed)
        if seed >= 98:
            n, m = 200, 600
        else:
            n = rng.randint(20, 180)
            m = min(600, int(n * rng.uniform(1.8, 3.0)))
        graph, stats = random_graph(rng, n, m)
        theta = [0.0, 0.5, 0.7, 0.85][seed % 4]
        d_max = [3, 4, 5][seed % 3]
        top_k = [5, 10, 50][(seed + 1) % 3]
        _CORPUS_RESULTS.append((seed, graph, stats, theta, d_max, top_k))
    return _CORPUS_RESULTS


def test_criterion_4_oracle_equivalence():
    started = time.monotonic()
    runs = 0
    for seed, graph, stats, theta, d_max, top_k in _criterion4_corpus():
        for fmax_mode in ("pathway-max", "edge-max"):
            config = ScoringConfig(theta_novelty=theta, d_max=d_max,
                                   top_k=top_k, fmax_mode=fmax_mode)
            centrality = pagerank(graph, config)
            oracle = enumerate_oracle(graph, stats, centrality, config)
            for prune in (False, True):
                got = discover(graph, stats, centrality, config, prune=prune)
                runs += 1
                label = f"seed={seed} mode={fmax_mode} prune={prune}"
                assert got.pathways == oracle.pathways, label
                assert got.f_max_used == oracle.f_max_used, label
                assert got.sources_processed == oracle.sources_processed
                if not (prune and fmax_mode == "edge-max"):
                    assert got.candidates_enumerated == \
                        oracle.candidates_enumerated, label
    _report("criterion 4 (oracle equivalence)", started, 120.0,
            f"100 graphs x 2 fmax modes x prune on/off ({runs} runs)")


def test_criterion_5_constraint_compliance():
    started = time.monotonic()
    checked = 0
    for seed, graph, stats, theta, d_max, top_k in _criterion4_corpus():
        config = ScoringConfig(theta_novelty=theta, d_max=d_max, top_k=top_k)
        centrality = pagerank(graph, config)
        result = discover(graph, stats, centrality, config)
        for pathway, breakdown in result.pathways:
            assert graph.entity(pathway.entity_ids[0]).layer is Layer.PHYSICAL
            assert len(set(pathway.entity_ids)) == len(pathway.entity_ids)
            pathway.validate(graph, d_max=config.d_max)
            assert cross_layer_count(pathway, graph) >= 2
            assert 2 <= pathway.edge_length <= 5
            assert breakdown.total > config.theta_novelty
            checked += 1
    assert checked > 500, "corpus should yield a meaningful number of pathways"
    _report("criterion 5 (constraint compliance)", started, 120.0,
            f"{checked} returned pathways checked")


def test_criterion_6_planted_chain_recovery():
    started = time.monotonic()
    chain_spec = PlantedChain((Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC,
                               Layer.SOCIAL, Layer.ECONOMIC), attestations=1)
    hits = 0
    for seed in range(20):
        spec = GenSpec(n_docs=1000, seed=seed, planted_chains=(chain_spec,))
        produced = generate(spec)

        per_doc = {}
        for row in produced.triples:
            per_doc[row["doc"]] = per_doc.get(row["doc"], 0) + 1
        assert len(per_doc) == 1000
        lo, hi = spec.relations_per_doc
        assert all(lo <= count <= hi for count in per_doc.values())

        triples = [RawTriple(t["s"], t["p"], t["o"], t["doc"])
                   for t in produced.triples]
        meta = [EntityMeta(r["name"], Layer.from_string(r["layer"]),
                           r["severity"], tuple(r["aliases"]))
                for r in produced.entities]
        agg = aggregate(triples, meta)
        graph = build_graph(agg.entities, agg.relations,
                            doc_count=agg.doc_count)
        centrality = pagerank(graph, DEFAULTS)
        result = discover(graph, CorpusStats.from_graph(graph), centrality, DEFAULTS)

        manifest_chain = produced.manifest["chains"][0]
        target = Pathway(tuple(manifest_chain["entities"]),
                         tuple(manifest_chain["relation_ids"]))
        if any(pathway == target for pathway, _ in result.pathways):
            hits += 1
    assert hits >= 18, f"planted chain recovered in only {hits}/20 seeds"
    _report("criterion 6 (planted-chain recovery)", started, 120.0,
            f"{hits}/20 seeds, stock defaults, 1000 docs of 8-15 relations")


def test_criterion_7_temporal_round_trip():
    started = time.monotonic()
    report = temporal_distribution(temporal_reference_graph())
    for (phase, layer), expected in TEMPORAL_REFERENCE_CELLS.items():
        assert report.cells[(phase, layer)] == expected
    _report("criterion 7 (temporal round trip)", started, 1.0,
            "cells 78/45/23, 52/71/58, 31/63/82 exact")


def test_criterion_8_crash_resume_equivalence(tmp_path):
    started = time.monotonic()
    chain_spec = PlantedChain((Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC),
                              attestations=1)
    spec = GenSpec(n_docs=60, seed=17, entities_per_layer=25,
                   planted_chains=(chain_spec,), background_noise=1.5)
    paths = write_corpus(generate(spec), tmp_path / "corpus")
    config = PipelineConfig(triples=str(paths["triples"]),
                            entities=str(paths["entities"]),
                            scoring=ScoringConfig(theta_novelty=0.5),
                            retry_base_delay=0.0)
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps(config.to_dict()))

    def run_subprocess(workdir, crash_at=None):
        env = subprocess_env()
        env.pop("RISKPATH_TEST_CRASH", None)
        if crash_at:
            env["RISKPATH_TEST_CRASH"] = crash_at
        return subprocess.run(
            [sys.executable, "-m", "riskpath.cli", "pipeline", "run",
             "--config", str(config_path), "--workdir", str(workdir)],
            env=env, capture_output=True, text=True)

    clean = tmp_path / "clean"
    proc = run_subprocess(clean)
    assert proc.returncode == 0, proc.stderr
    reference = (clean / "pathways.json").read_bytes()

    kill_points = ("after_record:ingest", "before_record:discover",
                   "after_record:discover", "before_record:report")
    for i, crash_at in enumerate(kill_points):
        workdir = tmp_path / f"crash{i}"
        proc = run_subprocess(workdir, crash_at=crash_at)
        assert proc.returncode == 70, f"{crash_at}: {proc.stderr}"
        resume(workdir)
        assert (workdir / "pathways.json").read_bytes() == reference, crash_at
    _report("criterion 8 (crash-resume equivalence)", started, 60.0,
            f"{len(kill_points)} kill points, final discovery JSON byte-identical")


def test_criterion_9_scale_sanity():
    started = time.monotonic()
    rng = random.Random(2024)
    entities = []
    for layer in Layer:
        prefix = layer.value[:3]
        entities.extend(
            Entity(f"{prefix}{i:05d}", f"{prefix}{i:05d}", layer,
                   round(rng.random(), 6))
            for i in range(10_000))
    ids = [e.id for e in entities]
    doc_pool = [f"d{i:04d}" for i in range(2000)]
    relations, seen = [], set()
    while len(relations) < 100_000:
        s = rng.choice(ids)
        t = rng.choice(ids)
        if s == t or (s, t) in seen:
            continue
        seen.add((s, t))
        relations.append(Relation(f"r{len(relations):06d}", s, "links", t,
                                  frozenset({rng.choice(doc_pool)})))
    graph = build_graph(entities, relations)
    assert len(graph.relations) == 100_000
    stats = CorpusStats.from_graph(graph)
    config = ScoringConfig(d_max=3, fmax_mode="edge-max")
    centrality = pagerank(graph, config)

    t_discover = time.monotonic()
    discover(graph, stats, centrality, config)
    elapsed_discover = time.monotonic() - t_discover
    assert elapsed_discover < 60.0, f"discovery took {elapsed_discover:.1f}s"

    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 ** 2)
    assert peak_gb < 4.0, f"peak RSS {peak_gb:.2f} GB"
    _report("criterion 9 (scale sanity)", started, 300.0,
            f"100k relations, d_max=3: discovery {elapsed_discover:.1f}s, "
            f"peak RSS {peak_gb:.2f} GB")
