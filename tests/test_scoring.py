import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from riskpath import (
    CentralityScores,
    ConfigError,
    CorpusStats,
    Layer,
    Pathway,
    Relation,
    ScoringConfig,
    ScoringError,
    build_graph,
    cross_layer_connectivity,
    cross_layer_count,
    impact_potential,
    literature_frequency,
    novelty_score,
    pagerank,
    pathway_frequency,
)
from riskpath.scoring import entity_doc_index, pagerank_stamp
from oracle_pagerank import dense_pagerank
from util import chain_graph, make_entity, random_graph

DEFAULTS = ScoringConfig()


class TestScoringConfig:
    def test_stock_defaults(self):
        cfg = ScoringConfig()
        assert cfg.alpha == 0.5
        assert cfg.beta == 0.3
        assert cfg.gamma == 0.2
        assert cfg.theta_novelty == 0.7
        assert cfg.d_max == 5
        assert abs(cfg.alpha + cfg.beta + cfg.gamma - 1.0) <= 1e-12

    def test_weight_sum_enforced(self):
        with pytest.raises(ConfigError):
            ScoringConfig(alpha=0.5, beta=0.3, gamma=0.3)
        with pytest.raises(ConfigError):
            ScoringConfig(alpha=-0.1, beta=0.9, gamma=0.2)

    @pytest.mark.parametrize("field,value", [
        ("theta_novelty", 1.5), ("theta_novelty", -0.1), ("d_max", 0),
        ("top_k", 0), ("fmax_mode", "median"), ("freq_mode", "mentions"),
        ("damping", 0.0), ("damping", 1.0), ("pr_tolerance", 0.0),
        ("pr_max_iters", 0), ("alpha", float("nan")), ("pr_tolerance", float("nan")),
        ("pr_tolerance", float("inf")), ("damping", float("nan")),
        ("theta_novelty", float("nan")), ("alpha", 10 ** 400),
    ])
    def test_field_invariants(self, field, value):
        with pytest.raises(ConfigError):
            ScoringConfig(**{field: value})

    def test_json_round_trip(self, tmp_path):
        cfg = ScoringConfig(theta_novelty=0.4, d_max=3)
        path = tmp_path / "cfg.json"
        path.write_text(__import__("json").dumps(cfg.to_dict()))
        assert ScoringConfig.from_json_file(path) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ScoringConfig.from_dict({"alpha": 0.5, "zeta": 1})


class TestLiteratureFrequency:
    def test_zero_frequency_is_max_novelty(self):
        assert literature_frequency(0, 10) == 1.0

    def test_saturated_frequency_is_zero(self):
        assert literature_frequency(10, 10) == 0.0

    def test_half(self):
        assert literature_frequency(5, 10) == 0.5

    def test_fmax_zero_yields_one(self):
        assert literature_frequency(0, 0) == 1.0
        assert literature_frequency(3, 0) == 1.0

    def test_over_max_is_error(self):
        with pytest.raises(ScoringError):
            literature_frequency(11, 10)


class TestCrossLayer:
    def path_for(self, layers):
        graph, _ = chain_graph(layers)
        n = len(layers)
        return Pathway(tuple(f"e{i}" for i in range(n)),
                       tuple(f"r{i}" for i in range(n - 1))), graph

    def test_fully_cross(self):
        pw, g = self.path_for([Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC])
        assert cross_layer_connectivity(pw, g) == 1.0
        assert cross_layer_count(pw, g) == 2

    def test_flat(self):
        pw, g = self.path_for([Layer.PHYSICAL] * 3)
        assert cross_layer_connectivity(pw, g) == 0.0
        assert cross_layer_count(pw, g) == 0

    def test_two_thirds(self):
        pw, g = self.path_for([Layer.PHYSICAL, Layer.PHYSICAL, Layer.SOCIAL,
                               Layer.ECONOMIC])
        assert cross_layer_connectivity(pw, g) == 2 / 3

    def test_alternating_count(self):
        pw, g = self.path_for([Layer.PHYSICAL, Layer.SOCIAL, Layer.PHYSICAL,
                               Layer.ECONOMIC])
        assert cross_layer_count(pw, g) == 3

    def test_single_transition(self):
        pw, g = self.path_for([Layer.PHYSICAL, Layer.SOCIAL])
        assert cross_layer_count(pw, g) == 1

    def test_single_entity(self):
        graph, _ = chain_graph([Layer.PHYSICAL])
        pw = Pathway(("e0",), ())
        assert cross_layer_count(pw, graph) == 0
        with pytest.raises(ScoringError):
            cross_layer_connectivity(pw, graph)

    def test_depends_only_on_layer_sequence(self):
        # relabeling predicates must not change CLC
        graph, _ = chain_graph([Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC])
        entities = list(graph.entities.values())
        relations = [Relation(r.id, r.source, "renamed-" + r.predicate, r.target,
                              r.doc_ids) for r in graph.relations.values()]
        relabeled = build_graph(entities, relations)
        pw = Pathway(("e0", "e1", "e2"), ("r0", "r1"))
        assert cross_layer_connectivity(pw, graph) == \
            cross_layer_connectivity(pw, relabeled)


def fake_centrality(normalized: dict[str, float]) -> CentralityScores:
    n = len(normalized)
    return CentralityScores(scores={k: 1 / n for k in normalized},
                            normalized=dict(normalized),
                            iterations_used=1, converged=True)


class TestCentralityScoresFromDict:
    def test_round_trip(self):
        centrality = CentralityScores(scores={"a": 0.5, "b": 0.25},
                                      normalized={"a": 1.0, "b": 0.5},
                                      iterations_used=1, converged=True)
        assert CentralityScores.from_dict(centrality.to_dict()) == centrality

    def test_stamp_round_trips_and_may_be_absent(self):
        graph, _ = chain_graph([Layer.PHYSICAL, Layer.SOCIAL])
        config = ScoringConfig(damping=0.5)
        centrality = pagerank(graph, config)
        assert centrality.stamp == pagerank_stamp(graph, config)
        assert centrality.stamp["damping"] == 0.5
        data = json.loads(json.dumps(centrality.to_dict()))
        assert CentralityScores.from_dict(data) == centrality
        del data["stamp"]
        assert CentralityScores.from_dict(data).stamp is None

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("normalized"),
        lambda d: d.pop("converged"),
        lambda d: d.update(scores=[0.5, 0.5]),
        lambda d: d.update(normalized={"a": "1.0", "b": 0.5}),
        lambda d: d.update(iterations_used="1"),
        lambda d: d.update(converged="yes"),
        lambda d: d["normalized"].update(a=float("inf")),
        lambda d: d["normalized"].update(a=float("nan")),
        lambda d: d["normalized"].update(b=-5.0),
        lambda d: d["scores"].update(b=1.5),
        lambda d: d.update(stamp=["damping", 0.85]),
    ], ids=["no-normalized", "no-converged", "scores-list", "string-score",
            "string-iterations", "string-converged", "infinite-score", "nan-score",
            "negative-score", "score-above-one", "stamp-list"])
    def test_missing_or_ill_typed_key_is_scoring_error(self, edit):
        data = fake_centrality({"a": 1.0, "b": 0.5}).to_dict()
        edit(data)
        with pytest.raises(ScoringError):
            CentralityScores.from_dict(data)

    def test_normalized_is_derived_from_scores(self):
        graph, _ = chain_graph([Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC])
        centrality = pagerank(graph, DEFAULTS)
        data = json.loads(json.dumps(centrality.to_dict()))
        data["normalized"] = {eid: 1.0 for eid in data["normalized"]}
        assert CentralityScores.from_dict(data) == centrality
        peak = max(centrality.scores.values())
        assert centrality.normalized == {eid: score / peak
                                         for eid, score in centrality.scores.items()}

    @pytest.mark.parametrize("scores", [{}, {"a": 0.0, "b": 0.0}])
    def test_no_positive_score_is_scoring_error(self, scores):
        data = {"scores": scores, "normalized": {}, "iterations_used": 1,
                "converged": True}
        with pytest.raises(ScoringError, match="is not positive"):
            CentralityScores.from_dict(data)

    def test_non_object_is_scoring_error(self):
        with pytest.raises(ScoringError):
            CentralityScores.from_dict([])


class TestImpactPotential:
    def test_all_ones(self):
        graph, _ = chain_graph([Layer.PHYSICAL, Layer.SOCIAL], severities=[1.0, 1.0])
        cent = fake_centrality({"e0": 1.0, "e1": 1.0})
        pw = Pathway(("e0", "e1"), ("r0",))
        assert impact_potential(pw, cent, graph) == 1.0

    def test_zero_severity(self):
        graph, _ = chain_graph([Layer.PHYSICAL, Layer.SOCIAL], severities=[0.0, 0.0])
        cent = fake_centrality({"e0": 1.0, "e1": 0.4})
        pw = Pathway(("e0", "e1"), ("r0",))
        assert impact_potential(pw, cent, graph) == 0.0

    def test_hand_summed_fixture(self):
        # (0.9*1.0 + 0.5*0.25 + 0.8*0.5) / 3 = 1.425 / 3 = 0.475
        graph, _ = chain_graph(
            [Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC],
            severities=[0.9, 0.5, 0.8])
        cent = fake_centrality({"e0": 1.0, "e1": 0.25, "e2": 0.5})
        pw = Pathway(("e0", "e1", "e2"), ("r0", "r1"))
        assert abs(impact_potential(pw, cent, graph) - 0.475) < 1e-12

    def test_missing_centrality(self):
        graph, _ = chain_graph([Layer.PHYSICAL, Layer.SOCIAL])
        cent = fake_centrality({"e0": 1.0})
        with pytest.raises(ScoringError):
            impact_potential(Pathway(("e0", "e1"), ("r0",)), cent, graph)

    def test_severity_monotonicity(self):
        layers = [Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC]
        cent = fake_centrality({"e0": 0.8, "e1": 0.3, "e2": 0.6})
        pw = Pathway(("e0", "e1", "e2"), ("r0", "r1"))
        graph_lo, _ = chain_graph(layers, severities=[0.2, 0.5, 0.7])
        graph_hi, _ = chain_graph(layers, severities=[0.6, 0.5, 0.7])
        assert impact_potential(pw, cent, graph_hi) >= \
            impact_potential(pw, cent, graph_lo)


class TestNoveltyScore:
    def test_all_ones(self):
        assert novelty_score(0, 1.0, 1.0, 1.0, DEFAULTS).total == 1.0

    def test_all_zero(self):
        assert novelty_score(5, 0.0, 0.0, 0.0, DEFAULTS).total == 0.0

    def test_worked_example(self):
        # 0.5*0.8 + 0.3*(2/3) + 0.2*0.5 = 0.7
        breakdown = novelty_score(2, 0.8, 2 / 3, 0.5, DEFAULTS)
        assert abs(breakdown.total - 0.7) < 1e-12
        assert breakdown.f == 2
        assert breakdown.lf == 0.8
        assert breakdown.clc == 2 / 3
        assert breakdown.ip == 0.5

    def test_breakdown_consistency(self):
        b = novelty_score(1, 0.3, 0.9, 0.1, DEFAULTS)
        assert abs(b.total - (0.5 * b.lf + 0.3 * b.clc + 0.2 * b.ip)) <= 1e-12

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=80, deadline=None)
    def test_affine_in_each_component(self, lf, clc, ip):
        # finite differences recover exactly the configured weights
        eps = 0.25
        base = novelty_score(0, lf * 0.5, clc * 0.5, ip * 0.5, DEFAULTS).total
        d_lf = novelty_score(0, lf * 0.5 + eps, clc * 0.5, ip * 0.5, DEFAULTS).total - base
        d_clc = novelty_score(0, lf * 0.5, clc * 0.5 + eps, ip * 0.5, DEFAULTS).total - base
        d_ip = novelty_score(0, lf * 0.5, clc * 0.5, ip * 0.5 + eps, DEFAULTS).total - base
        assert abs(d_lf - DEFAULTS.alpha * eps) < 1e-12
        assert abs(d_clc - DEFAULTS.beta * eps) < 1e-12
        assert abs(d_ip - DEFAULTS.gamma * eps) < 1e-12

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=80, deadline=None)
    def test_range(self, lf, clc, ip):
        assert 0.0 <= novelty_score(0, lf, clc, ip, DEFAULTS).total <= 1.0

    def test_monotone_in_frequency(self):
        totals = [novelty_score(f, literature_frequency(f, 10), 0.5, 0.5, DEFAULTS).total
                  for f in range(11)]
        assert totals == sorted(totals, reverse=True)


class TestPathwayFrequency:
    def test_single_edge(self):
        graph, stats = chain_graph([Layer.PHYSICAL, Layer.SOCIAL],
                                   docs=("d1", "d2"))
        pw = Pathway(("e0", "e1"), ("r0",))
        assert pathway_frequency(pw, stats) == 2

    def test_disjoint_doc_sets(self):
        entities = [make_entity("a", Layer.PHYSICAL), make_entity("b", Layer.SOCIAL),
                    make_entity("c", Layer.ECONOMIC)]
        relations = [
            Relation("r0", "a", "p", "b", frozenset({"d1"})),
            Relation("r1", "b", "p", "c", frozenset({"d2"})),
        ]
        graph = build_graph(entities, relations)
        stats = CorpusStats.from_graph(graph)
        assert pathway_frequency(Pathway(("a", "b", "c"), ("r0", "r1")), stats) == 0

    def test_empty_pathway_is_error(self):
        _, stats = chain_graph([Layer.PHYSICAL, Layer.SOCIAL])
        with pytest.raises(ScoringError):
            pathway_frequency(Pathway(("e0",), ()), stats)

    def test_unknown_relation_is_error(self):
        _, stats = chain_graph([Layer.PHYSICAL, Layer.SOCIAL])
        with pytest.raises(ScoringError):
            pathway_frequency(Pathway(("e0", "e1"), ("ghost",)), stats)

    def test_entity_mode(self):
        graph, stats = chain_graph([Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC],
                                   docs=("d1", "d2"))
        index = entity_doc_index(graph)
        pw = Pathway(("e0", "e1", "e2"), ("r0", "r1"))
        assert pathway_frequency(pw, stats, freq_mode="entities",
                                 entity_docs=index) == 2
        # brute-force check of the entity doc index itself
        for eid in graph.entities:
            expected = set()
            for rel in graph.relations.values():
                if eid in (rel.source, rel.target):
                    expected |= rel.doc_ids
            assert index[eid] == expected


class TestPageRank:
    def test_single_node(self):
        graph = build_graph([make_entity("a", Layer.PHYSICAL)], [])
        cent = pagerank(graph, DEFAULTS)
        assert cent.scores["a"] == 1.0
        assert cent.normalized["a"] == 1.0
        assert cent.converged and cent.iterations_used == 1

    def test_two_node_cycle_is_half_half(self):
        entities = [make_entity("a", Layer.PHYSICAL), make_entity("b", Layer.SOCIAL)]
        relations = [Relation("r0", "a", "p", "b", frozenset({"d"})),
                     Relation("r1", "b", "p", "a", frozenset({"d"}))]
        graph = build_graph(entities, relations)
        cent = pagerank(graph, DEFAULTS)
        assert cent.scores["a"] == 0.5
        assert cent.scores["b"] == 0.5

    def test_empty_graph_is_error(self):
        with pytest.raises(ScoringError):
            pagerank(build_graph([], []), DEFAULTS)

    def test_uniform_on_cycle(self):
        n = 12
        entities = [make_entity(f"c{i}", Layer.SOCIAL) for i in range(n)]
        relations = [Relation(f"r{i}", f"c{i}", "next", f"c{(i + 1) % n}",
                              frozenset({"d"})) for i in range(n)]
        cent = pagerank(build_graph(entities, relations), DEFAULTS)
        for value in cent.scores.values():
            assert value == pytest.approx(1 / n, abs=1e-12)

    def test_uniform_on_complete_graph(self):
        n = 6
        entities = [make_entity(f"k{i}", Layer.ECONOMIC) for i in range(n)]
        relations = [Relation(f"r{i}_{j}", f"k{i}", "to", f"k{j}", frozenset({"d"}))
                     for i in range(n) for j in range(n) if i != j]
        cent = pagerank(build_graph(entities, relations), DEFAULTS)
        for value in cent.scores.values():
            assert value == pytest.approx(1 / n, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_oracle_on_random_digraphs(self, seed):
        rng = random.Random(1000 + seed)
        graph, _ = random_graph(rng, 50, rng.randint(60, 180))
        cent = pagerank(graph, DEFAULTS)
        oracle = dense_pagerank(graph, DEFAULTS.damping, DEFAULTS.pr_tolerance,
                                DEFAULTS.pr_max_iters)
        assert abs(sum(cent.scores.values()) - 1.0) <= 1e-9
        for eid, value in cent.scores.items():
            assert abs(value - oracle[eid]) < 1e-8
        peak = max(cent.scores.values())
        for eid, norm in cent.normalized.items():
            assert norm == cent.scores[eid] / peak
            assert 0.0 < norm <= 1.0
        assert max(cent.normalized.values()) == 1.0

    def test_convergence_flag(self):
        rng = random.Random(77)
        graph, _ = random_graph(rng, 40, 120)
        strict = pagerank(graph, DEFAULTS)
        assert strict.converged
        lax = pagerank(graph, ScoringConfig(pr_max_iters=2))
        assert not lax.converged
        assert lax.iterations_used == 2

    def test_scores_keep_their_bits(self):
        # every bit of every score, which the oracle's tolerance does not pin:
        # eleven parallel a -> b out of a's 14 relations (their weights summed
        # one at a time differ from 11 / 14 and from a pairwise sum), a
        # self-loop on c, and d dangling
        entities = [make_entity(eid, layer) for eid, layer in [
            ("a", Layer.PHYSICAL), ("b", Layer.SOCIAL), ("c", Layer.ECONOMIC),
            ("d", Layer.SOCIAL), ("e", Layer.PHYSICAL)]]
        pairs = [("a", "b")] * 11 + [("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"),
                                      ("b", "d"), ("c", "a"), ("c", "c"), ("c", "b"),
                                      ("e", "c")]
        # distinct predicates: relations of one triple would merge into one
        graph = build_graph(entities, [Relation(f"r{i:02d}", s, f"p{i:02d}", t, {"d1"})
                                       for i, (s, t) in enumerate(pairs)])
        cent = pagerank(graph, DEFAULTS)
        assert (cent.iterations_used, cent.converged) == (26, True)
        assert {eid: v.hex() for eid, v in cent.scores.items()} == {
            "a": "0x1.3e7583f56b2ebp-3", "b": "0x1.099274e6b6eb0p-2",
            "c": "0x1.56c69b29123e1p-2", "d": "0x1.714a6c7159603p-3",
            "e": "0x1.1f1bdef3523d2p-4"}
        assert {eid: v.hex() for eid, v in cent.normalized.items()} == {
            "a": "0x1.dbada8a4a2978p-2", "b": "0x1.8cae8885a162cp-1",
            "c": "0x1.0000000000000p+0", "d": "0x1.13cd7091b3a0bp-1",
            "e": "0x1.acd9da2f4bdbep-3"}

    def test_dangling_mass_handling(self):
        # a -> b where b dangles; scores must still sum to one
        entities = [make_entity("a", Layer.PHYSICAL), make_entity("b", Layer.SOCIAL)]
        graph = build_graph(entities,
                            [Relation("r", "a", "p", "b", frozenset({"d"}))])
        cent = pagerank(graph, DEFAULTS)
        assert abs(sum(cent.scores.values()) - 1.0) <= 1e-9
        assert cent.scores["b"] > cent.scores["a"]
