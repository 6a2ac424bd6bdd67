import json
import random
import threading

import pytest

from riskpath import (
    CorpusStats,
    DiscoveryError,
    Layer,
    Pathway,
    Relation,
    ScoreBreakdown,
    ScoringConfig,
    build_graph,
    cross_layer_count,
    discover,
    enumerate_oracle,
    pagerank,
    rank_top_k,
)
from riskpath import discovery
from riskpath.discovery import _extension_bound, format_pathways
from oracle_pagerank import dense_pagerank
from riskpath.scoring import CentralityScores, combine
from util import chain_graph, random_graph

DEFAULTS = ScoringConfig()


def results_equal(a, b, check_counter=True):
    if a.pathways != b.pathways:
        return False
    if a.f_max_used != b.f_max_used:
        return False
    if a.sources_processed != b.sources_processed:
        return False
    if check_counter and a.candidates_enumerated != b.candidates_enumerated:
        return False
    return True


class TestPathway:
    def test_structure_validation(self):
        with pytest.raises(DiscoveryError):
            Pathway(("a", "b"), ())

    def test_validate_against_graph(self):
        graph, _ = chain_graph([Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC])
        Pathway(("e0", "e1", "e2"), ("r0", "r1")).validate(graph, d_max=5)
        with pytest.raises(DiscoveryError, match="does not connect"):
            Pathway(("e1", "e0"), ("r0",)).validate(graph)
        Pathway(("e1", "e0"), ("r0",)).validate(graph, undirected=True)
        with pytest.raises(DiscoveryError, match="repeats"):
            Pathway(("e0", "e0"), ("r0",)).validate(graph)
        with pytest.raises(DiscoveryError, match="exceeds"):
            Pathway(("e0", "e1", "e2"), ("r0", "r1")).validate(graph, d_max=1)


class TestDiscoverBasics:
    def test_no_physical_sources(self):
        graph, stats = chain_graph([Layer.SOCIAL, Layer.ECONOMIC, Layer.SOCIAL])
        cent = pagerank(graph, DEFAULTS)
        result = discover(graph, stats, cent, DEFAULTS)
        assert result.pathways == []
        assert result.sources_processed == 0
        assert result.candidates_enumerated == 0

    def test_single_cross_edge_is_not_a_candidate(self):
        graph, stats = chain_graph([Layer.PHYSICAL, Layer.SOCIAL])
        cent = pagerank(graph, DEFAULTS)
        result = discover(graph, stats, cent, DEFAULTS.override(theta_novelty=0.0))
        assert result.candidates_enumerated == 0
        assert result.pathways == []

    def test_three_node_chain_hand_evaluated(self, pse_chain):
        graph, stats = pse_chain
        config = DEFAULTS.override(theta_novelty=0.0)
        cent = pagerank(graph, config)
        result = discover(graph, stats, cent, config)
        assert result.candidates_enumerated == 1
        assert len(result.pathways) == 1
        pathway, breakdown = result.pathways[0]
        assert pathway == Pathway(("e0", "e1", "e2"), ("r0", "r1"))
        # one candidate attested by the single doc: f = F_max = 1 -> LF = 0
        assert breakdown.f == 1
        assert result.f_max_used == 1
        assert breakdown.lf == 0.0
        assert breakdown.clc == 1.0
        # IP recomputed from the independent dense centrality oracle
        oracle_pr = dense_pagerank(graph)
        peak = max(oracle_pr.values())
        severities = {"e0": 0.9, "e1": 0.7, "e2": 0.8}
        ip = sum(oracle_pr[e] / peak * severities[e] for e in ("e0", "e1", "e2")) / 3
        assert abs(breakdown.ip - ip) < 1e-8
        assert abs(breakdown.total - (0.3 + 0.2 * ip)) < 1e-8

    def test_pathway_max_f_max_needs_every_hop(self):
        # the only candidate is P -> S -> S -> E, so F_max takes all three hops
        graph, stats = chain_graph([Layer.PHYSICAL, Layer.SOCIAL, Layer.SOCIAL,
                                    Layer.ECONOMIC])
        cent = pagerank(graph, DEFAULTS)
        for d_max, f_max in ((2, 0), (3, 1)):
            for freq_mode in ("docs", "entities"):
                config = DEFAULTS.override(theta_novelty=0.0, d_max=d_max,
                                           freq_mode=freq_mode)
                got = discover(graph, stats, cent, config)
                assert got.f_max_used == f_max
                assert results_equal(got, enumerate_oracle(graph, stats, cent, config))

    def test_empty_graph(self):
        graph = build_graph([], [])
        stats = CorpusStats.from_graph(graph)
        cent = CentralityScores({}, {}, 0, True)
        result = discover(graph, stats, cent, DEFAULTS)
        assert result.pathways == []
        oracle = enumerate_oracle(graph, stats, cent, DEFAULTS)
        assert results_equal(result, oracle)

    def test_returned_pathways_satisfy_constraints(self):
        rng = random.Random(5150)
        graph, stats = random_graph(rng, 60, 180)
        config = DEFAULTS.override(theta_novelty=0.3, top_k=50)
        cent = pagerank(graph, config)
        result = discover(graph, stats, cent, config)
        assert result.pathways, "fixture should produce pathways"
        for pathway, breakdown in result.pathways:
            assert graph.entity(pathway.entity_ids[0]).layer is Layer.PHYSICAL
            pathway.validate(graph, d_max=config.d_max)
            assert cross_layer_count(pathway, graph) >= 2
            assert 2 <= pathway.edge_length <= config.d_max
            assert breakdown.total > config.theta_novelty


class TestGraphIndexErrors:
    @pytest.mark.parametrize("undirected", [False, True])
    def test_corpus_stats_missing_relation(self, undirected):
        graph, stats = random_graph(random.Random(5), 20, 40)
        missing = list(graph.relations)[-1]
        partial = CorpusStats(stats.doc_count, {rid: docs for rid, docs
                                                in stats.edge_doc_index.items()
                                                if rid != missing})
        with pytest.raises(DiscoveryError, match=f"corpus stats missing relation '{missing}'"):
            discover(graph, partial, pagerank(graph, DEFAULTS), DEFAULTS,
                     undirected=undirected)

    @pytest.mark.parametrize("undirected", [False, True])
    def test_centrality_missing_entity(self, undirected):
        graph, stats = random_graph(random.Random(5), 20, 40)
        centrality = pagerank(graph, DEFAULTS)
        missing = list(graph.entities)[-1]
        partial = CentralityScores(
            {eid: v for eid, v in centrality.scores.items() if eid != missing},
            {eid: v for eid, v in centrality.normalized.items() if eid != missing},
            centrality.iterations_used, centrality.converged)
        with pytest.raises(DiscoveryError, match=f"centrality missing entity '{missing}'"):
            discover(graph, stats, partial, DEFAULTS, undirected=undirected)


class TestRankTopK:
    def mk(self, total, entity_ids, n_override=None):
        pw = Pathway(tuple(entity_ids), tuple(f"r{i}" for i in
                                              range(len(entity_ids) - 1)))
        bd = ScoreBreakdown(f=0, lf=total, clc=0.0, ip=0.0, total=total)
        return pw, bd

    def test_equal_totals_shorter_first(self):
        long = self.mk(0.9, ["a", "b", "c", "d"])
        short = self.mk(0.9, ["x", "y", "z"])
        config = DEFAULTS.override(theta_novelty=0.5)
        assert rank_top_k([long, short], config) == [short, long]

    def test_exactly_theta_excluded(self):
        at = self.mk(0.7, ["a", "b", "c"])
        above = self.mk(0.7000001, ["x", "y", "z"])
        assert rank_top_k([at, above], DEFAULTS) == [above]

    def test_lexicographic_tiebreak(self):
        one = self.mk(0.8, ["a", "m", "z"])
        two = self.mk(0.8, ["a", "b", "z"])
        assert rank_top_k([one, two], DEFAULTS) == [two, one]

    def test_truncates_to_top_k(self):
        items = [self.mk(0.9 - 0.01 * i, [f"s{i}", f"t{i}", f"u{i}"])
                 for i in range(20)]
        config = DEFAULTS.override(top_k=5, theta_novelty=0.0)
        assert rank_top_k(items, config) == items[:5]

    def test_permutation_invariant(self):
        rng = random.Random(0)
        items = [self.mk(rng.choice([0.8, 0.9]), [f"a{i}", f"b{i}", f"c{i}"])
                 for i in range(15)]
        base = rank_top_k(items, DEFAULTS)
        for seed in range(5):
            shuffled = items[:]
            random.Random(seed).shuffle(shuffled)
            assert rank_top_k(shuffled, DEFAULTS) == base


class TestPruning:
    def test_theta_zero_never_prunes(self):
        config = ScoringConfig(theta_novelty=0.0, fmax_mode="edge-max")
        for n in range(2, 6):
            for t in range(0, n):
                assert _extension_bound(n, t, 0.0, config, max_impact=0.0) > 0.0

    def test_theta_one_prunes_when_bound_strict(self):
        config = ScoringConfig(theta_novelty=1.0, fmax_mode="edge-max")
        assert _extension_bound(3, 0, 0.0, config, max_impact=0.5) <= 1.0

    def test_theta_one_empty_in_both_prune_settings(self):
        rng = random.Random(4242)
        graph, stats = random_graph(rng, 40, 100)
        config = ScoringConfig(theta_novelty=1.0, fmax_mode="edge-max")
        cent = pagerank(graph, config)
        oracle = enumerate_oracle(graph, stats, cent, config)
        assert oracle.pathways == []
        for prune in (True, False):
            got = discover(graph, stats, cent, config, prune=prune)
            assert got.pathways == oracle.pathways == []

    def test_prune_on_off_identical_results(self):
        cut_somewhere = False
        for seed in range(12):
            rng = random.Random(9000 + seed)
            graph, stats = random_graph(rng, 50, 140)
            config = ScoringConfig(fmax_mode="edge-max",
                                   theta_novelty=rng.choice([0.5, 0.7, 0.8]),
                                   top_k=25)
            cent = pagerank(graph, config)
            on = discover(graph, stats, cent, config, prune=True)
            off = discover(graph, stats, cent, config, prune=False)
            assert on.pathways == off.pathways
            assert on.f_max_used == off.f_max_used
            # pruning may only ever skip candidates, never add
            assert on.candidates_enumerated <= off.candidates_enumerated
            cut_somewhere |= on.candidates_enumerated < off.candidates_enumerated
        # a θ rule that never fires would pass every check above
        assert cut_somewhere


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs_all_modes(self, seed):
        rng = random.Random(4000 + seed)
        if seed < 15:
            graph, stats = random_graph(rng, rng.randint(20, 70),
                                        rng.randint(40, 170))
        else:
            # tie-heavy: IP is 0 and f is 0 or 1, so many totals are equal
            # and the tie-breaks decide which pathways make the top k
            graph, stats = random_graph(rng, rng.randint(20, 50),
                                        rng.randint(40, 120), n_docs=2,
                                        max_docs_per_edge=1, severity=0.0)
        theta = rng.choice([0.0, 0.5, 0.7])
        d_max = rng.choice([3, 4, 5])
        for fmax_mode in ("pathway-max", "edge-max"):
            for top_k in (rng.choice([5, 10, 40]), 1, 2):
                for freq_mode in ("docs", "entities"):
                    config = ScoringConfig(theta_novelty=theta, d_max=d_max,
                                           top_k=top_k, fmax_mode=fmax_mode,
                                           freq_mode=freq_mode)
                    cent = pagerank(graph, config)
                    oracle = enumerate_oracle(graph, stats, cent, config)
                    for prune in (False, True):
                        got = discover(graph, stats, cent, config, prune=prune)
                        check_counter = not (prune and fmax_mode == "edge-max")
                        assert results_equal(got, oracle, check_counter), (
                            f"seed={seed} mode={fmax_mode} top_k={top_k} "
                            f"freq={freq_mode} prune={prune}")

    def test_entity_freq_mode_matches_oracle(self):
        for seed in range(6):
            rng = random.Random(6200 + seed)
            graph, stats = random_graph(rng, 35, 90)
            config = ScoringConfig(theta_novelty=0.4, freq_mode="entities",
                                   top_k=30)
            cent = pagerank(graph, config)
            assert results_equal(discover(graph, stats, cent, config),
                                 enumerate_oracle(graph, stats, cent, config))

    def test_undirected_matches_oracle(self):
        for seed in range(6):
            rng = random.Random(7700 + seed)
            graph, stats = random_graph(rng, 25, 50)
            config = ScoringConfig(theta_novelty=0.5, d_max=3, top_k=20)
            cent = pagerank(graph, config)
            got = discover(graph, stats, cent, config, undirected=True)
            want = enumerate_oracle(graph, stats, cent, config, undirected=True)
            assert results_equal(got, want)
            for pathway, _ in got.pathways:
                pathway.validate(graph, d_max=config.d_max, undirected=True)

    def test_worker_counts_byte_identical_json(self):
        rng = random.Random(31337)
        graph, stats = random_graph(rng, 80, 240)
        config = ScoringConfig(theta_novelty=0.5, top_k=30)
        cent = pagerank(graph, config)
        import json
        payloads = set()
        for workers in (1, 2, 8):
            result = discover(graph, stats, cent, config, workers=workers)
            payloads.add(json.dumps(result.to_json_dict(graph), sort_keys=True))
        assert len(payloads) == 1

    def test_workers_start_no_thread(self, monkeypatch):
        rng = random.Random(31337)
        graph, stats = random_graph(rng, 80, 240)
        config = ScoringConfig(theta_novelty=0.5, top_k=30)
        cent = pagerank(graph, config)
        want = discover(graph, stats, cent, config, workers=1)
        assert want.pathways

        def no_threads(self):
            raise AssertionError("discover started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        got = discover(graph, stats, cent, config, workers=8)
        assert results_equal(got, want)


class TestTopKCut:
    """A subtree that cannot reach the top k is counted, not scored."""

    def test_cut_scores_fewer_candidates_than_it_counts(self):
        # c9-style: three layers, one doc per edge, about 3.3 relations per entity
        rng = random.Random(2024)
        graph, stats = random_graph(rng, 150, 500, n_docs=30, max_docs_per_edge=1)
        for fmax_mode in ("pathway-max", "edge-max"):
            config = ScoringConfig(fmax_mode=fmax_mode, top_k=10)
            cent = pagerank(graph, config)
            cut = discover(graph, stats, cent, config, prune=False)
            assert 0 < cut.candidates_scored < cut.candidates_enumerated, fmax_mode
            every = discover(graph, stats, cent,
                             config.override(top_k=cut.candidates_enumerated),
                             prune=False)
            assert every.candidates_scored == every.candidates_enumerated
            assert every.candidates_enumerated == cut.candidates_enumerated
            assert every.pathways[:10] == cut.pathways

    @pytest.mark.parametrize("seed", range(6))
    def test_counter_does_not_depend_on_top_k(self, seed):
        rng = random.Random(5100 + seed)
        graph, stats = random_graph(rng, rng.randint(20, 40), rng.randint(50, 90))
        d_max = rng.choice([3, 4])
        cut_somewhere = False
        for undirected in (False, True):
            for fmax_mode in ("pathway-max", "edge-max"):
                for theta in (0.0, 0.7, 0.85):
                    config = ScoringConfig(theta_novelty=theta, d_max=d_max,
                                           fmax_mode=fmax_mode)
                    cent = pagerank(graph, config)
                    for prune in (False, True):
                        results = [discover(graph, stats, cent,
                                            config.override(top_k=top_k),
                                            prune=prune, undirected=undirected)
                                   for top_k in (1, 2, 10, 10**6)]
                        counts = {r.candidates_enumerated for r in results}
                        assert len(counts) == 1, (
                            f"undirected={undirected} mode={fmax_mode} "
                            f"theta={theta} prune={prune}: {counts}")
                        cut_somewhere |= (results[0].candidates_scored
                                          < results[0].candidates_enumerated)
        assert cut_somewhere

    @pytest.mark.parametrize("seed", range(3))
    def test_counter_with_self_loops_matches_oracle(self, seed):
        # a self-loop is an adjacency target no simple pathway can take
        rng = random.Random(5200 + seed)
        base, _ = random_graph(rng, 30, 80)
        loops = [Relation(id=f"loop{i:03d}", source=eid, predicate="feeds",
                          target=eid, doc_ids=frozenset({"d000"}))
                 for i, eid in enumerate(rng.sample(sorted(base.entities), 12))]
        graph = build_graph(list(base.entities.values()),
                            list(base.relations.values()) + loops)
        stats = CorpusStats.from_graph(graph)
        for undirected in (False, True):
            for fmax_mode in ("pathway-max", "edge-max"):
                config = ScoringConfig(fmax_mode=fmax_mode, d_max=4, top_k=1)
                cent = pagerank(graph, config)
                oracle = enumerate_oracle(graph, stats, cent, config,
                                          undirected=undirected)
                got = discover(graph, stats, cent, config, prune=False,
                               undirected=undirected)
                assert got.pathways == oracle.pathways
                assert got.candidates_enumerated == oracle.candidates_enumerated
                assert got.candidates_scored < got.candidates_enumerated

    def test_source_order_does_not_change_output(self, monkeypatch):
        # two walk orders: sources reversed, and each entity's hops reversed
        graphs = [
            # tie-heavy: IP is 0 and f is 0 or 1
            random_graph(random.Random(77), 40, 110, n_docs=2,
                         max_docs_per_edge=1, severity=0.0),
            random_graph(random.Random(78), 60, 170),
        ]
        configs = [ScoringConfig(theta_novelty=0.0, top_k=top_k, fmax_mode=mode)
                   for top_k in (1, 3, 10) for mode in ("pathway-max", "edge-max")]

        def run():
            out = []
            for graph, stats in graphs:
                for config in configs:
                    result = discover(graph, stats, pagerank(graph, config), config)
                    out.append((json.dumps(result.to_json_dict(graph)),
                                result.candidates_scored))
            return out

        forward = run()
        build_index = discovery._GraphIndex.__init__

        def reversed_sources(self, *args, **kwargs):
            build_index(self, *args, **kwargs)
            self.sources.reverse()

        def reversed_adjacency(self, *args, **kwargs):
            build_index(self, *args, **kwargs)
            for hops in self.adjacency:
                hops.reverse()
            self.targets = [targets[::-1] for targets in self.targets]
            self.cross_targets = [targets[::-1] for targets in self.cross_targets]

        for permuted_index in (reversed_sources, reversed_adjacency):
            monkeypatch.setattr(discovery._GraphIndex, "__init__", permuted_index)
            backward = run()
            assert [payload for payload, _ in backward] == [payload for payload, _ in forward]
            # the reversed order did reach the cut: it scored other subtrees
            assert [scored for _, scored in backward] != [scored for _, scored in forward]

    def test_bound_covers_extensions_summed_hop_by_hop(self):
        # the traversal adds one entity's impact at a time; a bound that
        # multiplied max_impact by the hop count could round below that sum
        rng = random.Random(11)
        for _ in range(5000):
            max_impact = rng.random()
            n = rng.randint(2, DEFAULTS.d_max)
            transitions = rng.randint(0, n - 1)
            impact = 0.0
            for _ in range(n):
                impact += max_impact if rng.random() < 0.5 else rng.random() * max_impact
            bound = _extension_bound(n, transitions, impact, DEFAULTS, max_impact)
            for hops in range(1, DEFAULTS.d_max - n + 2):
                impact += max_impact
                m = n + hops
                total = combine(1.0, (transitions + hops) / (m - 1), impact / m, DEFAULTS)
                assert total <= bound, (n, transitions, hops)

    def test_bound_covers_extensions_with_per_hop_maxima(self):
        # hop j appends an entity of impact at most R_j, R_j not falling with j
        rng = random.Random(12)
        for _ in range(5000):
            n = rng.randint(2, DEFAULTS.d_max)
            transitions = rng.randint(0, n - 1)
            reach = sorted(rng.random() for _ in range(DEFAULTS.d_max - 1))
            impact = 0.0
            for _ in range(n):
                impact += rng.random()
            bound = _extension_bound(n, transitions, impact, DEFAULTS, 1.0, tuple(reach))
            for hops in range(1, DEFAULTS.d_max - n + 2):
                top = reach[hops - 1]
                impact += top if rng.random() < 0.5 else rng.random() * top
                m = n + hops
                total = combine(1.0, (transitions + hops) / (m - 1), impact / m, DEFAULTS)
                assert total <= bound, (n, transitions, hops)

    def test_hop_maxima_are_reachable_maxima(self):
        graph, stats = cyclic_multigraph(8305)
        cent = pagerank(graph, DEFAULTS)
        for undirected in (False, True):
            index = discovery._GraphIndex(graph, stats, cent, DEFAULTS.freq_mode, undirected)
            reach = discovery._hop_maxima(index, 4)
            for v, maxima in enumerate(reach):
                frontier, seen = {v}, set()
                for hops in range(4):
                    frontier = {u for w in frontier for u in index.targets[w]}
                    seen |= frontier
                    assert maxima[hops] == max((index.sevcent[u] for u in seen),
                                               default=0.0)


def cyclic_multigraph(seed: int):
    """Small random graph plus 2-cycles, self-loops and parallel relations
    with a predicate of their own, so that they lie near short pathways."""
    rng = random.Random(seed)
    base, _ = random_graph(rng, 20, 36, n_docs=6)
    relations = list(base.relations.values())
    extra = []
    for kind, count in (("back", 6), ("loop", 3), ("twin", 4)):
        for rel in rng.sample(relations, count):
            source, target, predicate = {
                "back": (rel.target, rel.source, "returns"),
                "loop": (rel.source, rel.source, "feeds"),
                "twin": (rel.source, rel.target, "echoes"),
            }[kind]
            extra.append(Relation(id=f"{kind}{len(extra):03d}", source=source,
                                  predicate=predicate, target=target,
                                  doc_ids=rel.doc_ids))
    graph = build_graph(list(base.entities.values()), relations + extra)
    return graph, CorpusStats.from_graph(graph)


class TestCutTables:
    """A cut subtree is counted from per-hop tables, or walked on a conflict."""

    @pytest.mark.parametrize("seed", (8300, 8301, 8303, 8304))
    def test_cut_counts_match_oracle_near_cycles(self, seed):
        graph, stats = cyclic_multigraph(seed)
        cut_somewhere = False
        for undirected in (False, True):
            for fmax_mode in ("pathway-max", "edge-max"):
                for d_max in (3, 4, 5):
                    config = ScoringConfig(fmax_mode=fmax_mode, d_max=d_max,
                                           top_k=2, theta_novelty=0.0)
                    cent = pagerank(graph, config)
                    want = enumerate_oracle(graph, stats, cent, config,
                                            undirected=undirected)
                    got = discover(graph, stats, cent, config, prune=False,
                                   undirected=undirected)
                    where = f"undirected={undirected} {fmax_mode} d_max={d_max}"
                    assert got.pathways == want.pathways, where
                    assert got.candidates_enumerated == want.candidates_enumerated, where
                    cut_somewhere |= got.candidates_scored < got.candidates_enumerated
        assert cut_somewhere

    def test_one_bit_signatures_match_oracle(self, monkeypatch):
        # every pathway shares the one bit, so every table lookup but those
        # of an entity with nothing in reach conflicts and is walked
        monkeypatch.setattr(discovery, "_SIGNATURE_BITS", 1)
        graph, stats = cyclic_multigraph(8302)
        for fmax_mode in ("pathway-max", "edge-max"):
            for d_max in (4, 5):
                config = ScoringConfig(fmax_mode=fmax_mode, d_max=d_max, top_k=1,
                                       theta_novelty=0.0)
                cent = pagerank(graph, config)
                assert results_equal(discover(graph, stats, cent, config, prune=False),
                                     enumerate_oracle(graph, stats, cent, config))

    def test_table_counts_reach_the_counter(self, monkeypatch):
        graph, stats = cyclic_multigraph(8300)
        config = ScoringConfig(top_k=1)
        cent = pagerank(graph, config)
        want = discover(graph, stats, cent, config)
        tables = discovery._cut_tables

        def one_more(*args):
            sigs, counts = tables(*args)
            return sigs, [[[n + 1 for n in row] for row in level] for level in counts]

        monkeypatch.setattr(discovery, "_cut_tables", one_more)
        got = discover(graph, stats, cent, config)
        assert got.pathways == want.pathways
        assert got.candidates_enumerated > want.candidates_enumerated

    def test_no_table_under_theta_rule_undirected_or_short(self, monkeypatch):
        # the θ rule must still see each inner frame, an undirected
        # predecessor is always within one hop, and one hop left is
        # counted from targets, so d_max 3 has no level
        graph, stats = cyclic_multigraph(8301)
        tables = discovery._cut_tables
        levels = []

        def recorded(index, config):
            sigs, counts = tables(index, config)
            levels.append((config.d_max, len(sigs), len(counts)))
            return sigs, counts

        monkeypatch.setattr(discovery, "_cut_tables", recorded)
        for config, kwargs in (
                (ScoringConfig(fmax_mode="edge-max", top_k=1), {}),
                (ScoringConfig(top_k=1), {"undirected": True}),
                (ScoringConfig(top_k=1, d_max=2), {}),
                (ScoringConfig(top_k=1, d_max=3), {}),
                (ScoringConfig(top_k=1), {})):
            discover(graph, stats, pagerank(graph, config), config, **kwargs)
        # one level for each of 2..d_max - 2 hops left
        assert levels == [(5, 2, 2)]


class TestMonotonicity:
    def test_raising_dmax_never_removes_candidates(self):
        rng = random.Random(808)
        graph, stats = random_graph(rng, 40, 110)
        cent = pagerank(graph, DEFAULTS)
        seen = {}
        for d_max in (2, 3, 4, 5):
            config = ScoringConfig(theta_novelty=0.0, d_max=d_max, top_k=10_000)
            result = discover(graph, stats, cent, config)
            seen[d_max] = {pw for pw, _ in result.pathways}
        # pathway-max F_max can shift with d_max, but the threshold is 0 so
        # the candidate sets themselves must be nested
        assert seen[2] <= seen[3] <= seen[4] <= seen[5]

    def test_lowering_theta_keeps_returned_pathways(self):
        rng = random.Random(909)
        graph, stats = random_graph(rng, 40, 110)
        cent = pagerank(graph, DEFAULTS)
        high = discover(graph, stats, cent,
                        ScoringConfig(theta_novelty=0.8, top_k=10_000))
        low = discover(graph, stats, cent,
                       ScoringConfig(theta_novelty=0.4, top_k=10_000))
        assert {pw for pw, _ in high.pathways} <= {pw for pw, _ in low.pathways}


class TestSerialization:
    def test_json_dict_shape(self, pse_chain):
        graph, stats = pse_chain
        config = DEFAULTS.override(theta_novelty=0.0)
        cent = pagerank(graph, config)
        payload = discover(graph, stats, cent, config).to_json_dict(graph)
        assert set(payload) == {"pathways", "metadata"}
        row = payload["pathways"][0]
        assert set(row) == {"entities", "predicates", "layers", "f", "lf",
                            "clc", "ip", "score"}
        assert row["entities"] == ["e0", "e1", "e2"]
        assert row["layers"] == ["physical", "social", "economic"]
        assert payload["metadata"] == {
            "alpha": 0.5, "beta": 0.3, "gamma": 0.2, "theta": 0.0,
            "d_max": 5, "top_k": 10, "fmax_mode": "pathway-max",
            "f_max_used": 1, "candidates_enumerated": 1,
        }

    def test_format_pathways(self, pse_chain):
        graph, stats = pse_chain
        config = DEFAULTS.override(theta_novelty=0.0)
        cent = pagerank(graph, config)
        payload = discover(graph, stats, cent, config).to_json_dict(graph)
        text = format_pathways(payload)
        assert "e0 → e1 → e2" in text
        assert "score=" in text
        assert format_pathways({"pathways": []}).startswith("(no pathways")
