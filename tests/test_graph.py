import copy
import gc
import json
import pickle
import random
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from riskpath import (
    CorpusStats,
    Entity,
    GenSpec,
    GraphBuildError,
    KnowledgeGraph,
    Layer,
    Phase,
    Relation,
    SnapshotError,
    ScoringConfig,
    UnknownEntityError,
    build_graph,
    discover,
    generate,
    load_snapshot,
    pagerank,
    save_snapshot,
)
from riskpath.graph import collector_paused
from riskpath.pipeline import PipelineConfig, ingest
from riskpath.syngen import write_corpus
from util import make_entity, random_graph


def rel(rid, s, t, pred="links", docs=("d1",), phases=()):
    return Relation(id=rid, source=s, predicate=pred, target=t,
                    doc_ids=frozenset(docs), phases=frozenset(phases))


class TestLayersAndPhases:
    def test_layer_total_order(self):
        assert Layer.PHYSICAL < Layer.SOCIAL < Layer.ECONOMIC
        assert sorted([Layer.ECONOMIC, Layer.PHYSICAL, Layer.SOCIAL]) == \
            [Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC]

    def test_layer_from_string(self):
        assert Layer.from_string(" Physical ") is Layer.PHYSICAL
        with pytest.raises(ValueError):
            Layer.from_string("celestial")

    def test_phase_from_string(self):
        assert Phase.from_string("ACUTE") is Phase.ACUTE
        with pytest.raises(ValueError):
            Phase.from_string("later")


class TestEntityValidation:
    def test_severity_bounds(self):
        with pytest.raises(GraphBuildError):
            make_entity("a", Layer.PHYSICAL, severity=1.5)
        with pytest.raises(GraphBuildError):
            make_entity("a", Layer.PHYSICAL, severity=-0.1)

    def test_int_severity_stored_as_float_round_trips(self, tmp_path):
        entities = [Entity("a", "a", Layer.PHYSICAL, 1), Entity("b", "b", Layer.SOCIAL, 0)]
        assert [type(e.severity) for e in entities] == [float, float]
        graph = build_graph(entities, [rel("r", "a", "b")])
        save_snapshot(graph, tmp_path / "g.rpkg")
        loaded = load_snapshot(tmp_path / "g.rpkg")
        assert loaded.entities == graph.entities
        assert loaded.entity("a").severity == 1.0

    @pytest.mark.parametrize("severity", [True, False, "x", None],
                             ids=lambda v: repr(v))
    def test_non_number_severity_rejected(self, severity):
        with pytest.raises(GraphBuildError, match="severity must be a number"):
            Entity("a", "a", Layer.PHYSICAL, severity)

    def test_empty_name_rejected(self):
        with pytest.raises(GraphBuildError):
            Entity(id="a", canonical_name="", layer=Layer.SOCIAL, severity=0.5)

    def test_relation_needs_docs(self):
        with pytest.raises(GraphBuildError):
            Relation(id="r", source="a", predicate="p", target="b",
                     doc_ids=frozenset())


class TestRecordTuples:
    def test_replace_and_make_run_the_checks(self):
        relation = rel("r", "a", "b")
        with pytest.raises(GraphBuildError, match="predicate must be non-empty"):
            relation._replace(predicate="")
        with pytest.raises(GraphBuildError, match="doc_ids must be non-empty"):
            relation._replace(doc_ids=[])
        with pytest.raises(GraphBuildError, match="severity 2.0 not in"):
            make_entity("a", Layer.SOCIAL)._replace(severity=2.0)
        with pytest.raises(GraphBuildError, match="canonical_name must be non-empty"):
            Entity._make(["a", "", Layer.SOCIAL, 0.5])
        with pytest.raises(GraphBuildError, match="layer must be a Layer"):
            Entity._make(["a", "a", "social", 0.5])
        coerced = relation._replace(doc_ids=["d2"], phases=[Phase.ACUTE])
        assert coerced.doc_ids == frozenset({"d2"}) and type(coerced.doc_ids) is frozenset
        assert coerced.phases == frozenset({Phase.ACUTE})

    @pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)),
                                            copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_round_trip(self, round_trip):
        entity = Entity("a", "A", Layer.ECONOMIC, 0.25, {"x", "y"})
        relation = rel("r", "a", "b", docs=("d1", "d2"), phases=(Phase.CHRONIC,))
        for record in (entity, relation):
            copied = round_trip(record)
            assert copied == record and type(copied) is type(record)

    def test_equal_to_plain_tuple_and_immutable(self):
        entity = make_entity("a", Layer.PHYSICAL, 0.75)
        assert entity == ("a", "a", Layer.PHYSICAL, 0.75, frozenset())
        relation = rel("r", "a", "b")
        assert relation == ("r", "a", "links", "b", frozenset({"d1"}), frozenset())
        assert relation.triple == ("a", "links", "b")
        with pytest.raises(AttributeError):
            relation.source = "b"
        assert not hasattr(relation, "__dict__")


class TestBuildGraph:
    def test_empty_graph(self):
        graph = build_graph([], [])
        stats = graph.stats()
        assert stats.num_entities == 0
        assert stats.num_relations == 0
        assert stats.doc_count == 0
        assert stats.avg_out_degree == 0.0

    def test_single_edge_adjacency(self):
        a, b = make_entity("A", Layer.PHYSICAL), make_entity("B", Layer.SOCIAL)
        r = rel("r", "A", "B")
        graph = build_graph([a, b], [r])
        assert [f.name for f in fields(graph)] == ["entities", "relations", "doc_count"]
        assert graph.out_neighbors("A") == [("r", "B")]
        assert graph.out_neighbors("A", undirected=True) == [("r", "B")]
        assert graph.out_neighbors("B") == []
        assert graph.out_neighbors("B", undirected=True) == [("r", "A")]

    def test_self_loop_listed_once(self):
        a, b = make_entity("A", Layer.PHYSICAL), make_entity("B", Layer.SOCIAL)
        graph = build_graph([a, b], [rel("loop", "A", "A"), rel("r", "B", "A")])
        assert graph.out_neighbors("A") == [("loop", "A")]
        assert graph.out_neighbors("A", undirected=True) == [("loop", "A"), ("r", "B")]
        assert graph.out_neighbors("B") == [("r", "A")]
        assert graph.out_neighbors("B", undirected=True) == [("r", "A")]

    def test_duplicate_triples_merge_docs(self):
        a, b = make_entity("A", Layer.PHYSICAL), make_entity("B", Layer.SOCIAL)
        r1 = rel("r1", "A", "B", docs=("d1",), phases=(Phase.ACUTE,))
        r2 = rel("r2", "A", "B", docs=("d2",), phases=(Phase.CHRONIC,))
        graph = build_graph([a, b], [r1, r2])
        assert len(graph.relations) == 1
        merged = next(iter(graph.relations.values()))
        assert merged.id == "r1"
        assert merged.doc_ids == frozenset({"d1", "d2"})
        assert merged.phases == frozenset({Phase.ACUTE, Phase.CHRONIC})
        assert graph.doc_count == 2

    def test_dangling_endpoint_names_relation(self):
        a = make_entity("A", Layer.PHYSICAL)
        with pytest.raises(GraphBuildError, match="rx"):
            build_graph([a], [rel("rx", "A", "missing")])

    @pytest.mark.parametrize("relations", [
        [rel("r1", "a", "x", docs=("d1",)), rel("r1", "b", "c", docs=("d2",))],
        [rel("r0", "a", "x"), rel("r1", "a", "x"), rel("r1", "b", "c")],
    ], ids=["two-triples", "merged-triple-and-another"])
    def test_duplicate_relation_id(self, relations):
        entities = [make_entity(e, Layer.PHYSICAL) for e in "abcx"]
        with pytest.raises(GraphBuildError, match="duplicate relation id 'r1'"):
            build_graph(entities, relations)

    def test_repeated_relation_merges_into_itself(self):
        entities = [make_entity(e, Layer.PHYSICAL) for e in "ab"]
        graph = build_graph(entities, [rel("r1", "a", "b"), rel("r1", "a", "b")])
        assert list(graph.relations.values()) == [rel("r1", "a", "b")]

    def test_duplicate_entity_id(self):
        with pytest.raises(GraphBuildError, match="duplicate"):
            build_graph([make_entity("A", Layer.PHYSICAL),
                         make_entity("A", Layer.SOCIAL)], [])

    def test_doc_count_must_cover_union(self):
        a, b = make_entity("A", Layer.PHYSICAL), make_entity("B", Layer.SOCIAL)
        with pytest.raises(GraphBuildError):
            build_graph([a, b], [rel("r", "A", "B", docs=("d1", "d2"))], doc_count=1)
        graph = build_graph([a, b], [rel("r", "A", "B", docs=("d1",))], doc_count=5)
        assert graph.doc_count == 5


class TestOutNeighbors:
    def test_sink_is_empty(self):
        graph = build_graph([make_entity("A", Layer.PHYSICAL)], [])
        assert graph.out_neighbors("A") == []

    def test_sorted_by_target_then_predicate(self):
        entities = [make_entity(x, Layer.PHYSICAL) for x in "ABC"]
        relations = [rel("r2", "A", "C", pred="b"), rel("r1", "A", "B", pred="z"),
                     rel("r3", "A", "C", pred="a")]
        graph = build_graph(entities, relations)
        assert graph.out_neighbors("A") == [("r1", "B"), ("r3", "C"), ("r2", "C")]

    def test_unknown_entity(self):
        graph = build_graph([], [])
        with pytest.raises(UnknownEntityError):
            graph.out_neighbors("ghost")

    def test_undirected_matches_brute_force_scan(self):
        rng = random.Random(7)
        graph, _ = random_graph(rng, 30, 80)
        for eid in graph.entities:
            got = graph.out_neighbors(eid, undirected=True)
            expected = set()
            for rid, r in graph.relations.items():
                if r.source == eid:
                    expected.add((rid, r.target))
                elif r.target == eid:
                    expected.add((rid, r.source))
            assert set(got) == expected
            key = [(n, graph.relations[rid].predicate, rid) for rid, n in got]
            assert key == sorted(key)

    def test_both_modes_match_brute_force_with_loops_and_antiparallel_pairs(self):
        rng = random.Random(17)
        entities = [make_entity(f"n{i}", rng.choice(list(Layer))) for i in range(8)]
        relations = [rel("a1", "n0", "n1", pred="p"), rel("a2", "n1", "n0", pred="p"),
                     rel("a3", "n1", "n0", pred="q"), rel("loop0", "n0", "n0"),
                     rel("loop1", "n1", "n1", pred="a")]
        for i in range(60):  # self-loops allowed; repeated triples merge
            s, t = rng.choice(entities).id, rng.choice(entities).id
            relations.append(rel(f"x{i:02d}", s, t, pred=rng.choice("pqr"),
                                 docs=(f"d{rng.randrange(5)}",)))
        graph = build_graph(entities, relations)
        rels = graph.relations.values()
        assert any(r.source == r.target for r in rels)
        assert any((r.target, r.source) == (q.source, q.target) for r in rels for q in rels
                   if r.source != r.target)
        for eid in graph.entities:
            directed = sorted((r.target, r.predicate, r.id) for r in rels if r.source == eid)
            assert graph.out_neighbors(eid) == [(rid, n) for n, _, rid in directed]
            both = sorted((r.target if r.source == eid else r.source, r.predicate, r.id)
                          for r in rels if eid in (r.source, r.target))
            assert graph.out_neighbors(eid, undirected=True) == [(rid, n) for n, _, rid in both]


class TestGraphStats:
    def test_three_layers_two_edges(self):
        entities = [make_entity("a", Layer.PHYSICAL), make_entity("b", Layer.SOCIAL),
                    make_entity("c", Layer.ECONOMIC)]
        graph = build_graph(entities, [rel("r1", "a", "b"), rel("r2", "b", "c")])
        stats = graph.stats()
        assert stats.layer_counts == {Layer.PHYSICAL: 1, Layer.SOCIAL: 1,
                                      Layer.ECONOMIC: 1}
        assert stats.avg_out_degree == pytest.approx(2 / 3)

    def test_random_graph_matches_recount(self):
        rng = random.Random(11)
        graph, _ = random_graph(rng, 100, 250)
        stats = graph.stats()
        # independent tally over raw relation/entity maps
        by_layer = {layer: 0 for layer in Layer}
        for e in graph.entities.values():
            by_layer[e.layer] += 1
        assert stats.layer_counts == by_layer
        assert sum(by_layer.values()) == stats.num_entities
        docs = set()
        for r in graph.relations.values():
            docs |= r.doc_ids
        assert stats.doc_count == len(docs)
        assert stats.avg_out_degree == len(graph.relations) / len(graph.entities)


class TestAdjacencyInvariant:
    def test_every_relation_in_exactly_one_out_and_in_list(self):
        # out_neighbors lists a relation under its source in both modes and
        # under its target in undirected mode only (a self-loop once), and
        # nowhere else
        rng = random.Random(3)
        base, _ = random_graph(rng, 60, 150)
        loops = [rel(f"loop{i}", eid, eid) for i, eid in enumerate(list(base.entities)[:5])]
        graph = build_graph(base.entities.values(), [*base.relations.values(), *loops])
        for undirected in (False, True):
            owners = {rid: [] for rid in graph.relations}
            for eid in graph.entities:
                pairs = graph.out_neighbors(eid, undirected=undirected)
                for rid, other in pairs:
                    r = graph.relations[rid]
                    assert ((r.source, r.target) == (eid, other)
                            or undirected and (r.target, r.source) == (eid, other))
                    owners[rid].append(eid)
                key = [(n, graph.relations[rid].predicate, rid) for rid, n in pairs]
                assert key == sorted(key)
            for rid, r in graph.relations.items():
                expected = {r.source, r.target} if undirected else {r.source}
                assert owners[rid] == sorted(expected)
            listed = sum(map(len, owners.values()))
            assert listed == (2 * len(graph.relations) - len(loops) if undirected
                              else len(graph.relations))


class TestSnapshot:
    def test_round_trip_empty(self, tmp_path):
        graph = build_graph([], [])
        path = tmp_path / "g.rpkg"
        save_snapshot(graph, path)
        assert load_snapshot(path) == graph

    def test_round_trip_large_random(self, tmp_path):
        rng = random.Random(42)
        graph, _ = random_graph(rng, 1000, 3000, n_docs=50, phase_prob=0.3)
        path = tmp_path / "g.rpkg"
        save_snapshot(graph, path)
        loaded = load_snapshot(path)
        assert loaded == graph
        assert loaded.entities == graph.entities
        assert loaded.relations == graph.relations
        for eid in graph.entities:
            for undirected in (False, True):
                assert (loaded.out_neighbors(eid, undirected=undirected)
                        == graph.out_neighbors(eid, undirected=undirected))
        assert loaded.doc_count == graph.doc_count

    def test_build_is_deterministic_under_permutation(self, tmp_path):
        rng = random.Random(5)
        graph, _ = random_graph(rng, 40, 100)
        entities = list(graph.entities.values())
        relations = list(graph.relations.values())
        rng.shuffle(entities)
        rng.shuffle(relations)
        permuted = build_graph(entities, relations, doc_count=graph.doc_count)
        p1, p2 = tmp_path / "a.rpkg", tmp_path / "b.rpkg"
        save_snapshot(graph, p1)
        save_snapshot(permuted, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_is_load_error(self, tmp_path):
        rng = random.Random(9)
        graph, _ = random_graph(rng, 20, 40)
        path = tmp_path / "g.rpkg"
        save_snapshot(graph, path)
        data = path.read_bytes()
        for cut in (0, 3, 7, len(data) // 2, len(data) - 1):
            truncated = tmp_path / f"cut{cut}.rpkg"
            truncated.write_bytes(data[:cut])
            with pytest.raises(SnapshotError):
                load_snapshot(truncated)

    def test_trailing_garbage_rejected(self, tmp_path):
        graph = build_graph([make_entity("a", Layer.PHYSICAL)], [])
        path = tmp_path / "g.rpkg"
        save_snapshot(graph, path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_bad_magic_and_version(self, tmp_path):
        path = tmp_path / "g.rpkg"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(path)
        graph = build_graph([], [])
        save_snapshot(graph, path)
        data = bytearray(path.read_bytes())
        data[5] = 99  # bump version
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "absent.rpkg")


def _fuzz_snapshot_bytes() -> bytes:
    graph, _ = random_graph(random.Random(30), 30, 60, phase_prob=0.3)
    with tempfile.TemporaryDirectory() as tmp:
        save_snapshot(graph, Path(tmp) / "g.rpkg")
        return (Path(tmp) / "g.rpkg").read_bytes()


_FUZZ_SNAPSHOT = _fuzz_snapshot_bytes()


def _swap_first_two(rows):
    rows[0], rows[1] = rows[1], rows[0]


def _repeat_triple(payload):
    row = list(payload["relations"][-1])
    row[0] += "z"
    payload["relations"].append(row)


def _set(section, field, value, record=0):
    def edit(payload):
        payload[section][record][field] = value
    return edit


_FUZZ_PAYLOAD = json.loads(_FUZZ_SNAPSHOT[6:])
_FIRST_ENTITY = _FUZZ_PAYLOAD["entities"][0][0]
_FIRST_RELATION = _FUZZ_PAYLOAD["relations"][0][0]
_LAST_RELATION = len(_FUZZ_PAYLOAD["relations"]) - 1


class TestSnapshotV2:
    def test_layout_is_header_then_compact_json(self, tmp_path):
        graph = build_graph(
            [Entity("a", "\u00c4 name", Layer.PHYSICAL, 0.25, frozenset({"z", "b"})),
             make_entity("b", Layer.ECONOMIC, 1.0)],
            [rel("r1", "a", "b", docs=("d2", "d1"),
                 phases=(Phase.CHRONIC, Phase.ACUTE))],
            doc_count=3)
        path = tmp_path / "g.rpkg"
        save_snapshot(graph, path)
        payload = {
            "doc_count": 3,
            "entities": [["a", "\u00c4 name", "physical", 0.25, ["b", "z"]],
                         ["b", "b", "economic", 1.0, []]],
            "relations": [["r1", "a", "links", "b", ["d1", "d2"], ["acute", "chronic"]]],
        }
        assert path.read_bytes() == b"RPKG\x00\x02" + json.dumps(
            payload, separators=(",", ":")).encode("ascii")
        assert load_snapshot(path) == graph

    def test_load_shares_equal_sets(self, tmp_path):
        def ent(eid, *aliases):
            return Entity(eid, eid, Layer.SOCIAL, 0.5, frozenset(aliases))

        # equal sets repeat, and unequal ones share their first item
        graph = build_graph(
            [ent("a", "x", "y"), ent("b", "x", "y"), ent("c"), ent("d"), ent("e", "x", "z")],
            [rel("r1", "a", "b", docs=("d1", "d2"), phases=(Phase.ACUTE,)),
             rel("r2", "b", "c", docs=("d2", "d1"), phases=(Phase.ACUTE,)),
             rel("r3", "c", "d", docs=("d1", "d3")),
             rel("r4", "d", "e", docs=("d2",)),
             rel("r5", "e", "a", docs=("d2",), phases=(Phase.CHRONIC,))])
        path = tmp_path / "g.rpkg"
        save_snapshot(graph, path)
        loaded = load_snapshot(path)
        assert loaded == graph
        e, r = loaded.entities, loaded.relations
        assert e["a"].aliases is e["b"].aliases
        assert e["c"].aliases is e["d"].aliases == frozenset()
        assert r["r1"].doc_ids is r["r2"].doc_ids
        assert r["r4"].doc_ids is r["r5"].doc_ids
        assert r["r1"].phases is r["r2"].phases
        assert r["r3"].phases is r["r4"].phases == frozenset()

        # every distinct set is one object, on a graph where most sets repeat
        graph, _ = random_graph(random.Random(5), 300, 900, n_docs=4,
                                max_docs_per_edge=2, phase_prob=0.5)
        save_snapshot(graph, path)
        loaded = load_snapshot(path)
        assert loaded == graph
        for sets in ([x.aliases for x in loaded.entities.values()],
                     [x.doc_ids for x in loaded.relations.values()],
                     [x.phases for x in loaded.relations.values()]):
            assert len(set(map(id, sets))) == len(set(sets)) < len(sets)

    def test_bytes_equal_one_json_dumps_across_write_chunks(self, tmp_path):
        graph, _ = random_graph(random.Random(8), 1100, 2100, phase_prob=0.3)
        path = tmp_path / "g.rpkg"
        save_snapshot(graph, path)
        payload = {
            "doc_count": graph.doc_count,
            "entities": [[e.id, e.canonical_name, e.layer.value, e.severity,
                          sorted(e.aliases)] for e in graph.entities.values()],
            "relations": [[r.id, r.source, r.predicate, r.target, sorted(r.doc_ids),
                           [p.value for p in Phase if p in r.phases]]
                          for r in graph.relations.values()],
        }
        assert path.read_bytes() == b"RPKG\x00\x02" + json.dumps(
            payload, separators=(",", ":")).encode("ascii")

    def test_surrogate_pair_and_escaped_backslash_round_trip(self, tmp_path):
        # saved as the escape pair \ud83c\udf0a and as \\ud800: no lone surrogate
        graph = build_graph([make_entity("\U0001f30a flood", Layer.PHYSICAL),
                             make_entity("\\ud800", Layer.SOCIAL)], [])
        path = tmp_path / "g.rpkg"
        save_snapshot(graph, path)
        assert load_snapshot(path) == graph

    def test_old_version_asks_to_rerun_ingest(self, tmp_path):
        path = tmp_path / "g.rpkg"
        path.write_bytes(_FUZZ_SNAPSHOT[:5] + b"\x01" + _FUZZ_SNAPSHOT[6:])
        with pytest.raises(SnapshotError, match="re-run 'riskpath ingest'"):
            load_snapshot(path)

    @given(cut=st.integers(0, len(_FUZZ_SNAPSHOT)),
           flips=st.lists(st.tuples(st.integers(0, len(_FUZZ_SNAPSHOT) - 1),
                                    st.integers(1, 255)), max_size=4))
    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_snapshot_loads_or_raises_snapshot_error(self, tmp_path, cut, flips):
        data = bytearray(_FUZZ_SNAPSHOT)
        for pos, mask in flips:
            data[pos] ^= mask
        # a fresh file per example, removed when it ends: truncating one path
        # over and over makes each rewrite wait for the disk
        with tempfile.NamedTemporaryFile(dir=tmp_path, suffix=".rpkg") as fh:
            fh.write(bytes(data[:cut]))
            fh.flush()
            try:
                graph = load_snapshot(fh.name)
            except SnapshotError:
                return
        assert isinstance(graph, KnowledgeGraph)

    # message: the SnapshotError text after the path, where it is pinned
    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda p: _swap_first_two(p["entities"]), None,
                     id="entities-out-of-order"),
        pytest.param(lambda p: _swap_first_two(p["relations"]), None,
                     id="relations-out-of-order"),
        pytest.param(lambda p: p["relations"].append(p["relations"][-1]), None,
                     id="repeated-id"),
        pytest.param(_repeat_triple, None, id="repeated-triple"),
        pytest.param(_set("entities", 0, 7), None, id="int-id"),
        pytest.param(_set("entities", 2, "orbital"), "entity record 0 is ill-typed",
                     id="unknown-layer"),
        pytest.param(_set("entities", 3, 1), None, id="int-severity"),
        pytest.param(_set("entities", 3, float("nan")),
                     f"inconsistent snapshot: entity {_FIRST_ENTITY!r}: "
                     f"severity nan not in [0, 1]", id="nan-severity"),
        pytest.param(_set("entities", 3, 1.5), None, id="severity-out-of-range"),
        pytest.param(_set("entities", 4, [None]), "entity record 0 is ill-typed",
                     id="non-string-alias"),
        pytest.param(_set("entities", 1, "\ud800 heat"), None, id="lone-surrogate"),
        pytest.param(_set("relations", 2, ""),
                     f"inconsistent snapshot: relation {_FIRST_RELATION!r}: "
                     f"predicate must be non-empty", id="empty-predicate"),
        pytest.param(_set("relations", 3, "nowhere"), None, id="dangling-target"),
        pytest.param(_set("relations", 4, []), None, id="no-docs"),
        pytest.param(_set("relations", 4, ["d1", 2]), "relation record 0 is ill-typed",
                     id="non-string-doc"),
        pytest.param(_set("relations", 5, ["later"]), None, id="unknown-phase"),
        pytest.param(_set("relations", 5, [["acute"]]), "relation record 0 is ill-typed",
                     id="unhashable-phase"),
        pytest.param(lambda p: p["relations"][0].pop(), "relation record 0 is ill-typed",
                     id="short-row"),
        pytest.param(lambda p: p["entities"].__setitem__(0, "row"),
                     "entity record 0 is ill-typed", id="non-list-row"),
        pytest.param(_set("relations", 5, ["acute", None], record=-1),
                     f"relation record {_LAST_RELATION} is ill-typed", id="last-record"),
        pytest.param(lambda p: p.update(doc_count="5"), None, id="string-doc-count"),
        pytest.param(lambda p: p.update(doc_count=True), None, id="bool-doc-count"),
        pytest.param(lambda p: p.update(doc_count=-1), None, id="negative-doc-count"),
        pytest.param(lambda p: p.update(extra=1), None, id="extra-key"),
        pytest.param(lambda p: p.pop("entities"), None, id="missing-key"),
        pytest.param(lambda p: p.update(entities=p.pop("entities")), None,
                     id="keys-reordered"),
    ])
    def test_ill_formed_payload_rejected(self, tmp_path, edit, message):
        payload = json.loads(_FUZZ_SNAPSHOT[6:])
        edit(payload)
        path = tmp_path / "g.rpkg"
        path.write_bytes(_FUZZ_SNAPSHOT[:6] + json.dumps(
            payload, separators=(",", ":")).encode("ascii"))
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(path)
        if message is not None:
            assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize("payload", [
        b"[" * 200_000,
        b"{" * 200_000,
        b'{"doc_count":' + b"1" * 5000 + b',"entities":[],"relations":[]}',
        b'{"doc_count":0,"entities":[],"relations":[]} ',
        b'\xc3\x84',
        b"",
    ], ids=["deep-array", "deep-object", "huge-int", "trailing-space",
            "non-ascii", "empty"])
    def test_ill_formed_json_rejected(self, tmp_path, payload):
        path = tmp_path / "g.rpkg"
        path.write_bytes(_FUZZ_SNAPSHOT[:6] + payload)
        with pytest.raises(SnapshotError):
            load_snapshot(path)


class TestCorpusStats:
    def test_from_graph_covers_every_relation(self):
        rng = random.Random(13)
        graph, stats = random_graph(rng, 25, 60)
        assert set(stats.edge_doc_index) == set(graph.relations)
        assert stats.doc_count == graph.doc_count
        round_tripped = CorpusStats.from_dict(stats.to_dict())
        assert round_tripped == stats


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector_state(request):
    """Enter the test with the cyclic collector on or off; restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPaused:
    def test_load_snapshot_leaves_state(self, tmp_path, collector_state):
        path = tmp_path / "g.rpkg"
        path.write_bytes(_FUZZ_SNAPSHOT)
        load_snapshot(path)
        assert gc.isenabled() is collector_state

    def test_failed_load_leaves_state(self, tmp_path, collector_state):
        path = tmp_path / "g.rpkg"
        path.write_bytes(_FUZZ_SNAPSHOT[:-1])
        with pytest.raises(SnapshotError):
            load_snapshot(path)
        assert gc.isenabled() is collector_state

    def test_ingest_leaves_state(self, tmp_path, collector_state):
        paths = write_corpus(generate(GenSpec(n_docs=30, seed=4, entities_per_layer=10)),
                             tmp_path / "corpus")
        config = PipelineConfig(triples=str(paths["triples"]),
                                entities=str(paths["entities"]))
        _, _, counts = ingest(config, tmp_path)
        assert counts["relations"] > 0
        assert gc.isenabled() is collector_state

    def test_discover_leaves_state(self, collector_state):
        graph, stats = random_graph(random.Random(5), 30, 80)
        config = ScoringConfig(theta_novelty=0.0)
        result = discover(graph, stats, pagerank(graph, config), config)
        assert result.pathways
        assert gc.isenabled() is collector_state

    def test_nested_pauses_restore_outer_state(self, collector_state):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is collector_state

    def test_no_collection_starts_inside_load(self, tmp_path):
        # a load allocates several container objects per record; with the
        # collector running that starts a collection every few hundred
        graph, _ = random_graph(random.Random(6), 500, 2000, phase_prob=0.3)
        path = tmp_path / "g.rpkg"
        save_snapshot(graph, path)
        starts = []

        def record(phase, info):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not load_snapshot.__code__:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                starts.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(record)
        try:
            loaded = load_snapshot(path)
        finally:
            gc.callbacks.remove(record)
            (gc.enable if was_enabled else gc.disable)()
        assert starts == []
        assert loaded == graph
