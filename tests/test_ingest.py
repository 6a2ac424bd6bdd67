import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from riskpath import (
    ConfigError,
    EntityMeta,
    IngestError,
    Layer,
    Phase,
    RawTriple,
    aggregate,
    canonicalize,
    normalize_name,
    parse_entity_meta,
    parse_triples,
)
from riskpath.ingest import build_alias_map, load_layer_lexicon, relation_id


def jsonl(*rows):
    return io.StringIO("\n".join(json.dumps(r) if isinstance(r, dict) else r
                                 for r in rows) + "\n")


META = [
    EntityMeta("heatwave", Layer.PHYSICAL, 0.9, aliases=("heat wave", "extreme heat")),
    EntityMeta("water demand", Layer.SOCIAL, 0.6),
    EntityMeta("crop failure", Layer.ECONOMIC, 0.8, aliases=("harvest loss",)),
]


class TestParseTriples:
    def test_single_json_record(self):
        triples, errors = parse_triples(jsonl(
            {"s": "heatwave", "p": "increases", "o": "water demand", "doc": "d1"}))
        assert errors == []
        assert triples == [RawTriple("heatwave", "increases", "water demand", "d1")]

    def test_empty_file(self):
        triples, errors = parse_triples(io.StringIO(""))
        assert triples == [] and errors == []

    def test_missing_object_field_reported(self):
        triples, errors = parse_triples(jsonl(
            {"s": "a", "p": "b", "o": "c", "doc": "d1"},
            {"s": "a", "p": "b", "doc": "d1"},
            {"s": "x", "p": "y", "o": "z", "doc": "d2"},
        ), malformed_tolerance=0.5)
        assert len(triples) == 2
        assert errors == [{"line": 2, "reason": "missing field(s) ['o']"}]

    def test_tolerance_exceeded_fails_hard(self):
        rows = [{"s": "a", "p": "b", "o": "c", "doc": "d"}] * 8 + ["{broken", "{broken"]
        with pytest.raises(IngestError, match="malformed"):
            parse_triples(jsonl(*rows), malformed_tolerance=0.1)

    def test_tolerance_is_strict_inequality(self):
        rows = [{"s": "a", "p": "b", "o": "c", "doc": "d"}] * 9 + ["{broken"]
        triples, errors = parse_triples(jsonl(*rows), malformed_tolerance=0.1)
        assert len(triples) == 9 and len(errors) == 1

    @pytest.mark.parametrize("tolerance", [-1.0, 1.5, float("nan")])
    def test_tolerance_outside_unit_interval_is_config_error(self, tolerance):
        with pytest.raises(ConfigError, match="'malformed_tolerance'"):
            parse_triples(jsonl("{broken"), malformed_tolerance=tolerance)

    def test_phases_parsed(self):
        triples, _ = parse_triples(jsonl(
            {"s": "a", "p": "b", "o": "c", "doc": "d", "phases": ["acute", "chronic"]}))
        assert triples[0].phases == frozenset({Phase.ACUTE, Phase.CHRONIC})

    def test_bad_phase_is_malformed(self):
        _, errors = parse_triples(jsonl(
            {"s": "a", "p": "b", "o": "c", "doc": "d", "phases": ["someday"]}),
            malformed_tolerance=1.0)
        assert len(errors) == 1

    def test_blank_string_fields_rejected(self):
        _, errors = parse_triples(jsonl(
            {"s": "  ", "p": "b", "o": "c", "doc": "d"}), malformed_tolerance=1.0)
        assert errors[0]["line"] == 1

    def test_lone_surrogate_is_malformed(self):
        triples, errors = parse_triples(io.StringIO(
            '{"s": "\\ud800 heat", "p": "b", "o": "c", "doc": "d"}\n'
            '{"s": "a", "p": "b", "o": "c", "doc": "d"}\n'), malformed_tolerance=0.5)
        assert len(triples) == 1
        assert [e["line"] for e in errors] == [1]
        assert "surrogates not allowed" in errors[0]["reason"]

    def test_tsv_format(self):
        stream = io.StringIO(
            "heatwave\tincreases\twater demand\td1\n"
            "heatwave\tstrains\tcrop failure\td2\tacute,chronic\n")
        triples, errors = parse_triples(stream, format="tsv")
        assert errors == []
        assert triples[0] == RawTriple("heatwave", "increases", "water demand", "d1")
        assert triples[1].phases == frozenset({Phase.ACUTE, Phase.CHRONIC})

    def test_tsv_wrong_columns(self):
        _, errors = parse_triples(io.StringIO("a\tb\n"), format="tsv",
                                  malformed_tolerance=1.0)
        assert len(errors) == 1

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            parse_triples(io.StringIO(""), format="xml")


class TestCanonicalize:
    def test_alias_lookup(self):
        triples = [RawTriple("Heat Wave", "increases", "water demand", "d1")]
        result, unregistered = canonicalize(triples, META)
        assert result[0].subject == "heatwave"
        assert unregistered == []

    def test_already_canonical_unchanged(self):
        triples = [RawTriple("heatwave", "increases", "water demand", "d1")]
        result, _ = canonicalize(triples, META)
        assert result[0].subject == "heatwave"
        assert result[0].object == "water demand"

    def test_normalization_pipeline_on_fixture_list(self):
        # expected values derived by applying lowercase -> trim -> collapse
        # whitespace -> alias lookup by hand
        fixtures = [
            ("EXTREME   heat", "heatwave"),        # alias after collapsing
            ("  Harvest Loss ", "crop failure"),   # alias after trim+lower
            ("WATER   DEMAND", "water demand"),    # direct meta name
            ("unknown  thing", "unknown thing"),   # passes through normalized
        ]
        triples = [RawTriple(raw, "p", "heatwave", "d1") for raw, _ in fixtures]
        result, unregistered = canonicalize(triples, META)
        assert [t.subject for t in result] == [want for _, want in fixtures]
        assert unregistered == ["unknown thing"]

    def test_idempotent_on_fixture(self):
        triples = [RawTriple("Heat Wave", "increases", "EXTREME heat", "d1"),
                   RawTriple("mystery", "p", "harvest loss", "d2")]
        once, _ = canonicalize(triples, META)
        twice, _ = canonicalize(once, META)
        assert once == twice

    @given(st.lists(st.text(alphabet="abc XY\t", min_size=1, max_size=12),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_idempotence_property(self, names):
        triples = [RawTriple(n, "p", n, "d") for n in names if n.strip()]
        if not triples:
            return
        once, _ = canonicalize(triples, META)
        twice, _ = canonicalize(once, META)
        assert once == twice

    def test_alias_collision_is_config_error(self):
        bad = META + [EntityMeta("drought", Layer.PHYSICAL, 0.7,
                                 aliases=("heat wave",))]
        with pytest.raises(ConfigError, match="collision"):
            canonicalize([], bad)

    def test_extra_alias_file(self):
        triples = [RawTriple("hw", "p", "water demand", "d1")]
        result, unregistered = canonicalize(triples, META, {"HW": "heatwave"})
        assert result[0].subject == "heatwave"
        assert unregistered == []


class TestAggregate:
    def test_same_triple_two_docs_merges(self):
        triples = [RawTriple("heatwave", "increases", "water demand", "d1"),
                   RawTriple("heatwave", "increases", "water demand", "d2")]
        result = aggregate(triples, META)
        assert len(result.relations) == 1
        assert result.relations[0].doc_ids == frozenset({"d1", "d2"})
        assert result.doc_count == 2

    def test_unregistered_gets_midpoint_severity_via_lexicon(self):
        lexicon = load_layer_lexicon({"flood": "physical"})
        triples = [RawTriple("flash flood", "damages", "water demand", "d1")]
        result = aggregate(triples, META, lexicon=lexicon)
        flood = next(e for e in result.entities if e.id == "flash flood")
        assert flood.layer is Layer.PHYSICAL
        assert flood.severity == 0.5

    def test_unregistered_without_lexicon_rejected_and_dropped(self):
        triples = [RawTriple("mystery", "does", "water demand", "d1"),
                   RawTriple("heatwave", "p", "water demand", "d2")]
        result = aggregate(triples, META)
        names = {e.id for e in result.entities}
        assert "mystery" not in names
        assert any(r["name"] == "mystery" for r in result.rejections)
        assert len(result.relations) == 1
        # doc d1 still counts toward the corpus-wide distinct-doc tally
        assert result.doc_count == 2

    def test_strict_mode_fails(self):
        triples = [RawTriple("mystery", "does", "water demand", "d1")]
        with pytest.raises(IngestError, match="strict"):
            aggregate(triples, META, strict=True)

    def test_permutation_invariance(self):
        rng = random.Random(2)
        names = ["heatwave", "water demand", "crop failure"]
        triples = [
            RawTriple(rng.choice(names), rng.choice("pq"), rng.choice(names),
                      f"d{rng.randint(1, 5)}",
                      frozenset(rng.sample(list(Phase), rng.randint(0, 2))))
            for _ in range(40)
        ]
        base = aggregate(triples, META)
        for seed in range(5):
            shuffled = triples[:]
            random.Random(seed).shuffle(shuffled)
            other = aggregate(shuffled, META)
            assert other.entities == base.entities
            assert other.relations == base.relations
            assert other.doc_count == base.doc_count

    @given(st.lists(
        st.tuples(st.sampled_from(["heatwave", "water demand", "crop failure"]),
                  st.sampled_from(["p", "q"]),
                  st.sampled_from(["heatwave", "water demand", "crop failure"]),
                  st.sampled_from(["d1", "d2", "d3"])),
        min_size=0, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_doc_pair_invariants(self, rows):
        triples = [RawTriple(*row) for row in rows]
        result = aggregate(triples, META)
        pairs = {(t.subject, t.predicate, t.object, t.doc_id) for t in triples}
        assert sum(len(r.doc_ids) for r in result.relations) == len(pairs)
        assert result.doc_count == len({t.doc_id for t in triples})

    def test_relation_ids_stable(self):
        assert relation_id("a", "b", "c") == relation_id("a", "b", "c")
        assert relation_id("a", "b", "c") != relation_id("a", "b", "d")


class TestEntityMetaParsing:
    def test_round_trip(self):
        stream = jsonl(
            {"name": "heatwave", "layer": "physical", "severity": 0.9,
             "aliases": ["heat wave"]},
            {"name": "gdp dip", "layer": "economic", "severity": 0.4},
        )
        meta = parse_entity_meta(stream)
        assert meta[0] == EntityMeta("heatwave", Layer.PHYSICAL, 0.9, ("heat wave",))
        assert meta[1].aliases == ()

    def test_bad_layer(self):
        with pytest.raises(IngestError, match="line 1"):
            parse_entity_meta(jsonl({"name": "x", "layer": "nope", "severity": 0.5}))

    @pytest.mark.parametrize("line", [
        '{"name": "heat \\udc00", "layer": "physical", "severity": 0.5}',
        '{"name": "heat", "layer": "physical", "severity": 0.5, "aliases": ["\\ud800"]}',
        '{"name": "heat", "layer": "physical", "severity": 0.5, "aliases": [3]}',
    ], ids=["surrogate-name", "surrogate-alias", "non-string-alias"])
    def test_bad_name_or_alias_names_line(self, line):
        with pytest.raises(IngestError, match="line 2"):
            parse_entity_meta(io.StringIO(
                '{"name": "x", "layer": "social", "severity": 0.5}\n' + line + "\n"))

    def test_severity_out_of_range(self):
        with pytest.raises((IngestError, ConfigError)):
            parse_entity_meta(jsonl({"name": "x", "layer": "social", "severity": 2}))

    def test_duplicate_meta_name_rejected_at_map_build(self):
        with pytest.raises(ConfigError, match="duplicate"):
            build_alias_map([EntityMeta("x", Layer.SOCIAL, 0.5),
                             EntityMeta("x", Layer.SOCIAL, 0.6)])


class TestNormalizeName:
    @given(st.text(max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, text):
        assert normalize_name(normalize_name(text)) == normalize_name(text)

    def test_examples(self):
        assert normalize_name("  EXTREME   heat ") == "extreme heat"
        assert normalize_name("a\t b\nc") == "a b c"
