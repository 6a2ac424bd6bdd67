import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from riskpath import (
    ConfigError,
    EntityMeta,
    GenSpec,
    IngestError,
    Layer,
    Phase,
    PlantedChain,
    RawTriple,
    aggregate,
    canonicalize,
    generate,
    normalize_name,
    parse_entity_meta,
    parse_triples,
)
import riskpath.ingest as ingest_module
from riskpath.ingest import (_triple_from_json, build_alias_map, load_layer_lexicon,
                             relation_id)
from riskpath.pipeline import PipelineConfig, ingest


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

    def test_non_string_phase_is_malformed(self):
        _, errors = parse_triples(jsonl(
            {"s": "a", "p": "b", "o": "c", "doc": "d", "phases": ["acute", 1]}),
            malformed_tolerance=1.0)
        assert errors == [{"line": 1, "reason": "bad phases: unknown phase 1; expected "
                                                "one of ['acute', 'subacute', 'chronic']"}]

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


# (line, reason written to parse_errors.jsonl); the first defect of a line
# in field order s, p, o, doc is the one reported
REASON_CASES = {
    "broken-json": ('{broken',
                    "Expecting property name enclosed in double quotes: line 1 column 2 "
                    "(char 1)"),
    "utf8-bom": ('\ufeff{"s": "a", "p": "b", "o": "c", "doc": "d"}',
                 "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "array-record": ('["a", "b", "c", "d"]', "record is not a JSON object"),
    "string-record": ('"a b c d"', "record is not a JSON object"),
    "missing-fields": ('{"s": "a", "doc": "d"}', "missing field(s) ['p', 'o']"),
    "non-string": ('{"s": 1, "p": "b", "o": "c", "doc": "d"}',
                   "field 's' must be a non-empty string"),
    "null": ('{"s": "a", "p": "b", "o": null, "doc": "d"}',
             "field 'o' must be a non-empty string"),
    "blank": ('{"s": "a", "p": " \\t ", "o": "c", "doc": "d"}',
              "field 'p' must be a non-empty string"),
    "empty": ('{"s": "a", "p": "b", "o": "c", "doc": ""}',
              "field 'doc' must be a non-empty string"),
    "escaped-surrogate": ('{"s": "\\ud800 heat", "p": "b", "o": "c", "doc": "d"}',
                          "'utf-8' codec can't encode character '\\ud800' in position 0: "
                          "surrogates not allowed"),
    "escaped-upper-surrogate": ('{"s": "a", "p": "b", "o": "c", "doc": "d\\uDFFF"}',
                                "'utf-8' codec can't encode character '\\udfff' in "
                                "position 1: surrogates not allowed"),
    "raw-surrogate": ('{"s": "a", "p": "b\ud800", "o": "c", "doc": "d"}',
                      "'utf-8' codec can't encode character '\\ud800' in position 1: "
                      "surrogates not allowed"),
    "blank-then-surrogate": ('{"s": " ", "p": "\\ud800", "o": "c", "doc": "d"}',
                             "field 's' must be a non-empty string"),
    "surrogate-then-blank": ('{"s": "\\ud800", "p": "", "o": "c", "doc": "d"}',
                             "'utf-8' codec can't encode character '\\ud800' in "
                             "position 0: surrogates not allowed"),
    "non-string-then-surrogate": ('{"s": "a", "p": 5, "o": "c\\ud800", "doc": "d"}',
                                  "field 'p' must be a non-empty string"),
    "phases-not-list": ('{"s": "a", "p": "b", "o": "c", "doc": "d", "phases": "acute"}',
                        "field 'phases' must be an array"),
    "unknown-phase": ('{"s": "a", "p": "b", "o": "c", "doc": "d", "phases": ["someday"]}',
                      "bad phases: unknown phase 'someday'; expected one of "
                      "['acute', 'subacute', 'chronic']"),
}


class TestParseErrorReasons:
    @pytest.mark.parametrize("line, reason", REASON_CASES.values(), ids=REASON_CASES.keys())
    def test_reason(self, line, reason):
        triples, errors = parse_triples(io.StringIO(
            '{"s": "a", "p": "b", "o": "c", "doc": "d"}\n' + line + "\n"),
            malformed_tolerance=1.0)
        assert triples == [RawTriple("a", "b", "c", "d")]
        assert errors == [{"line": 2, "reason": reason}]

    def test_non_ascii_line_is_valid(self):
        triples, errors = parse_triples(io.StringIO(
            '{"s": "  Hitzewelle ", "p": "erh\u00f6ht", "o": "\u6c34\u9700\u6c42", '
            '"doc": "d\u00e9", "phases": ["Acute"]}\n'
            '{"s": "\u00e9t\u00e9 sec", "p": "b", "o": "c\\u00e9", "doc": "\\\\ud800"}\n'))
        assert errors == []
        assert triples == [
            RawTriple("Hitzewelle", "erh\u00f6ht", "\u6c34\u9700\u6c42", "d\u00e9",
                      frozenset({Phase.ACUTE})),
            RawTriple("\u00e9t\u00e9 sec", "b", "c\u00e9", "\\ud800"),
        ]


def _share_counts(triples) -> tuple[int, int]:
    """(str objects, distinct str values) across the four string fields."""
    fields = [value for triple in triples for value in triple[:4]]
    return len(set(map(id, fields))), len(set(fields))


class TestSharedStrings:
    @pytest.fixture(scope="class")
    def rows(self):
        return generate(GenSpec(n_docs=5000, seed=7, planted_chains=(
            PlantedChain.parse("P,S,E,S,E:1"),))).triples

    @pytest.mark.parametrize("path", ["jsonl-plain", "jsonl-record", "tsv"])
    def test_one_object_per_distinct_value(self, rows, path):
        if path == "tsv":
            text = "".join("\t".join((r["s"], r["p"], r["o"], r["doc"], "acute")) + "\n"
                           for r in rows)
        else:  # a phases key sends every line through _triple_from_record
            extra = {"phases": ["acute"]} if path == "jsonl-record" else {}
            text = "".join(json.dumps({**r, **extra}, sort_keys=True) + "\n" for r in rows)
        triples, errors = parse_triples(io.StringIO(text), "tsv" if path == "tsv" else "jsonl")
        assert errors == [] and len(triples) == 57_344
        assert _share_counts(triples) == (5_451, 5_451)
        # one phase-set object, not one per record
        assert len({id(triple.phases) for triple in triples}) == 1

    def test_paths_share_one_object(self):
        # longer than one character: CPython keeps one object per 1-char string
        triples, errors = parse_triples(jsonl(
            {"s": " heat ", "p": "drives", "o": "demand", "doc": "d01"},
            {"s": "heat", "p": "drives", "o": "demand", "doc": "d01", "phases": ["acute"]},
            ' {"s": "heat", "p": "drives", "o": "demand", "doc": "d01"}',
            {"s": "\u00e9t\u00e9", "p": "drives", "o": "heat", "doc": "d01"}))
        assert errors == []
        assert _share_counts(triples) == (5, 5)

    def test_equal_phase_sets_share_one_object(self):
        triples, errors = parse_triples(jsonl(
            {"s": "heat", "p": "drives", "o": "demand", "doc": "d01", "phases": ["acute"]},
            {"s": "heat", "p": "drives", "o": "demand", "doc": "d02", "phases": [" ACUTE"]},
            {"s": "heat", "p": "drives", "o": "demand", "doc": "d03",
             "phases": ["chronic", "acute"]},
            {"s": "heat", "p": "drives", "o": "demand", "doc": "d04",
             "phases": ["acute", "chronic", "acute"]}))
        tsv, tsv_errors = parse_triples(io.StringIO(
            "heat\tdrives\tdemand\td05\tchronic,acute\n"
            "heat\tdrives\tdemand\td06\tacute\n"), "tsv")
        assert errors == tsv_errors == []
        phases = [triple.phases for triple in triples + tsv]
        assert phases == [frozenset({Phase.ACUTE})] * 2 + [
            frozenset({Phase.ACUTE, Phase.CHRONIC})] * 3 + [frozenset({Phase.ACUTE})]
        assert len(set(map(id, phases))) == 2


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

    def test_unchanged_record_is_returned_as_is(self):
        triples = [RawTriple("heatwave", "increases", "water demand", "d1"),
                   RawTriple("unknown thing", "p", "crop failure", "d2",
                             frozenset({Phase.ACUTE}))]
        result, _ = canonicalize(triples, META)
        assert all(out is raw for out, raw in zip(result, triples))

    @pytest.mark.parametrize("raw, want", [
        (("Heat Wave", "increases", "water demand", "d1"),
         ("heatwave", "increases", "water demand", "d1")),
        (("heatwave", "increases", "harvest loss", "d1"),
         ("heatwave", "increases", "crop failure", "d1")),
        (("heatwave", " increases ", "water demand", "d1"),
         ("heatwave", "increases", "water demand", "d1")),
    ], ids=["subject-alias", "object-alias", "predicate-strip"])
    def test_changed_record_is_a_new_raw_triple(self, raw, want):
        triple = RawTriple(*raw)
        [result], _ = canonicalize([triple], META)
        assert result is not triple and type(result) is RawTriple
        assert result == (*want, frozenset())

    def test_plain_tuple_becomes_a_raw_triple(self):
        row = ("heatwave", "increases", "water demand", "d1", frozenset())
        [result], _ = canonicalize([row], META)
        assert type(result) is RawTriple and result == row


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

    @pytest.mark.parametrize("layer", [1, None, ["physical"]])
    def test_non_string_layer(self, layer):
        with pytest.raises(IngestError, match="line 1: unknown layer"):
            parse_entity_meta(jsonl({"name": "x", "layer": layer, "severity": 0.5}))

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
        with pytest.raises(IngestError, match="line 1"):
            parse_entity_meta(jsonl({"name": "x", "layer": "social", "severity": 2}))

    @pytest.mark.parametrize("severity", [
        '"0.5"', "true", "false", "null", "NaN", "Infinity", "-0.1", "1.5", "[0.5]",
    ])
    def test_severity_must_be_a_number_in_range(self, severity):
        # the Entity constructor rejects the same values; here they name the line
        line = '{"name": "y", "layer": "social", "severity": %s}' % severity
        with pytest.raises(IngestError, match="line 2: field 'severity' must be"):
            parse_entity_meta(io.StringIO(
                '{"name": "x", "layer": "social", "severity": 0.5}\n' + line + "\n"))

    @pytest.mark.parametrize("severity", ["0", "1", "0.25", "1e-3"])
    def test_severity_bounds_and_ints_accepted(self, severity):
        line = '{"name": "x", "layer": "social", "severity": %s}\n' % severity
        meta = parse_entity_meta(io.StringIO(line))
        assert meta[0].severity == float(severity)
        assert type(meta[0].severity) is float

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


# Surface forms the golden corpus writes in place of a canonical name: case
# and whitespace variants (one non-ASCII), entity-metadata aliases, alias-file
# entries, and unregistered names that the layer lexicon places (flood,
# market) or not (mystery).
GOLDEN_VARIANTS = ("  PHY-0003 ", "Migration   WAVE", "HEAT dome", "soc-0002\u00a0",
                   "Coastal Flood Zone", "market PANIC", "mystery factor")
GOLDEN_META_ALIASES = {"soc-0004": ["migration wave"], "eco-0001": ["Grid Stress"]}
GOLDEN_ALIAS_FILE = {"Heat Dome": "phy-0001", "GRID stress ": "eco-0001"}
GOLDEN_LEXICON = {"flood": "physical", "market": "economic"}
TSV_MALFORMED = ("a\tb\tc", "a\tb\tc\td\tacute\textra", "a\t \tc\td",
                 "a\tb\tc\td\tsomeday", "\tb\tc\td")

# sha256 of (graph.rpkg, rejections.jsonl, parse_errors.jsonl) per format;
# both formats carry the same valid triples
GOLDEN_SHA256 = {
    "jsonl": ("3504f3d4bac9e6beb638e44a84f2786de99e9454d037986a843fc017074e5832",
              "5507d9a9e0446704707bdb762f23b8bc3e9bb6199fffafeec81f305ba33dd8c4",
              "3791ad08e2d7f86e1399558b89bdbf876f36f86dc4c15c95e6906394bbe266f5"),
    "tsv": ("3504f3d4bac9e6beb638e44a84f2786de99e9454d037986a843fc017074e5832",
            "5507d9a9e0446704707bdb762f23b8bc3e9bb6199fffafeec81f305ba33dd8c4",
            "5d39cefca5ca3a4ca38a9ace70124df62a64e5f07b1cbf4e6f9972f45f535931"),
}


def _golden_corpus(directory, fmt: str) -> PipelineConfig:
    """A seeded syngen corpus with surface-form variants, phases and one
    malformed line of each kind, written in ``fmt``."""
    result = generate(GenSpec(n_docs=80, seed=23, entities_per_layer=20,
                              background_noise=1.5,
                              planted_chains=(PlantedChain.parse("P,S,E:2"),)))
    lines = []
    for i, row in enumerate(result.triples):
        s, o = row["s"], row["o"]
        if i % 9 == 0:
            s = GOLDEN_VARIANTS[i // 9 % len(GOLDEN_VARIANTS)]
        if i % 13 == 5:
            o = GOLDEN_VARIANTS[i // 13 % len(GOLDEN_VARIANTS)]
        phases = (["acute"] if i % 5 == 0 else []) + (["Chronic"] if i % 7 == 0 else [])
        if fmt == "jsonl":
            record = {"s": s, "p": row["p"], "o": o, "doc": row["doc"]}
            if phases:
                record["phases"] = phases
            lines.append(json.dumps(record, ensure_ascii=False))
        else:
            lines.append("\t".join([s, row["p"], o, row["doc"]] + [",".join(phases)] * bool(phases)))
    malformed = ([line for name, (line, _) in REASON_CASES.items() if name != "raw-surrogate"]
                 if fmt == "jsonl" else list(TSV_MALFORMED))
    for j, line in enumerate(malformed):
        lines.insert(17 + 23 * j, line)

    directory.mkdir()
    triples = directory / f"triples.{fmt}"
    triples.write_text("\n".join(lines) + "\n", encoding="utf-8")
    entities = directory / "entities.jsonl"
    entities.write_text("".join(
        json.dumps(dict(row, aliases=GOLDEN_META_ALIASES.get(row["name"], []))) + "\n"
        for row in result.entities), encoding="utf-8")
    aliases = directory / "aliases.json"
    aliases.write_text(json.dumps(GOLDEN_ALIAS_FILE), encoding="utf-8")
    lexicon = directory / "lexicon.json"
    lexicon.write_text(json.dumps(GOLDEN_LEXICON), encoding="utf-8")
    return PipelineConfig(triples=str(triples), entities=str(entities),
                          triples_format=fmt, aliases=str(aliases),
                          layer_lexicon=str(lexicon))


class TestGoldenIngest:
    @pytest.mark.parametrize("fmt", ("jsonl", "tsv"))
    def test_output_bytes_pinned(self, tmp_path, fmt):
        config = _golden_corpus(tmp_path / "corpus", fmt)
        workdir = tmp_path / "work"
        workdir.mkdir()
        _, digest, counts = ingest(config, workdir)
        assert counts == {
            "entities": 60, "relations": 212, "doc_count": 80, "rejections": 2,
            "unregistered": 3, "parse_errors": {"jsonl": 16, "tsv": 5}[fmt]}
        digests = tuple(hashlib.sha256((workdir / name).read_bytes()).hexdigest()
                        for name in ("graph.rpkg", "rejections.jsonl", "parse_errors.jsonl"))
        assert digests == GOLDEN_SHA256[fmt]
        assert digest == digests[0]


# --- the direct decode of plain JSONL records ----------------------------------

def _parse_line_by_line(text: str) -> tuple[list[RawTriple], list[dict]]:
    """parse_triples as it reads without its direct decode: every line
    through _triple_from_json."""
    triples, errors = [], []
    for line_no, line in enumerate(io.StringIO(text), start=1):
        if not line.strip():
            continue
        try:
            triples.append(_triple_from_json(line_no, line))
        except (ValueError, RecursionError) as exc:
            errors.append({"line": line_no, "reason": str(exc)})
    return triples, errors


_FIELD_VALUES = st.one_of(
    st.text(alphabet="abZ-. \t", max_size=5),
    st.sampled_from([" Heat  Wave ", "\u00e9t\u00e9", "\u6c34", "\ud800", "d\udfff",
                     "\\u00e9", " x"]),
    st.none(), st.integers(-1, 2), st.just(["a"]))


@st.composite
def _triples_line(draw) -> str:
    """One line of a triples stream: a record, plain or not, or a defect."""
    kind = draw(st.sampled_from(["record"] * 4 + ["defect", "blank", "deep"]))
    if kind == "defect":
        return draw(st.sampled_from([line for line, _ in REASON_CASES.values()]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t \r", "\r"]))
    if kind == "deep":
        return "[" * 3000 + "]" * 3000
    keys = draw(st.permutations(["s", "p", "o", "doc"]))
    record = {key: draw(_FIELD_VALUES) if draw(st.booleans()) else f"{key}-value"
              for key in keys[:draw(st.integers(2, 4))]}
    if draw(st.booleans()):
        record["phases"] = draw(st.sampled_from(
            [[], ["acute"], ["Chronic", "acute"], ["someday"], "acute", None]))
    if draw(st.booleans()):
        record["x"] = 1
    line = json.dumps(record, ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from([(", ", ": "), (",", ":")])))
    if draw(st.booleans()):
        line = '{"s": "first", ' + line[1:]  # a repeated key: the last one counts
    return (draw(st.sampled_from(["", "", " ", "\t", "\ufeff"])) + line
            + draw(st.sampled_from(["", "", " ", "\r"])))


class TestDirectDecode:
    @given(lines=st.lists(_triples_line(), max_size=12),
           end=st.sampled_from(["\n", ""]))
    @settings(max_examples=300, deadline=None)
    def test_matches_triple_from_json_line_by_line(self, lines, end):
        text = "\n".join(lines) + end
        triples, errors = parse_triples(io.StringIO(text), malformed_tolerance=1.0)
        expected_triples, expected_errors = _parse_line_by_line(text)
        assert all(type(t) is RawTriple for t in triples)
        assert triples == expected_triples
        assert [t.phases for t in triples] == [t.phases for t in expected_triples]
        assert errors == expected_errors

    def test_each_line_is_decoded_once(self, monkeypatch):
        loads, checked = [], []
        real_loads, real_check = json.loads, ingest_module._triple_from_record
        monkeypatch.setattr(ingest_module.json, "loads",
                            lambda text: loads.append(text) or real_loads(text))
        monkeypatch.setattr(ingest_module, "_triple_from_record",
                            lambda *args: checked.append(args[0]) or real_check(*args))
        triples, errors = parse_triples(io.StringIO(
            '{"s": " a ", "p": "b", "o": "c", "doc": "d"}\n'
            '{"doc":"d","o":"c","p":"b","s":"a"}\n'
            '{"s": "a", "p": "b", "o": "c", "doc": "d"} \r\n'
            '{"s": "a", "p": "b", "o": "c", "doc": "d", "phases": ["acute"]}\n'
            '{"s": "\u00e9", "p": "b", "o": "c", "doc": "d"}\n'
            ' {"s": "a", "p": "b", "o": "c", "doc": "d"}\n'
            '{"s": "a", "p": \n'
            '{"s": "a", "p": "b", "o": "c", "doc": "d"}'), malformed_tolerance=1.0)
        plain = RawTriple("a", "b", "c", "d")
        assert triples == [plain] * 3 + [plain._replace(phases=frozenset({Phase.ACUTE})),
                                         plain._replace(subject="\u00e9"), plain, plain]
        assert [e["line"] for e in errors] == [7]
        # phases and a non-ASCII field: decoded once, then checked field by field;
        # leading whitespace and a decode error: json.loads decodes it again
        assert checked == [4, 5, 6]
        assert [text[:3] for text in loads] == [' {"', '{"s']

    @pytest.mark.parametrize("line", [
        "[" * 100_000 + "]" * 100_000,
        '{"s": ' + "[" * 100_000 + "]" * 100_000 + ', "p": "b", "o": "c", "doc": "d"}',
        '{"s": "\\u00e9", "p": ' + '{"a": ' * 100_000 + "1" + "}" * 100_000 + "}",
    ], ids=["array", "nested-field", "nested-field-escaped"])
    def test_deep_nesting_is_a_malformed_record(self, line):
        triples, errors = parse_triples(io.StringIO(
            '{"s": "a", "p": "b", "o": "c", "doc": "d"}\n' + line + "\n"),
            malformed_tolerance=1.0)
        assert triples == [RawTriple("a", "b", "c", "d")]
        assert [e["line"] for e in errors] == [2]
        assert errors[0]["reason"].startswith("maximum recursion depth exceeded")

    def test_deep_entity_meta_line_names_the_line(self):
        with pytest.raises(IngestError, match="entity metadata line 2: maximum recursion"):
            parse_entity_meta(io.StringIO(
                '{"name": "x", "layer": "social", "severity": 0.5}\n'
                + "[" * 100_000 + "]" * 100_000 + "\n"))
