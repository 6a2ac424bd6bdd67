"""Triple/metadata parsing, deterministic canonicalization, and aggregation.

The canonicalization pipeline is intentionally boring: lowercase, trim,
collapse internal whitespace, then alias-map lookup. The alias map is a user
supplied artifact (entity metadata aliases plus an optional extra alias
file); names it does not know pass through normalized and are reported as
unregistered. Everything here is a pure function of its full inputs, so
results are independent of parse order or parallelism upstream.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from numbers import Real
from operator import itemgetter
from typing import Iterable, NamedTuple, TextIO

from .errors import ConfigError, IngestError
from .graph import (_PHASE_SETS, _SURROGATE_ESCAPE, Entity, KnowledgeGraph, Layer, Phase,
                    Relation)

DEFAULT_MALFORMED_TOLERANCE = 0.1
TRIPLES_FORMATS = ("jsonl", "tsv")
UNREGISTERED_SEVERITY = 0.5

_WHITESPACE = re.compile(r"\s+")
_TRIPLE_FIELDS = ("s", "p", "o", "doc")


class RawTriple(NamedTuple):
    """One (subject, predicate, object) statement from one document.

    A plain named tuple: it unpacks in field order and compares equal to a
    tuple of the same values.
    """

    subject: str
    predicate: str
    object: str
    doc_id: str
    phases: frozenset[Phase] = frozenset()


_NO_PHASES = RawTriple._field_defaults["phases"]
# the C scanner behind json.loads, without its per-call wrapper
_scan_json = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"  # the whitespace json.loads allows around a value
_triple_values = itemgetter(*_TRIPLE_FIELDS)


class _SharedStrings(dict):
    """``shared[text]`` is ``text.strip()``, as the first equal string
    looked up: one lookup at C speed strips a field and shares it, so a
    parse keeps one object per distinct value. A key that is not a string
    raises TypeError."""

    __slots__ = ()

    def __missing__(self, key: str) -> str:
        if type(key) is not str:
            raise TypeError("not a string")
        stripped = key.strip()
        value = self[key] = self.setdefault(stripped, stripped)
        return value


@dataclass(frozen=True)
class EntityMeta:
    """Canonical entity name with its layer, severity, and known aliases.
    Construction checks each field (ConfigError) and stores the name trimmed,
    a layer given as text parsed, the severity a float, the aliases a tuple."""

    name: str
    layer: Layer
    severity: float
    aliases: tuple[str, ...] = ()

    def __post_init__(self):
        name, layer, severity, aliases = self.name, self.layer, self.severity, self.aliases
        try:
            if not isinstance(name, str) or not name.strip():
                raise ValueError("field 'name' must be a non-empty string")
            if (not isinstance(aliases, (list, tuple))
                    or not all(isinstance(a, str) for a in aliases)):
                raise ValueError("field 'aliases' must be an array of strings")
            for text in (name, *aliases):
                text.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError
            # the comparison is false for a NaN
            if (isinstance(severity, bool) or not isinstance(severity, Real)
                    or not 0 <= severity <= 1):
                raise ValueError(
                    f"field 'severity' must be a number in [0, 1], got {severity!r}")
            layer = layer if isinstance(layer, Layer) else Layer.from_string(layer)
        except ValueError as exc:  # UnicodeEncodeError included
            raise ConfigError(str(exc)) from None
        for key, value in (("name", name.strip()), ("layer", layer),
                           ("severity", float(severity)), ("aliases", tuple(aliases))):
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class CorpusStats:
    """Corpus-level provenance: distinct document count and per-edge doc sets."""

    doc_count: int
    edge_doc_index: dict[str, frozenset[str]]

    @classmethod
    def from_graph(cls, graph: KnowledgeGraph) -> "CorpusStats":
        return cls(
            doc_count=graph.doc_count,
            edge_doc_index={rid: rel.doc_ids for rid, rel in graph.relations.items()},
        )

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusStats":
        return cls(
            doc_count=int(data["doc_count"]),
            edge_doc_index={rid: frozenset(docs)
                            for rid, docs in data["edge_doc_index"].items()},
        )


def normalize_name(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace."""
    return _WHITESPACE.sub(" ", text.strip().lower())


def _parse_phases(values, line: int) -> frozenset[Phase]:
    """The shared phase set (``graph._PHASE_SETS``) that ``values`` name."""
    try:
        phases = {Phase.from_string(v) for v in values}
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad phases: {exc}") from None
    return _PHASE_SETS[tuple(p.value for p in Phase if p in phases)]


def _check_triple_fields(values: tuple, check_encoding: bool) -> None:
    """Raise for the first of s, p, o, doc that is not a non-empty string or,
    with ``check_encoding``, that holds a lone surrogate."""
    for key, value in zip(_TRIPLE_FIELDS, values):
        if not isinstance(value, str) or not value.strip():
            raise ValueError(f"field {key!r} must be a non-empty string")
        if check_encoding:
            value.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError


def _triple_from_json(line_no: int, text: str, share=str) -> RawTriple:
    # str(value) is value: by default the stripped fields are not shared
    return _triple_from_record(line_no, text, json.loads(text), share)


def _triple_from_record(line_no: int, text: str, record, share) -> RawTriple:
    """The triple of ``record``, the JSON value decoded from line ``text``,
    its stripped fields passed through ``share``."""
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    try:
        values = (record["s"], record["p"], record["o"], record["doc"])
    except KeyError:
        missing = [key for key in _TRIPLE_FIELDS if key not in record]
        raise ValueError(f"missing field(s) {missing}") from None
    # a lone surrogate comes only from a non-ASCII line or a \uD800-\uDFFF
    # escape; the fields of any other line need no UTF-8 encode check
    may_hold_surrogate = not text.isascii() or (
        "\\u" in text and _SURROGATE_ESCAPE.search(text))
    try:
        fields = tuple(map(str.strip, values))
    except TypeError:  # a field that is not a string
        fields = ("",)
    if may_hold_surrogate or not all(fields):
        _check_triple_fields(values, may_hold_surrogate)
    phases = record.get("phases")
    if phases is None:
        return RawTriple(*map(share, fields))
    if not isinstance(phases, list):
        raise ValueError("field 'phases' must be an array")
    return RawTriple(*map(share, fields), _parse_phases(phases, line_no))


def _triple_from_tsv(line_no: int, text: str, share) -> RawTriple:
    cols = text.split("\t")
    if len(cols) not in (4, 5):
        raise ValueError(f"expected 4 or 5 tab-separated columns, got {len(cols)}")
    stripped = [c.strip() for c in cols[:4]]
    for name, value in zip(("s", "p", "o", "doc"), stripped):
        if not value:
            raise ValueError(f"column {name!r} is empty")
    phases = _NO_PHASES
    if len(cols) == 5 and cols[4].strip():
        phases = _parse_phases([p for p in cols[4].split(",") if p.strip()], line_no)
    return tuple.__new__(RawTriple, (*map(share, stripped), phases))


def check_malformed_tolerance(tolerance: float) -> None:
    """The malformed fraction a parse accepts must be in [0, 1]."""
    if not 0.0 <= tolerance <= 1.0:
        raise ConfigError(f"'malformed_tolerance' must be in [0, 1], got {tolerance!r}")


def parse_triples(stream: TextIO, format: str = "jsonl",
                  malformed_tolerance: float = DEFAULT_MALFORMED_TOLERANCE,
                  ) -> tuple[list[RawTriple], list[dict]]:
    """Parse a triples stream, collecting malformed records into a report.

    Returns (valid triples in file order, error report rows with ``line`` and
    ``reason``). Blank lines are skipped. If the malformed fraction exceeds
    ``malformed_tolerance``, the whole parse fails with IngestError.

    Each JSONL line is decoded once, by the C scanner behind ``json.loads``.
    A plain record becomes its triple directly: an ASCII line with no
    ``\\u`` escape holding an object whose keys are exactly ``s``, ``p``,
    ``o`` and ``doc`` with non-blank string values; it cannot hold a lone
    surrogate and has no phases. Any other decoded value goes through
    ``_triple_from_record``. A line that does not decode on its own from its
    first character (blank, leading whitespace, a BOM, extra data, a
    defect) goes through ``_triple_from_json``, whose ``json.loads`` words
    the decode error; these two alone produce error reasons. A record nested
    too deeply to decode is a malformed record.

    Equal strings are shared: the triples of one call hold one ``str``
    object per distinct value, whichever path built them.
    """
    if format not in TRIPLES_FORMATS:
        raise ConfigError(f"unknown triples format {format!r}")
    check_malformed_tolerance(malformed_tolerance)
    jsonl = format == "jsonl"
    parse_one = _triple_from_json if jsonl else _triple_from_tsv
    share = _SharedStrings().__getitem__

    triples: list[RawTriple] = []
    errors: list[dict] = []
    for line_no, line in enumerate(stream, start=1):
        try:
            if jsonl:
                try:
                    record, end = _scan_json(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = None  # parse_one decodes it again to word the error
                if end is not None and not line[end:].strip(_JSON_SPACE):
                    try:
                        s, p, o, doc = map(share, _triple_values(record))
                        plain = (len(record) == 4 and s and p and o and doc
                                 and line.isascii() and "\\u" not in line)
                    except (KeyError, TypeError):  # not four string fields
                        plain = False
                    triples.append(tuple.__new__(RawTriple, (s, p, o, doc, _NO_PHASES))
                                   if plain else
                                   _triple_from_record(line_no, line, record, share))
                    continue
            if line.strip():
                triples.append(parse_one(line_no, line, share))
        except (ValueError, RecursionError) as exc:
            errors.append({"line": line_no, "reason": str(exc)})

    total = len(triples) + len(errors)
    if total and len(errors) / total > malformed_tolerance:
        raise IngestError(
            f"{len(errors)} of {total} records malformed "
            f"({len(errors) / total:.1%} > {malformed_tolerance:.1%} tolerance); "
            f"first error at line {errors[0]['line']}: {errors[0]['reason']}")
    return triples, errors


def _meta_by_name(meta: Iterable[EntityMeta]) -> dict[str, EntityMeta]:
    """The entries by name, in order; a name given twice is a ConfigError."""
    by_name: dict[str, EntityMeta] = {}
    for entry in meta:
        if entry.name in by_name:
            raise ConfigError(f"duplicate entity meta name {entry.name!r}")
        by_name[entry.name] = entry
    return by_name


def build_alias_map(meta: Iterable[EntityMeta],
                    extra_aliases: dict[str, str] | None = None) -> dict[str, str]:
    """Normalized surface form -> canonical name. Collisions are config errors."""
    alias_map: dict[str, str] = {}

    def put(surface: str, canonical: str, origin: str):
        key = normalize_name(surface)
        if not key:
            raise ConfigError(f"{origin}: empty alias for {canonical!r}")
        existing = alias_map.get(key)
        if existing is not None and existing != canonical:
            raise ConfigError(
                f"alias collision: {key!r} maps to both {existing!r} and "
                f"{canonical!r} ({origin})")
        alias_map[key] = canonical

    for entry in _meta_by_name(meta).values():
        put(entry.name, entry.name, "meta name")
        for alias in entry.aliases:
            put(alias, entry.name, f"alias of {entry.name!r}")
    for alias, canonical in (extra_aliases or {}).items():
        put(alias, canonical, "alias file")
    return alias_map


def canonicalize(triples: Iterable[RawTriple], meta: Iterable[EntityMeta],
                 extra_aliases: dict[str, str] | None = None,
                 ) -> tuple[list[RawTriple], list[str]]:
    """Replace subject/object surface forms with canonical names.

    Names with no alias-map entry pass through normalized and are reported
    back as unregistered (sorted, deduplicated). Idempotent by construction:
    canonical names map to themselves. A ``RawTriple`` that canonicalizing
    leaves unchanged (its subject and object resolve to equal strings and
    its predicate has no surrounding whitespace) is returned as it is; any
    other record becomes a new ``RawTriple``.
    """
    alias_map = build_alias_map(meta, extra_aliases)
    unregistered: set[str] = set()
    resolved: dict[str, str] = {}  # surface form -> canonical name

    def resolve(name: str) -> str:
        key = normalize_name(name)
        canonical = alias_map.get(key)
        if canonical is None:
            unregistered.add(key)
            canonical = key
        resolved[name] = canonical
        return canonical

    result: list[RawTriple] = []
    append = result.append
    for triple in triples:
        s, p, o, doc_id, phases = triple
        canonical_s = resolved.get(s) or resolve(s)
        canonical_o = resolved.get(o) or resolve(o)
        stripped = p.strip()
        if (stripped is p and canonical_s == s and canonical_o == o
                and type(triple) is RawTriple):
            append(triple)
        else:
            append(tuple.__new__(RawTriple, (canonical_s, stripped, canonical_o,
                                             doc_id, phases)))
    return result, sorted(unregistered)


def load_layer_lexicon(data: dict[str, str]) -> list[tuple[str, Layer]]:
    """Fallback keyword -> layer rules, kept in file order (first match wins);
    a blank keyword, which would match every name, is a ConfigError."""
    rules = []
    for keyword, layer in data.items():
        key = normalize_name(keyword)
        if not key:
            raise ConfigError(f"layer lexicon: blank keyword {keyword!r}")
        try:
            rules.append((key, Layer.from_string(layer)))
        except ValueError as exc:
            raise ConfigError(f"layer lexicon: {exc}") from None
    return rules


def relation_id(subject: str, predicate: str, object_: str) -> str:
    """Stable opaque id derived from the triple content."""
    digest = hashlib.sha1(
        "\x1f".join((subject, predicate, object_)).encode("utf-8")).hexdigest()
    return "r" + digest[:16]


@dataclass
class AggregateResult:
    entities: list[Entity]
    relations: list[Relation]
    doc_count: int
    rejections: list[dict] = field(default_factory=list)


def aggregate(triples: Iterable[RawTriple], meta: Iterable[EntityMeta],
              lexicon: list[tuple[str, Layer]] | None = None,
              strict: bool = False) -> AggregateResult:
    """Fold canonical triples into build-ready entities/relations plus the
    corpus-wide count of distinct documents.

    One entity per distinct canonical name appearing in the triples; layer
    and severity come from metadata. Unregistered names fall back to the
    layer lexicon with a neutral severity of 0.5, else they are rejected and
    their triples dropped (a hard failure in strict mode). One relation per
    (s, p, o) with unioned doc ids and phases. The result is invariant under
    permutation of the input triples.
    """
    triples = list(triples)
    meta_by_name = _meta_by_name(meta)
    lexicon = lexicon or []

    # doc ids and phases per distinct (s, p, o); the rest works on these
    grouped: dict[tuple[str, str, str], tuple[set[str], set[Phase]]] = {}
    for s, p, o, doc_id, phases in triples:
        group = grouped.get((s, p, o))
        if group is None:
            group = grouped[s, p, o] = (set(), set())
        group[0].add(doc_id)
        if phases:
            group[1].update(phases)

    names = sorted({name for s, _, o in grouped for name in (s, o)})
    entities: dict[str, Entity] = {}
    rejections: list[dict] = []
    for name in names:
        entry = meta_by_name.get(name)
        if entry is not None:
            entities[name] = Entity(
                id=name, canonical_name=name, layer=entry.layer,
                severity=entry.severity, aliases=frozenset(entry.aliases))
            continue
        layer = next((lay for keyword, lay in lexicon if keyword in name), None)
        if layer is None:
            rejections.append({
                "name": name,
                "reason": "unregistered entity with no layer-lexicon match",
            })
        else:
            entities[name] = Entity(
                id=name, canonical_name=name, layer=layer,
                severity=UNREGISTERED_SEVERITY, aliases=frozenset())
    if rejections and strict:
        raise IngestError(
            f"{len(rejections)} unresolvable entities in strict mode; "
            f"first: {rejections[0]['name']!r}")
    if rejections:
        rejected = {row["name"] for row in rejections}
        dropped = sum(s in rejected or o in rejected for s, _, o, _, _ in triples)
        rejections.append({
            "name": None,
            "reason": f"{dropped} triples dropped due to rejected endpoints",
        })

    relations = [
        Relation(id=relation_id(s, p, o), source=s, predicate=p, target=o,
                 doc_ids=frozenset(docs), phases=frozenset(phases))
        for (s, p, o), (docs, phases) in sorted(grouped.items())
        if s in entities and o in entities
    ]
    doc_ids = set().union(*(docs for docs, _ in grouped.values()))
    return AggregateResult(
        entities=list(entities.values()),
        relations=relations,
        doc_count=len(doc_ids),
        rejections=rejections,
    )


# --- metadata file parsing -------------------------------------------------

def parse_entity_meta(stream: TextIO) -> list[EntityMeta]:
    """Entity metadata JSONL: name, layer, severity, optional aliases, each
    checked by ``EntityMeta``; any defect names its line."""
    entries = []
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not a JSON object")
            entries.append(EntityMeta(name=record["name"], severity=record["severity"],
                                      layer=record["layer"],
                                      aliases=record.get("aliases", [])))
        except (KeyError, ValueError, TypeError, RecursionError, ConfigError) as exc:
            raise IngestError(f"entity metadata line {line_no}: {exc}") from None
    return entries

