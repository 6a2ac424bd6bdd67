"""Typed, immutable-after-build knowledge graph of entities and relations.

Entities live on one of three layers (physical / social / economic), relations
are directed labeled edges carrying document provenance and optional temporal
phase tags. The graph is built once from validated inputs and is read-only
afterwards.

Snapshot format (version 2)
---------------------------
A 6-byte header, magic ``b"RPKG"`` then the version as a big-endian u16,
followed by one JSON document (keys in this order, compact separators,
ASCII escapes)::

    {"doc_count": int,
     "entities":  [[id, canonical_name, layer, severity, [aliases]], ...],
     "relations": [[id, source, predicate, target, [doc ids], [phases]], ...]}

Records are in id order, aliases and doc ids sorted, phases in ``Phase``
order; layers and phases are stored by value. The same graph always gives
the same bytes. The graph holds no adjacency index to store: ``load_snapshot``
rebuilds it through ``build_graph``, which checks every cross-reference.
Any truncation, trailing bytes, ill-typed or misordered record, or repeated
triple raises SnapshotError.

Loading pauses CPython's cyclic garbage collector (``collector_paused``).
Decoding and building allocate several container objects per record, and
with the collector running that starts a collection every few hundred of
them. Each one rescans the records decoded so far and frees nothing: these
objects form no reference cycles, so reference counting frees them. Ingest
and discovery are the other two allocation bursts run under the same pause.
A loaded record is one tuple object beside its frozensets, and records
share equal sets: relations share the eight possible phase sets, and a load
builds one frozenset per distinct saved alias list and doc-id list. So the
collection that the pause leaves to the caller has few objects per record
to scan.
"""

from __future__ import annotations

import gc
import json
import re
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, islice, repeat
from numbers import Real
from typing import Iterable, Iterator, NamedTuple

from .errors import GraphBuildError, SnapshotError, UnknownEntityError

SNAPSHOT_MAGIC = b"RPKG"
SNAPSHOT_VERSION = 2


class Layer(Enum):
    """Risk domain of an entity. Ordered physical < social < economic."""

    PHYSICAL = "physical"
    SOCIAL = "social"
    ECONOMIC = "economic"

    @property
    def rank(self) -> int:
        return _LAYER_RANK[self]

    def __lt__(self, other: "Layer") -> bool:
        if not isinstance(other, Layer):
            return NotImplemented
        return self.rank < other.rank

    @classmethod
    def from_string(cls, text: str) -> "Layer":
        try:
            return cls(text.strip().lower())
        except (ValueError, AttributeError):  # AttributeError: not a string
            raise ValueError(f"unknown layer {text!r}; expected one of "
                             f"{[m.value for m in cls]}") from None


_LAYER_RANK = {Layer.PHYSICAL: 0, Layer.SOCIAL: 1, Layer.ECONOMIC: 2}


class Phase(Enum):
    """Temporal manifestation window of a relation."""

    ACUTE = "acute"        # 0-3 days
    SUBACUTE = "subacute"  # 3-14 days
    CHRONIC = "chronic"    # 14+ days

    @classmethod
    def from_string(cls, text: str) -> "Phase":
        try:
            return cls(text.strip().lower())
        except (ValueError, AttributeError):  # AttributeError: not a string
            raise ValueError(f"unknown phase {text!r}; expected one of "
                             f"{[m.value for m in cls]}") from None


class _EntityFields(NamedTuple):
    id: str
    canonical_name: str
    layer: Layer
    severity: float
    aliases: frozenset[str]


class Entity(_EntityFields):
    """Canonical node: layer assignment plus a severity weight in [0, 1].

    An immutable tuple of its fields, equal to a plain tuple of the same
    values. Construction, ``_make`` and ``_replace`` all check the fields.
    """

    __slots__ = ()

    def __new__(cls, id: str, canonical_name: str, layer: Layer, severity: float,
                aliases: Iterable[str] = frozenset()):
        if not id:
            raise GraphBuildError("entity id must be non-empty")
        if not canonical_name:
            raise GraphBuildError(f"entity {id!r}: canonical_name must be non-empty")
        if not isinstance(layer, Layer):
            raise GraphBuildError(f"entity {id!r}: layer must be a Layer")
        if isinstance(severity, bool) or not isinstance(severity, Real):
            raise GraphBuildError(f"entity {id!r}: severity must be a number, "
                                  f"got {severity!r}")
        if not 0.0 <= severity <= 1.0:
            raise GraphBuildError(f"entity {id!r}: severity {severity} not in [0, 1]")
        if not isinstance(aliases, frozenset):
            aliases = frozenset(aliases)
        # stored as a float, the one type a snapshot's severity column holds
        return tuple.__new__(cls, (id, canonical_name, layer, float(severity), aliases))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


class _RelationFields(NamedTuple):
    id: str
    source: str
    predicate: str
    target: str
    doc_ids: frozenset[str]
    phases: frozenset[Phase]


class Relation(_RelationFields):
    """Directed labeled edge with document provenance and phase tags.

    An immutable tuple of its fields, equal to a plain tuple of the same
    values. Construction, ``_make`` and ``_replace`` all check the fields.
    """

    __slots__ = ()

    def __new__(cls, id: str, source: str, predicate: str, target: str,
                doc_ids: Iterable[str], phases: Iterable[Phase] = frozenset()):
        if not id:
            raise GraphBuildError("relation id must be non-empty")
        if not predicate:
            raise GraphBuildError(f"relation {id!r}: predicate must be non-empty")
        if not isinstance(doc_ids, frozenset):
            doc_ids = frozenset(doc_ids)
        if not doc_ids:
            raise GraphBuildError(f"relation {id!r}: doc_ids must be non-empty")
        if not isinstance(phases, frozenset):
            phases = frozenset(phases)
        return tuple.__new__(cls, (id, source, predicate, target, doc_ids, phases))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def triple(self) -> tuple[str, str, str]:
        return (self.source, self.predicate, self.target)


@dataclass(frozen=True)
class GraphStats:
    num_entities: int
    num_relations: int
    layer_counts: dict[Layer, int]
    doc_count: int
    avg_out_degree: float

    def to_dict(self) -> dict:
        return {
            "num_entities": self.num_entities,
            "num_relations": self.num_relations,
            "layer_counts": {layer.value: n for layer, n in self.layer_counts.items()},
            "doc_count": self.doc_count,
            "avg_out_degree": self.avg_out_degree,
        }


@dataclass(frozen=True)
class KnowledgeGraph:
    """Entity/relation store. Read-only after build.

    Iteration order of ``entities`` and ``relations`` is sorted by id, so any
    derived computation is deterministic. The graph holds no adjacency
    index: ``out_neighbors`` computes an entity's neighbors on demand, and
    discovery builds its own index in one scan of ``relations``.
    """

    entities: dict[str, Entity]
    relations: dict[str, Relation]
    doc_count: int

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise UnknownEntityError(f"unknown entity id {entity_id!r}") from None

    def relation(self, relation_id: str) -> Relation:
        try:
            return self.relations[relation_id]
        except KeyError:
            raise UnknownEntityError(f"unknown relation id {relation_id!r}") from None

    def out_neighbors(self, entity_id: str, undirected: bool = False) -> list[tuple[str, str]]:
        """(relation id, neighbor entity id) pairs reachable from an entity.

        Directed mode follows edge direction; undirected mode also follows
        inbound edges, to their source, so each incident relation appears
        once (a self-loop too). Order is deterministic: sorted by (neighbor
        id, predicate, relation id). Each call scans every relation.
        """
        if entity_id not in self.entities:
            raise UnknownEntityError(f"unknown entity id {entity_id!r}")
        keys = sorted((r.target if r.source == entity_id else r.source, r.predicate, r.id)
                      for r in self.relations.values()
                      if r.source == entity_id or undirected and r.target == entity_id)
        return [(rid, other) for other, _, rid in keys]

    def stats(self) -> GraphStats:
        layer_counts = {layer: 0 for layer in Layer}
        for entity in self.entities.values():
            layer_counts[entity.layer] += 1
        n_v = len(self.entities)
        n_e = len(self.relations)
        return GraphStats(
            num_entities=n_v,
            num_relations=n_e,
            layer_counts=layer_counts,
            doc_count=self.doc_count,
            avg_out_degree=(n_e / n_v) if n_v else 0.0,
        )


def build_graph(entities: Iterable[Entity], relations: Iterable[Relation],
                doc_count: int | None = None) -> KnowledgeGraph:
    """Validate entities/relations into an immutable graph.

    Duplicate (source, predicate, target) triples are merged: doc_ids and
    phases are unioned and the lexicographically smallest id is kept, so the
    result is invariant under input permutation. One id given to two
    different triples raises GraphBuildError, as a repeated entity id does.
    ``doc_count`` defaults to the number of distinct doc ids across
    relations; ingest passes its own corpus-wide count, which may be larger
    if some documents contributed only rejected triples.
    """
    entity_map: dict[str, Entity] = {}
    for entity in entities:
        if entity.id in entity_map:
            raise GraphBuildError(f"duplicate entity id {entity.id!r}")
        entity_map[entity.id] = entity

    merged: dict[tuple[str, str, str], Relation] = {}
    triple_of: dict[str, tuple[str, str, str]] = {}
    for rel in relations:
        rid, source, predicate, target, doc_ids, phases = rel
        if source not in entity_map:
            raise GraphBuildError(f"relation {rid!r}: dangling source {source!r}")
        if target not in entity_map:
            raise GraphBuildError(f"relation {rid!r}: dangling target {target!r}")
        triple = (source, predicate, target)
        if triple_of.setdefault(rid, triple) != triple:
            raise GraphBuildError(f"duplicate relation id {rid!r}")
        prev = merged.setdefault(triple, rel)
        if prev is not rel:
            merged[triple] = Relation(min(prev.id, rid), source, predicate, target,
                                      prev.doc_ids | doc_ids, prev.phases | phases)

    entity_map = dict(sorted(entity_map.items()))
    # each id names one triple, so the merged ids are unique and the tuples
    # sort by id alone
    relation_map = {rel.id: rel for rel in sorted(merged.values())}

    seen_docs = set()
    for rel in relation_map.values():
        seen_docs |= rel.doc_ids
    if doc_count is None:
        doc_count = len(seen_docs)
    elif doc_count < len(seen_docs):
        raise GraphBuildError(
            f"doc_count {doc_count} is below the {len(seen_docs)} distinct "
            f"doc ids attached to relations")

    return KnowledgeGraph(
        entities=entity_map,
        relations=relation_map,
        doc_count=doc_count,
    )


class collector_paused:
    """Pause the cyclic garbage collector for an allocation burst that makes
    no reference cycles, and restore the caller's setting on exit: a pause
    nested in another, or entered with the collector off, leaves it off.

    A class rather than a generator, so that leaving the pause allocates
    nothing: the one young-generation collection that the burst has made due
    starts at the caller's next allocation, not inside the paused call.
    """

    def __enter__(self):
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self.was_enabled:
            gc.enable()


# --- snapshot persistence ---------------------------------------------------

_HEADER = struct.Struct(">4sH")
_LAYERS = {layer.value: layer for layer in Layer}
_PHASES = {phase.value: phase for phase in Phase}
# every phase set by its saved list: relations share these few objects
_PHASE_SETS = {tuple(p.value for p in subset): frozenset(subset)
               for n in range(len(Phase) + 1) for subset in combinations(Phase, n)}
_ENTITY_ROW = (str, str, str, float, list)
_RELATION_ROW = (str, str, str, str, list, list)
_encode = json.JSONEncoder(separators=(",", ":")).encode
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _write_records(fh, rows: Iterator[list]) -> None:
    """Write rows as the comma-separated items of a JSON array, encoding 1024
    at a time: few encoder calls, and never the whole section in memory."""
    sep = b""
    while chunk := list(islice(rows, 1024)):
        fh.write(sep + _encode(chunk)[1:-1].encode("ascii"))
        sep = b","


def save_snapshot(graph: KnowledgeGraph, path) -> None:
    """Write the graph as the ``RPKG`` header plus one JSON document, with
    the bytes of a single ``json.dumps`` of the payload."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION))
        fh.write(b'{"doc_count":%d,"entities":[' % graph.doc_count)
        _write_records(fh, (
            [e.id, e.canonical_name, e.layer.value, e.severity, sorted(e.aliases)]
            for e in graph.entities.values()))
        fh.write(b'],"relations":[')
        _write_records(fh, (
            [r.id, r.source, r.predicate, r.target, sorted(r.doc_ids),
             [p.value for p in Phase if p in r.phases]]
            for r in graph.relations.values()))
        fh.write(b"]}")


def _all_str(values: Iterable) -> bool:
    return set(map(type, values)) <= {str}


def _columns(rows: list, types: tuple) -> tuple | None:
    """The columns of ``rows`` if every row is a list of values of exactly
    ``types``, else None."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {len(types)}):
        return None
    columns = tuple(zip(*rows)) or ((),) * len(types)
    if all(set(map(type, column)) <= {t} for column, t in zip(columns, types)):
        return columns
    return None


def _shared_sets(lists: Iterable[list]) -> Iterator[frozenset]:
    """One frozenset per list, built once per distinct list: records whose
    saved lists are equal share one set object, as they share phase sets."""
    keys = list(map(tuple, lists))
    sets = {key: frozenset(key) for key in set(keys)}
    return map(sets.__getitem__, keys)


def _entities_in_bulk(rows: list) -> list[Entity] | None:
    """The entities of ``rows``, checked section-wide with the Entity
    constructor's checks and built without it; None if any row fails."""
    columns = _columns(rows, _ENTITY_ROW)
    if columns is None:
        return None
    ids, names, layers, severities, aliases = columns
    if not (all(ids) and all(names) and set(layers) <= _LAYERS.keys()
            and all(map((0.0).__le__, severities)) and all(map((1.0).__ge__, severities))
            and _all_str(chain.from_iterable(aliases))):
        return None
    return list(map(tuple.__new__, repeat(Entity), zip(
        ids, names, map(_LAYERS.__getitem__, layers), severities, _shared_sets(aliases))))


def _relations_in_bulk(rows: list) -> list[Relation] | None:
    """The relations of ``rows``, checked section-wide with the Relation
    constructor's checks and built without it; None if any row fails."""
    columns = _columns(rows, _RELATION_ROW)
    if columns is None:
        return None
    ids, sources, predicates, targets, docs, phase_lists = columns
    if not (all(ids) and all(predicates) and all(docs)
            and _all_str(chain.from_iterable(docs))
            and _all_str(chain.from_iterable(phase_lists))):
        return None
    phases = tuple(map(tuple, phase_lists))
    if not _PHASE_SETS.keys() >= set(phases):
        return None
    return list(map(tuple.__new__, repeat(Relation), zip(
        ids, sources, predicates, targets, _shared_sets(docs),
        map(_PHASE_SETS.__getitem__, phases))))


def _build_inputs(payload, path) -> tuple[list[Entity], list[Relation], int]:
    """Check the shape and type of every decoded record and turn the records
    into ``build_graph`` inputs. Raises SnapshotError, or GraphBuildError
    from the Entity and Relation constructors.

    Each section is checked and built in bulk; a section that fails the bulk
    check goes through the record-by-record loop, which names the first
    defect and its record index."""
    if not (type(payload) is dict and list(payload) == ["doc_count", "entities", "relations"]
            and tuple(map(type, payload.values())) == (int, list, list)):
        raise SnapshotError(f"{path}: payload is not an object of an int doc_count "
                            f"then entities and relations lists")
    doc_count, entity_rows, relation_rows = payload.values()

    entities = _entities_in_bulk(entity_rows)
    if entities is None:
        entities = []
        for i, row in enumerate(entity_rows):
            if not (type(row) is list and tuple(map(type, row)) == _ENTITY_ROW
                    and row[2] in _LAYERS and _all_str(row[4])):
                raise SnapshotError(f"{path}: entity record {i} is ill-typed")
            eid, name, layer, severity, aliases = row
            entities.append(Entity(eid, name, _LAYERS[layer], severity, frozenset(aliases)))
    relations = _relations_in_bulk(relation_rows)
    if relations is None:
        relations = []
        for i, row in enumerate(relation_rows):
            if not (type(row) is list and tuple(map(type, row)) == _RELATION_ROW
                    and _all_str(row[4]) and _all_str(row[5])
                    and _PHASES.keys() >= set(row[5])):
                raise SnapshotError(f"{path}: relation record {i} is ill-typed")
            rid, source, predicate, target, docs, phases = row
            relations.append(Relation(rid, source, predicate, target, frozenset(docs),
                                      frozenset(map(_PHASES.get, phases))))
    return entities, relations, doc_count


def _read_payload(path):
    """Check a snapshot file's header and decode its JSON document."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from None

    if len(data) < _HEADER.size or data[:4] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path} is not a graph snapshot (bad magic or short header)")
    version = _HEADER.unpack_from(data)[1]
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot version {version} unsupported (expected "
            f"{SNAPSHOT_VERSION}); re-run 'riskpath ingest' to rebuild it")

    try:
        text = data[_HEADER.size:].decode("ascii")
        payload, end = json.JSONDecoder().raw_decode(text)
        # only a \uD800-\uDFFF escape can decode to a lone surrogate, which
        # no UTF-8 writer could encode; most snapshots hold no such escape
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(payload, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, non-ASCII bytes, oversized ints, lone surrogates
        raise SnapshotError(f"{path}: snapshot payload does not decode: {exc}") from None
    if end != len(text):
        raise SnapshotError(f"{path}: trailing bytes after snapshot payload")
    return payload


def load_snapshot(path) -> KnowledgeGraph:
    """Read a snapshot back into a graph; any defect raises SnapshotError."""
    try:
        # the file's text and decoded records are freed before build_graph runs
        with collector_paused():
            entities, relations, doc_count = _build_inputs(_read_payload(path), path)
            graph = build_graph(entities, relations, doc_count=doc_count)
            # build_graph sorts by id and merges repeated triples, so the
            # records were unique and in id order exactly when its ids equal theirs
            in_order = (list(graph.entities) == [e.id for e in entities]
                        and list(graph.relations) == [r.id for r in relations])
    except GraphBuildError as exc:
        raise SnapshotError(f"{path}: inconsistent snapshot: {exc}") from None
    if not in_order:
        raise SnapshotError(
            f"{path}: records are out of id order, or an id or triple repeats")
    return graph
