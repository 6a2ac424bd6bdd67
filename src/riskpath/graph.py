"""Typed, immutable-after-build knowledge graph with adjacency indices.

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
the same bytes. Adjacency is not stored: ``load_snapshot`` derives it
through ``build_graph``, which also checks every cross-reference. Any
truncation, trailing bytes, ill-typed or misordered record, or repeated
triple raises SnapshotError.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator

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
        except ValueError:
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
        except ValueError:
            raise ValueError(f"unknown phase {text!r}; expected one of "
                             f"{[m.value for m in cls]}") from None


@dataclass(frozen=True)
class Entity:
    """Canonical node: layer assignment plus a severity weight in [0, 1]."""

    id: str
    canonical_name: str
    layer: Layer
    severity: float
    aliases: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.id:
            raise GraphBuildError("entity id must be non-empty")
        if not self.canonical_name:
            raise GraphBuildError(f"entity {self.id!r}: canonical_name must be non-empty")
        if not isinstance(self.layer, Layer):
            raise GraphBuildError(f"entity {self.id!r}: layer must be a Layer")
        if not 0.0 <= self.severity <= 1.0:
            raise GraphBuildError(f"entity {self.id!r}: severity {self.severity} not in [0, 1]")
        if not isinstance(self.aliases, frozenset):
            object.__setattr__(self, "aliases", frozenset(self.aliases))


@dataclass(frozen=True)
class Relation:
    """Directed labeled edge with document provenance and phase tags."""

    id: str
    source: str
    predicate: str
    target: str
    doc_ids: frozenset[str]
    phases: frozenset[Phase] = frozenset()

    def __post_init__(self):
        if not self.id:
            raise GraphBuildError("relation id must be non-empty")
        if not self.predicate:
            raise GraphBuildError(f"relation {self.id!r}: predicate must be non-empty")
        if not isinstance(self.doc_ids, frozenset):
            object.__setattr__(self, "doc_ids", frozenset(self.doc_ids))
        if not self.doc_ids:
            raise GraphBuildError(f"relation {self.id!r}: doc_ids must be non-empty")
        if not isinstance(self.phases, frozenset):
            object.__setattr__(self, "phases", frozenset(self.phases))

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


@dataclass(frozen=True, eq=False)
class KnowledgeGraph:
    """Entity/relation store with adjacency indices. Read-only after build.

    Iteration order of ``entities`` and ``relations`` is sorted by id, so any
    derived computation is deterministic. Out-adjacency lists are pre-sorted
    by (target id, predicate, relation id); in-adjacency by (source id,
    predicate, relation id).
    """

    entities: dict[str, Entity]
    relations: dict[str, Relation]
    out_adjacency: dict[str, tuple[str, ...]]
    in_adjacency: dict[str, tuple[str, ...]]
    doc_count: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return (self.entities == other.entities
                and self.relations == other.relations
                and self.out_adjacency == other.out_adjacency
                and self.in_adjacency == other.in_adjacency
                and self.doc_count == other.doc_count)

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

        Directed mode follows edge direction; undirected mode returns the
        union of outbound and inbound edges (the neighbor is the opposite
        endpoint), deduplicated by relation id. Order is deterministic:
        sorted by (neighbor id, predicate, relation id).
        """
        if entity_id not in self.entities:
            raise UnknownEntityError(f"unknown entity id {entity_id!r}")
        pairs = [(rid, self.relations[rid].target) for rid in self.out_adjacency[entity_id]]
        if undirected:
            seen = {rid for rid, _ in pairs}
            for rid in self.in_adjacency[entity_id]:
                if rid not in seen:
                    pairs.append((rid, self.relations[rid].source))
            pairs.sort(key=lambda p: (p[1], self.relations[p[0]].predicate, p[0]))
        return pairs

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
    """Validate and index entities/relations into an immutable graph.

    Duplicate (source, predicate, target) triples are merged: doc_ids and
    phases are unioned and the lexicographically smallest id is kept, so the
    result is invariant under input permutation. ``doc_count`` defaults to
    the number of distinct doc ids across relations; ingest passes its own
    corpus-wide count, which may be larger if some documents contributed
    only rejected triples.
    """
    entity_map: dict[str, Entity] = {}
    for entity in entities:
        if entity.id in entity_map:
            raise GraphBuildError(f"duplicate entity id {entity.id!r}")
        entity_map[entity.id] = entity

    merged: dict[tuple[str, str, str], Relation] = {}
    for rel in relations:
        if rel.source not in entity_map:
            raise GraphBuildError(
                f"relation {rel.id!r}: dangling source {rel.source!r}")
        if rel.target not in entity_map:
            raise GraphBuildError(
                f"relation {rel.id!r}: dangling target {rel.target!r}")
        prev = merged.get(rel.triple)
        if prev is None:
            merged[rel.triple] = rel
        else:
            merged[rel.triple] = Relation(
                id=min(prev.id, rel.id),
                source=rel.source,
                predicate=rel.predicate,
                target=rel.target,
                doc_ids=prev.doc_ids | rel.doc_ids,
                phases=prev.phases | rel.phases,
            )

    entity_map = dict(sorted(entity_map.items()))
    relation_map = {rel.id: rel for rel in sorted(merged.values(), key=lambda r: r.id)}

    out_lists: dict[str, list[str]] = {eid: [] for eid in entity_map}
    in_lists: dict[str, list[str]] = {eid: [] for eid in entity_map}
    for rel in relation_map.values():
        out_lists[rel.source].append(rel.id)
        in_lists[rel.target].append(rel.id)
    out_adj = {
        eid: tuple(sorted(rids, key=lambda r: (relation_map[r].target,
                                               relation_map[r].predicate, r)))
        for eid, rids in out_lists.items()
    }
    in_adj = {
        eid: tuple(sorted(rids, key=lambda r: (relation_map[r].source,
                                               relation_map[r].predicate, r)))
        for eid, rids in in_lists.items()
    }

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
        out_adjacency=out_adj,
        in_adjacency=in_adj,
        doc_count=doc_count,
    )


# --- snapshot persistence ---------------------------------------------------

_HEADER = struct.Struct(">4sH")
_LAYERS = {layer.value: layer for layer in Layer}
_PHASES = {phase.value: phase for phase in Phase}
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


def _all_str(values: list) -> bool:
    return set(map(type, values)) <= {str}


def _build_inputs(payload, path) -> tuple[list[Entity], list[Relation], int]:
    """Check the shape and type of every decoded record and turn the records
    into ``build_graph`` inputs. Raises SnapshotError, or GraphBuildError
    from the Entity and Relation constructors."""
    if not (type(payload) is dict and list(payload) == ["doc_count", "entities", "relations"]
            and tuple(map(type, payload.values())) == (int, list, list)):
        raise SnapshotError(f"{path}: payload is not an object of an int doc_count "
                            f"then entities and relations lists")
    doc_count, entity_rows, relation_rows = payload.values()

    entities = []
    for i, row in enumerate(entity_rows):
        if not (type(row) is list and tuple(map(type, row)) == _ENTITY_ROW
                and row[2] in _LAYERS and _all_str(row[4])):
            raise SnapshotError(f"{path}: entity record {i} is ill-typed")
        eid, name, layer, severity, aliases = row
        entities.append(Entity(eid, name, _LAYERS[layer], severity, frozenset(aliases)))
    relations = []
    for i, row in enumerate(relation_rows):
        if not (type(row) is list and tuple(map(type, row)) == _RELATION_ROW
                and _all_str(row[4]) and _all_str(row[5]) and _PHASES.keys() >= set(row[5])):
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
        entities, relations, doc_count = _build_inputs(_read_payload(path), path)
        graph = build_graph(entities, relations, doc_count=doc_count)
    except GraphBuildError as exc:
        raise SnapshotError(f"{path}: inconsistent snapshot: {exc}") from None
    # build_graph sorts by id and merges repeated triples, so the records
    # were unique and in id order exactly when its ids equal theirs
    if (list(graph.entities) != [e.id for e in entities]
            or list(graph.relations) != [r.id for r in relations]):
        raise SnapshotError(
            f"{path}: records are out of id order, or an id or triple repeats")
    return graph
