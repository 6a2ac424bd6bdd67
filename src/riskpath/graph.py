"""Typed, immutable-after-build knowledge graph with adjacency indices.

Entities live on one of three layers (physical / social / economic), relations
are directed labeled edges carrying document provenance and optional temporal
phase tags. The graph is built once from validated inputs and is read-only
afterwards, which makes it safe to share across discovery workers.

Snapshot format (version 1)
---------------------------
Binary, big-endian, deterministic (same graph -> identical bytes):

    magic      4 bytes  b"RPKG"
    version    u16
    doc_count  u32
    entities   u32 count, then per entity (sorted by id):
                   str id, str canonical_name, u8 layer, f64 severity,
                   u32 alias count, str aliases (sorted)
    relations  u32 count, then per relation (sorted by id):
                   str id, str source, str predicate, str target,
                   u32 doc count, str doc ids (sorted), u8 phase bitmask
    adjacency  out then in: per entity (entity order):
                   u32 count, u32 relation indices (into relation order)

where ``str`` is a u32 byte length followed by UTF-8 bytes. Any truncation,
trailing bytes, or cross-reference mismatch raises SnapshotError.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Iterable

from .errors import GraphBuildError, SnapshotError, UnknownEntityError

SNAPSHOT_MAGIC = b"RPKG"
SNAPSHOT_VERSION = 1


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


_PHASE_BIT = {Phase.ACUTE: 1, Phase.SUBACUTE: 2, Phase.CHRONIC: 4}


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

def _write_str(buf: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    buf.write(struct.pack(">I", len(data)))
    buf.write(data)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SnapshotError("snapshot truncated")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self.take(8))[0]

    def string(self) -> str:
        n = self.u32()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"snapshot contains invalid UTF-8: {exc}") from None

    def done(self) -> bool:
        return self.pos == len(self.data)


def save_snapshot(graph: KnowledgeGraph, path) -> None:
    """Serialize the graph to the versioned binary snapshot format."""
    layer_code = {layer: i for i, layer in enumerate(Layer)}
    rel_index = {rid: i for i, rid in enumerate(graph.relations)}
    with open(path, "wb") as buf:
        buf.write(SNAPSHOT_MAGIC)
        buf.write(struct.pack(">H", SNAPSHOT_VERSION))
        buf.write(struct.pack(">I", graph.doc_count))

        buf.write(struct.pack(">I", len(graph.entities)))
        for entity in graph.entities.values():
            _write_str(buf, entity.id)
            _write_str(buf, entity.canonical_name)
            buf.write(struct.pack(">B", layer_code[entity.layer]))
            buf.write(struct.pack(">d", entity.severity))
            aliases = sorted(entity.aliases)
            buf.write(struct.pack(">I", len(aliases)))
            for alias in aliases:
                _write_str(buf, alias)

        buf.write(struct.pack(">I", len(graph.relations)))
        for rel in graph.relations.values():
            _write_str(buf, rel.id)
            _write_str(buf, rel.source)
            _write_str(buf, rel.predicate)
            _write_str(buf, rel.target)
            docs = sorted(rel.doc_ids)
            buf.write(struct.pack(">I", len(docs)))
            for doc in docs:
                _write_str(buf, doc)
            mask = 0
            for phase in rel.phases:
                mask |= _PHASE_BIT[phase]
            buf.write(struct.pack(">B", mask))

        for adjacency in (graph.out_adjacency, graph.in_adjacency):
            for eid in graph.entities:
                rids = adjacency[eid]
                buf.write(struct.pack(">I", len(rids)))
                for rid in rids:
                    buf.write(struct.pack(">I", rel_index[rid]))


def load_snapshot(path) -> KnowledgeGraph:
    """Read a snapshot back into a graph, validating structure throughout."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from None

    reader = _Reader(data)
    if reader.take(4) != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path} is not a graph snapshot (bad magic)")
    version = reader.u16()
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot version {version} unsupported "
            f"(expected {SNAPSHOT_VERSION})")
    doc_count = reader.u32()

    layers = list(Layer)
    phases_by_bit = {bit: phase for phase, bit in _PHASE_BIT.items()}

    entities = []
    for _ in range(reader.u32()):
        eid = reader.string()
        name = reader.string()
        code = reader.u8()
        if code >= len(layers):
            raise SnapshotError(f"{path}: invalid layer code {code}")
        severity = reader.f64()
        aliases = frozenset(reader.string() for _ in range(reader.u32()))
        entities.append(Entity(eid, name, layers[code], severity, aliases))

    relations = []
    for _ in range(reader.u32()):
        rid = reader.string()
        source = reader.string()
        predicate = reader.string()
        target = reader.string()
        docs = frozenset(reader.string() for _ in range(reader.u32()))
        mask = reader.u8()
        phases = frozenset(phase for bit, phase in phases_by_bit.items() if mask & bit)
        relations.append(Relation(rid, source, predicate, target, docs, phases))

    stored_adj = []
    for _ in range(2):
        per_entity = []
        for _ in range(len(entities)):
            count = reader.u32()
            per_entity.append(tuple(reader.u32() for _ in range(count)))
        stored_adj.append(per_entity)
    if not reader.done():
        raise SnapshotError(f"{path}: trailing bytes after snapshot payload")

    try:
        graph = build_graph(entities, relations, doc_count=doc_count)
    except GraphBuildError as exc:
        raise SnapshotError(f"{path}: inconsistent snapshot: {exc}") from None

    # adjacency sections must mirror what the build derives
    rel_ids = list(graph.relations)
    for stored, derived in zip(stored_adj, (graph.out_adjacency, graph.in_adjacency)):
        for eid, indices in zip(graph.entities, stored):
            try:
                stored_rids = tuple(rel_ids[i] for i in indices)
            except IndexError:
                raise SnapshotError(f"{path}: adjacency index out of range") from None
            if stored_rids != derived[eid]:
                raise SnapshotError(f"{path}: adjacency section does not match relations")
    return graph
