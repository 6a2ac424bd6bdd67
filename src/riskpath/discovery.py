"""Constrained breadth-first discovery of cross-layer risk pathways.

Starting from every physical-layer entity, all simple directed pathways of
edge length 1..d_max are enumerated breadth-first; those crossing layers at
least twice are scored and the ones exceeding the novelty threshold are
ranked deterministically. ``enumerate_oracle`` is a deliberately naive
exhaustive re-implementation (recursive DFS over the public graph API, no
pruning) kept as the correctness reference: on any graph small enough to
enumerate, ``discover`` must produce the identical result.

F_max is fixed before traversal in both modes, so each source scores every
candidate once as it is found and keeps only its ``top_k`` records; the
merged records are ranked by one total order. Every source runs on the
calling thread. Pruning (edge-max mode only) uses an admissible upper bound
(``_extension_bound``) on any extension's total and therefore never changes
the returned pathways; it can only reduce ``candidates_enumerated``, which is
a diagnostic counter.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import DiscoveryError
from .graph import KnowledgeGraph, Layer
from .ingest import CorpusStats
from .scoring import (
    FMAX_PATHWAY,
    FREQ_DOCS,
    FREQ_ENTITIES,
    CentralityScores,
    ScoreBreakdown,
    ScoringConfig,
    combine,
    cross_layer_connectivity,
    cross_layer_count,
    entity_doc_index,
    impact_potential,
    literature_frequency,
    novelty_score,
    pathway_frequency,
)


@dataclass(frozen=True)
class Pathway:
    """Alternating entity/relation sequence; relation i connects entity i -> i+1."""

    entity_ids: tuple[str, ...]
    relation_ids: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.entity_ids, tuple):
            object.__setattr__(self, "entity_ids", tuple(self.entity_ids))
        if not isinstance(self.relation_ids, tuple):
            object.__setattr__(self, "relation_ids", tuple(self.relation_ids))
        if len(self.entity_ids) != len(self.relation_ids) + 1:
            raise DiscoveryError(
                f"pathway with {len(self.entity_ids)} entities must have "
                f"{len(self.entity_ids) - 1} relations, got {len(self.relation_ids)}")

    @property
    def num_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def edge_length(self) -> int:
        return len(self.relation_ids)

    def validate(self, graph: KnowledgeGraph, d_max: int | None = None,
                 undirected: bool = False) -> None:
        """Check simplicity and alternation structure against the graph."""
        if len(set(self.entity_ids)) != len(self.entity_ids):
            raise DiscoveryError(f"pathway repeats an entity: {self.entity_ids}")
        if d_max is not None and self.edge_length > d_max:
            raise DiscoveryError(
                f"pathway edge length {self.edge_length} exceeds d_max {d_max}")
        for i, rid in enumerate(self.relation_ids):
            rel = graph.relation(rid)
            a, b = self.entity_ids[i], self.entity_ids[i + 1]
            ok = (rel.source == a and rel.target == b)
            if undirected:
                ok = ok or (rel.source == b and rel.target == a)
            if not ok:
                raise DiscoveryError(
                    f"relation {rid!r} does not connect {a!r} -> {b!r}")


@dataclass
class DiscoveryResult:
    pathways: list[tuple[Pathway, ScoreBreakdown]]
    config_echo: ScoringConfig
    f_max_used: int
    candidates_enumerated: int
    sources_processed: int

    def to_json_dict(self, graph: KnowledgeGraph) -> dict:
        rows = []
        for pathway, breakdown in self.pathways:
            entities = [graph.entity(eid) for eid in pathway.entity_ids]
            rows.append({
                "entities": [e.canonical_name for e in entities],
                "predicates": [graph.relation(rid).predicate
                               for rid in pathway.relation_ids],
                "layers": [e.layer.value for e in entities],
                "f": breakdown.f,
                "lf": breakdown.lf,
                "clc": breakdown.clc,
                "ip": breakdown.ip,
                "score": breakdown.total,
            })
        cfg = self.config_echo
        return {
            "pathways": rows,
            "metadata": {
                "alpha": cfg.alpha,
                "beta": cfg.beta,
                "gamma": cfg.gamma,
                "theta": cfg.theta_novelty,
                "d_max": cfg.d_max,
                "top_k": cfg.top_k,
                "fmax_mode": cfg.fmax_mode,
                "f_max_used": self.f_max_used,
                "candidates_enumerated": self.candidates_enumerated,
            },
        }


def format_pathways(result_json: dict) -> str:
    """Human-readable rendering of a serialized discovery result.

    One line per pathway: the arrow-joined entity chain followed by score
    columns.
    """
    rows = result_json.get("pathways", [])
    if not rows:
        return "(no pathways above threshold)"
    lines = []
    for i, row in enumerate(rows, start=1):
        chain = " → ".join(row["entities"])
        lines.append(
            f"{i:>3}. {chain}\n"
            f"     score={row['score']:.4f}  lf={row['lf']:.4f}  "
            f"clc={row['clc']:.4f}  ip={row['ip']:.4f}  f={row['f']}")
    return "\n".join(lines)


def rank_top_k(scored: Iterable[tuple[Pathway, ScoreBreakdown]],
               config: ScoringConfig) -> list[tuple[Pathway, ScoreBreakdown]]:
    """Filter strictly above the threshold, sort deterministically, truncate.

    Order: total descending, then fewer entities first, then lexicographic
    entity-id sequence (relation ids as the final disambiguator between
    parallel-edge pathways over the same entities).
    """
    kept = [(p, b) for p, b in scored if b.total > config.theta_novelty]
    kept.sort(key=lambda pb: (-pb[1].total, pb[0].num_entities,
                              pb[0].entity_ids, pb[0].relation_ids))
    return kept[:config.top_k]


def edge_max_frequency(graph: KnowledgeGraph, corpus_stats: CorpusStats,
                       freq_mode: str = FREQ_DOCS,
                       entity_docs=None) -> int:
    """F_max for edge-max mode: the largest single-element doc frequency."""
    if freq_mode == FREQ_ENTITIES:
        if entity_docs is None:
            entity_docs = entity_doc_index(graph)
        return max((len(docs) for docs in entity_docs.values()), default=0)
    return max((len(docs) for docs in corpus_stats.edge_doc_index.values()), default=0)


def _extension_bound(num_entities: int, transitions: int, impact_sum: float,
                     config: ScoringConfig, max_impact: float) -> float:
    """Admissible upper bound on the total of any strict extension.

    LF can only reach 1; CLC's best case adds a layer transition on every
    remaining hop (monotone in the number of hops added); IP's best case
    appends entities at the graph-wide maximum of normalized centrality times
    severity, which is maximized either by one hop or by all remaining hops
    depending on whether that maximum exceeds the current mean.
    """
    k_max = config.d_max - (num_entities - 1)
    clc_bound = (transitions + k_max) / (num_entities - 1 + k_max)
    ip_one = (impact_sum + max_impact) / (num_entities + 1)
    ip_all = (impact_sum + k_max * max_impact) / (num_entities + k_max)
    return combine(1.0, clc_bound, max(ip_one, ip_all), config)


class _GraphIndex:
    """Dense integer view of the graph for the traversal hot loop.

    Adjacency entries are ``(target, relation, step_docs)``: a hop keeps the
    pathway's docs that are in ``step_docs``, the relation's docs or, in
    ``entities`` mode, the target's. ``entity_docs`` (the entity doc index)
    and each ``start_docs`` entry are None in ``docs`` mode.
    """

    def __init__(self, graph: KnowledgeGraph, corpus_stats: CorpusStats,
                 centrality: CentralityScores, freq_mode: str, undirected: bool):
        self.entity_ids = list(graph.entities)
        index = {eid: i for i, eid in enumerate(self.entity_ids)}
        self.layer = [graph.entities[eid].layer.rank for eid in self.entity_ids]
        try:
            self.sevcent = [centrality.normalized[eid] * graph.entities[eid].severity
                            for eid in self.entity_ids]
        except KeyError as exc:
            raise DiscoveryError(f"centrality missing entity {exc}") from None
        self.relation_ids = list(graph.relations)
        rel_index = {rid: i for i, rid in enumerate(self.relation_ids)}
        by_entity = self.entity_docs = (
            entity_doc_index(graph) if freq_mode == FREQ_ENTITIES else None)
        self.start_docs = [None if by_entity is None else by_entity[eid]
                           for eid in self.entity_ids]
        edge_docs = corpus_stats.edge_doc_index
        try:
            self.adjacency = [
                [(index[other], rel_index[rid],
                  edge_docs[rid] if by_entity is None else by_entity[other])
                 for rid, other in graph.out_neighbors(eid, undirected=undirected)]
                for eid in self.entity_ids]
        except KeyError as exc:
            raise DiscoveryError(f"corpus stats missing relation {exc}") from None
        self.sources = [index[eid] for eid in self.entity_ids
                        if graph.entities[eid].layer is Layer.PHYSICAL]


def _pathway_f_max(index: _GraphIndex, d_max: int) -> int:
    """F_max for pathway-max mode, found before the scoring traversal.

    Extending a pathway never removes a layer transition and can only shrink
    its doc set, so the largest f is reached on a shortest prefix that
    crosses layers twice; the search stops there, and skips any prefix whose
    doc count cannot beat the best found so far.
    """
    layer, adjacency = index.layer, index.adjacency
    best = 0
    for source in index.sources:
        stack = [((source,), 0, index.start_docs[source])]
        while stack:
            path, transitions, docs = stack.pop()
            last_layer = layer[path[-1]]
            for target, _, step in adjacency[path[-1]]:
                if target in path:
                    continue
                new_docs = step if docs is None else docs & step
                if len(new_docs) <= best:
                    continue
                new_transitions = transitions + (layer[target] != last_layer)
                if new_transitions >= 2:
                    best = len(new_docs)
                elif len(path) < d_max:
                    stack.append((path + (target,), new_transitions, new_docs))
    return best


def _source_candidates(source: int, index: _GraphIndex, config: ScoringConfig,
                       f_max: int, prune: bool, max_impact: float,
                       ) -> tuple[list, int]:
    """Enumerate and score the candidates from one source.

    Returns (the source's ``top_k`` records, candidate count). A record is
    ``(-total, entity count, entity idx tuple, relation idx tuple, f, lf,
    clc, ip)``; entity and relation indexes follow sorted ids, so records
    sort in :func:`rank_top_k`'s order.
    """
    alpha, beta, gamma = config.alpha, config.beta, config.gamma
    theta = config.theta_novelty
    d_max = config.d_max
    adjacency, layer, sevcent = index.adjacency, index.layer, index.sevcent

    records = []
    append_record = records.append
    count = 0
    queue = deque()
    push = queue.append
    pop = queue.popleft
    push(((source,), (), 0, 0.0 + sevcent[source], index.start_docs[source]))
    while queue:
        path, rels, transitions, impact_sum, docs = pop()
        depth = len(rels)
        last_layer = layer[path[-1]]
        deeper = depth + 1 < d_max
        for target, rid, step in adjacency[path[-1]]:
            if target in path:
                continue
            new_transitions = transitions + (layer[target] != last_layer)
            new_impact = impact_sum + sevcent[target]
            new_docs = step if docs is None else docs & step
            new_path = path + (target,)
            new_rels = rels + (rid,)
            n = depth + 2  # entities in the extended path
            if new_transitions >= 2:
                count += 1
                f = len(new_docs)
                clc = new_transitions / (n - 1)
                ip = new_impact / n
                # expression kept identical to literature_frequency/combine
                lf = 1.0 if f_max == 0 else 1.0 - f / f_max
                total = alpha * lf + beta * clc + gamma * ip
                if total > theta:
                    append_record((-total, n, new_path, new_rels, f, lf, clc, ip))
            if deeper:
                if prune and _extension_bound(n, new_transitions, new_impact,
                                              config, max_impact) <= theta:
                    continue
                push((new_path, new_rels, new_transitions,
                      new_impact, new_docs))
    return heapq.nsmallest(config.top_k, records), count


def discover(graph: KnowledgeGraph, corpus_stats: CorpusStats,
             centrality: CentralityScores, config: ScoringConfig,
             workers: int = 1, prune: bool | None = None,
             undirected: bool = False) -> DiscoveryResult:
    """Run the full constrained-BFS discovery and return ranked pathways.

    ``prune`` defaults to on in edge-max mode and is ignored in pathway-max
    mode, whose ``candidates_enumerated`` counts every candidate.
    ``workers`` is accepted for compatibility and has no effect: every
    source runs on the calling thread.
    """
    index = _GraphIndex(graph, corpus_stats, centrality, config.freq_mode, undirected)
    sources = index.sources
    if config.fmax_mode == FMAX_PATHWAY:
        f_max = _pathway_f_max(index, config.d_max)
        prune = False
    else:
        f_max = edge_max_frequency(graph, corpus_stats, config.freq_mode,
                                   index.entity_docs)
        prune = prune is None or bool(prune)
    max_impact = max(index.sevcent, default=0.0)

    results = [_source_candidates(source, index, config, f_max, prune, max_impact)
               for source in sources]
    top = heapq.nsmallest(config.top_k,
                          (record for records, _ in results for record in records))

    ranked = [
        (Pathway(tuple(index.entity_ids[i] for i in path),
                 tuple(index.relation_ids[i] for i in rels)),
         novelty_score(f, lf, clc, ip, config))
        for _, _, path, rels, f, lf, clc, ip in top
    ]
    return DiscoveryResult(
        pathways=ranked,
        config_echo=config,
        f_max_used=f_max,
        candidates_enumerated=sum(count for _, count in results),
        sources_processed=len(sources),
    )


def enumerate_oracle(graph: KnowledgeGraph, corpus_stats: CorpusStats,
                     centrality: CentralityScores, config: ScoringConfig,
                     undirected: bool = False) -> DiscoveryResult:
    """Exhaustive DFS reference implementation over the public graph API.

    No pruning and no shared traversal machinery with ``discover``; scoring
    composes the public per-component operations. The caller is responsible
    for keeping the graph small enough to enumerate.
    """
    entity_docs = None
    if config.freq_mode == FREQ_ENTITIES:
        entity_docs = entity_doc_index(graph)

    candidates: list[tuple[Pathway, int, float, float]] = []
    sources = [eid for eid, entity in graph.entities.items()
               if entity.layer is Layer.PHYSICAL]

    def extend(entities: tuple[str, ...], relations: tuple[str, ...]) -> None:
        if len(relations) >= config.d_max:
            return
        for rid, neighbor in graph.out_neighbors(entities[-1], undirected=undirected):
            if neighbor in entities:
                continue
            pathway = Pathway(entities + (neighbor,), relations + (rid,))
            if cross_layer_count(pathway, graph) >= 2:
                f = pathway_frequency(pathway, corpus_stats,
                                      config.freq_mode, entity_docs)
                clc = cross_layer_connectivity(pathway, graph)
                ip = impact_potential(pathway, centrality, graph)
                candidates.append((pathway, f, clc, ip))
            extend(pathway.entity_ids, pathway.relation_ids)

    for source in sources:
        extend((source,), ())

    if config.fmax_mode == FMAX_PATHWAY:
        f_max = max((f for _, f, _, _ in candidates), default=0)
    else:
        f_max = edge_max_frequency(graph, corpus_stats, config.freq_mode, entity_docs)

    scored = [
        (pathway, novelty_score(f, literature_frequency(f, f_max), clc, ip, config))
        for pathway, f, clc, ip in candidates
    ]
    return DiscoveryResult(
        pathways=rank_top_k(scored, config),
        config_echo=config,
        f_max_used=f_max,
        candidates_enumerated=len(candidates),
        sources_processed=len(sources),
    )
