"""Constrained depth-first discovery of cross-layer risk pathways.

Starting from every physical-layer entity, all simple directed pathways of
edge length 1..d_max are enumerated depth-first; those crossing layers at
least twice are candidates, and the ones exceeding the novelty threshold are
ranked deterministically. ``enumerate_oracle`` is a deliberately naive
exhaustive re-implementation (recursive DFS over the public graph API, no
pruning) kept as the correctness reference: on any graph small enough to
enumerate, ``discover`` must produce the identical result.

F_max is fixed before traversal in both modes, so a candidate is scored as
it is found. Every source runs on the calling thread; the sources share one
record buffer, kept to the ``top_k`` best, and its bar, the ``top_k``-th
best total so far. Two cuts compare ``_extension_bound``, an admissible
upper bound on the total of any extension of a pathway, with a threshold:

- the bar cut, always on: a subtree whose bound is below the bar cannot
  reach the top k, so the same walk counts its candidates but scores none;
- the θ rule, in edge-max mode with ``prune`` only: a subtree whose bound is
  at most θ is skipped, and its candidates go uncounted.

Neither cut changes the returned pathways, and neither does the order of
the walk. ``candidates_enumerated``, a diagnostic counter, counts every
candidate except those under the θ rule, whatever ``top_k`` and the order
of the sources; ``candidates_scored`` counts the ones that were scored.

Counting a cut subtree costs less than walking it. Its last hop is counted
from its end entity's targets. When the θ rule is off and the walk is
directed, a cut subtree with two hops left is counted from per-entity
tables (``_two_hop_tables``) unless a pathway entity lies within two hops
of its end; such a conflict falls back to the walk. Under the θ rule each
inner frame must still be tested against θ, and undirected the pathway's
last entity is always one hop from its end, so no tables are built there.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DiscoveryError
from .graph import KnowledgeGraph, Layer, collector_paused
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
    """Ranked pathways and how they were found.

    ``candidates_scored`` (the candidates that were scored rather than only
    counted) is a diagnostic and stays out of :meth:`to_json_dict`.
    """

    pathways: list[tuple[Pathway, ScoreBreakdown]]
    config_echo: ScoringConfig
    f_max_used: int
    candidates_enumerated: int
    candidates_scored: int
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
    severity. The IP term is the largest mean over every number of added
    hops, each sum built one hop at a time as the traversal builds a
    pathway's, so float rounding never lifts a real extension's total above
    the bound, not even at a tie.
    """
    k_max = config.d_max - (num_entities - 1)
    clc_bound = (transitions + k_max) / (num_entities - 1 + k_max)
    ip_bound = 0.0
    for hops in range(1, k_max + 1):
        impact_sum += max_impact
        ip = impact_sum / (num_entities + hops)
        if ip > ip_bound:
            ip_bound = ip
    return combine(1.0, clc_bound, ip_bound, config)


class _GraphIndex:
    """Dense integer view of the graph for the traversal hot loop.

    The graph holds no adjacency index; this one lists each relation, in id
    order, under its source and, undirected, under its target (a self-loop
    once). Walk order never reaches the output. Adjacency entries are
    ``(target, relation, step_docs)``: a hop keeps the pathway's docs that
    are in ``step_docs``, the relation's docs or, in ``entities`` mode, the
    target's. ``entity_docs`` (the entity doc index) and each ``start_docs``
    entry are None in ``docs`` mode. ``targets`` and ``cross_targets`` list
    each entity's adjacency targets, all of them and those on another layer,
    to count a pathway's last hop; ``_two_hop_tables`` derives from them
    the counts of a cut subtree's last two hops.
    """

    def __init__(self, graph: KnowledgeGraph, corpus_stats: CorpusStats,
                 centrality: CentralityScores, freq_mode: str, undirected: bool):
        self.entity_ids = list(graph.entities)
        index = {eid: i for i, eid in enumerate(self.entity_ids)}
        layer = self.layer = [graph.entities[eid].layer.rank for eid in self.entity_ids]
        try:
            self.sevcent = [centrality.normalized[eid] * graph.entities[eid].severity
                            for eid in self.entity_ids]
        except KeyError as exc:
            raise DiscoveryError(f"centrality missing entity {exc}") from None
        self.relation_ids = list(graph.relations)
        by_entity = self.entity_docs = (
            entity_doc_index(graph) if freq_mode == FREQ_ENTITIES else None)
        self.start_docs = [None if by_entity is None else by_entity[eid]
                           for eid in self.entity_ids]
        edge_docs = corpus_stats.edge_doc_index
        if by_entity is None and (missing := graph.relations.keys() - edge_docs.keys()):
            raise DiscoveryError(f"corpus stats missing relation {min(missing)!r}")
        adjacency = self.adjacency = [[] for _ in self.entity_ids]
        for r, rel in enumerate(graph.relations.values()):
            a, b = index[rel.source], index[rel.target]
            for here, there in ((a, b), (b, a)) if undirected and a != b else ((a, b),):
                adjacency[here].append((there, r, edge_docs[rel.id] if by_entity is None
                                        else self.start_docs[there]))
        self.targets = [tuple(target for target, _, _ in adj) for adj in self.adjacency]
        self.cross_targets = [
            tuple(target for target in targets if layer[target] != layer[entity])
            for entity, targets in enumerate(self.targets)]
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


def _two_hop_tables(index: _GraphIndex) -> tuple[list, tuple[list, list, list]]:
    """Per-entity tables that count a count-only subtree's last two hops.

    Returns ``(near, counts)``. ``near[v]`` is a tuple of the entities one
    or two adjacency hops from ``v``, each once. ``counts[c][v]``, for ``c``
    of 0, 1 and 2 (2 or more) layer transitions on a pathway ending at
    ``v``, is the number of candidates among its one- and two-hop
    extensions, provided that no other pathway entity is in ``near[v]``.
    Each adjacency entry counts, so parallel relations count apart; a hop
    onto the entity it leaves (a self-loop) or back to ``v`` is no
    extension.
    """
    layer, targets, cross_targets = index.layer, index.targets, index.cross_targets
    onward = [len(hops) - hops.count(u) for u, hops in enumerate(targets)]
    near = []
    counts = ([], [], [])
    for v, firsts in enumerate(targets):
        reach = set(firsts)
        c0 = c1 = c2 = 0
        for u in firsts:
            if u == v:
                continue
            reach.update(targets[u])
            # u is a candidate once the pathway has crossed layers twice; its
            # last hops are then all of its targets, after one crossing only
            # those on another layer, and none before
            back = targets[u].count(v)
            if layer[u] != layer[v]:
                c0 += len(cross_targets[u]) - back
                c1 += 1 + onward[u] - back
            else:
                c1 += len(cross_targets[u])
            c2 += 1 + onward[u] - back
        near.append(tuple(reach))
        counts[0].append(c0)
        counts[1].append(c1)
        counts[2].append(c2)
    return near, counts


def _top_candidates(index: _GraphIndex, config: ScoringConfig, f_max: int,
                    prune: bool, max_impact: float,
                    undirected: bool) -> tuple[list, int, int]:
    """Enumerate the candidates from every source and keep the best records.

    Returns (the ``top_k`` best records, candidates enumerated, candidates
    scored). A record is ``(-total, entity count, entity idx tuple, relation
    idx tuple, f, lf, clc, ip)``; entity and relation indexes follow sorted
    ids, so records sort in :func:`rank_top_k`'s order.

    One depth-first walk over one stack covers all the sources. A frame is
    ``(path, rels, transitions, impact sum, docs)``; a count-only frame has
    ``rels`` and ``docs`` None, and its candidates are counted, not scored.
    A count-only subtree whose extensions are all last hops is not pushed:
    its candidates are counted from the last entity's ``targets`` (its
    ``cross_targets`` when the pathway has crossed layers once), less the
    targets already on the pathway. Without ``prune``, on a directed walk
    with ``d_max`` at least 3, a count-only subtree with two hops left is
    not pushed either when no other pathway entity is in ``near`` of its
    end: it adds that end's entry of ``_two_hop_tables``. A conflict pushes
    it as before; with ``prune``, undirected or below ``d_max`` 3 the tables
    are not built.

    The bar is the ``top_k``-th best total among the records kept so far,
    −∞ until there are ``top_k`` of them. Every record is a real candidate,
    so the bar never exceeds the final ``top_k``-th total. A candidate below
    the bar gets no record, and a subtree whose bound is below it goes on
    the stack count-only; both comparisons are strict, so ties at the
    ``top_k``-th place still go to the tie-breaks. With ``prune`` the θ rule
    comes first, in both kinds of frame: a subtree whose bound is at most θ
    is neither scored nor counted. Without ``prune`` a count-only frame
    computes no bound at all.
    """
    alpha, beta, gamma = config.alpha, config.beta, config.gamma
    theta, d_max, top_k = config.theta_novelty, config.d_max, config.top_k
    adjacency, layer, sevcent = index.adjacency, index.layer, index.sevcent
    targets, cross_targets = index.targets, index.cross_targets
    trim_at = 4 * top_k  # trimming at a multiple of top_k: O(log top_k) per record
    if prune or undirected or d_max < 3:
        two_left = 0  # no frame has that length: the tables are never read
    else:
        two_left = d_max - 1
        near, two_hop = _two_hop_tables(index)

    records = []
    append_record = records.append
    bar = -math.inf
    counted = scored = 0
    stack = [((source,), (), 0, 0.0 + sevcent[source], index.start_docs[source])
             for source in reversed(index.sources)]  # popped in source order
    push, pop = stack.append, stack.pop
    while stack:
        path, rels, transitions, impact_sum, docs = pop()
        last = path[-1]
        n = len(path) + 1  # entities in a one-hop extension
        deeper = n <= d_max  # a one-hop extension can be extended again
        last_layer = layer[last]
        for target, rid, step in adjacency[last]:
            if target in path:
                continue
            new_transitions = transitions + (layer[target] != last_layer)
            new_impact = impact_sum + sevcent[target]
            if rels is None:
                counted += new_transitions >= 2
            else:
                new_docs = step if docs is None else docs & step
                if new_transitions >= 2:
                    scored += 1
                    f = len(new_docs)
                    clc = new_transitions / (n - 1)
                    ip = new_impact / n
                    # expression kept identical to literature_frequency/combine
                    lf = 1.0 if f_max == 0 else 1.0 - f / f_max
                    total = alpha * lf + beta * clc + gamma * ip
                    if total >= bar and total > theta:
                        append_record((-total, n, path + (target,), rels + (rid,),
                                       f, lf, clc, ip))
                        if len(records) >= trim_at:
                            records = heapq.nsmallest(top_k, records)
                            append_record = records.append
                            bar = -records[-1][0]
            if not deeper:
                continue
            if prune or rels is not None:
                bound = _extension_bound(n, new_transitions, new_impact,
                                         config, max_impact)
                if prune and bound <= theta:
                    continue
            if rels is not None and bound >= bar:
                push((path + (target,), rels + (rid,), new_transitions,
                      new_impact, new_docs))
            elif n == two_left and not any(map(near[target].__contains__, path)):
                counted += two_hop[min(new_transitions, 2)][target]
            elif n < d_max:
                push((path + (target,), None, new_transitions, new_impact, None))
            elif new_transitions:
                last_hop = targets[target] if new_transitions >= 2 else cross_targets[target]
                counted += (len(last_hop) - sum(map(last_hop.count, path))
                            - last_hop.count(target))
    return heapq.nsmallest(top_k, records), counted + scored, scored


def discover(graph: KnowledgeGraph, corpus_stats: CorpusStats,
             centrality: CentralityScores, config: ScoringConfig,
             workers: int = 1, prune: bool | None = None,
             undirected: bool = False) -> DiscoveryResult:
    """Run the full constrained depth-first discovery; return ranked pathways.

    Every candidate is either scored or, in a subtree that cannot reach the
    top k, counted without scoring (``candidates_scored`` tells them apart).
    ``prune`` turns on the θ rule, which skips subtrees that cannot beat θ
    and leaves their candidates uncounted; it defaults to on in edge-max
    mode and is ignored in pathway-max mode, whose ``candidates_enumerated``
    counts every candidate. ``workers`` is accepted for compatibility and
    has no effect: every source runs on the calling thread. The cyclic
    garbage collector is paused while the index is built and traversed
    (``graph.collector_paused``).
    """
    with collector_paused():
        index = _GraphIndex(graph, corpus_stats, centrality, config.freq_mode, undirected)
        if config.fmax_mode == FMAX_PATHWAY:
            f_max = _pathway_f_max(index, config.d_max)
            prune = False
        else:
            f_max = edge_max_frequency(graph, corpus_stats, config.freq_mode,
                                       index.entity_docs)
            prune = prune is None or bool(prune)
        max_impact = max(index.sevcent, default=0.0)
        top, enumerated, scored = _top_candidates(index, config, f_max, prune,
                                                  max_impact, undirected)

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
        candidates_enumerated=enumerated,
        candidates_scored=scored,
        sources_processed=len(index.sources),
    )


def enumerate_oracle(graph: KnowledgeGraph, corpus_stats: CorpusStats,
                     centrality: CentralityScores, config: ScoringConfig,
                     undirected: bool = False) -> DiscoveryResult:
    """Exhaustive DFS reference implementation over the public graph API.

    No pruning and no shared traversal machinery with ``discover``; scoring
    composes the public per-component operations. ``out_neighbors`` scans
    every relation, so it is called once per entity, up front. The caller
    is responsible for keeping the graph small enough to enumerate.
    """
    entity_docs = None
    if config.freq_mode == FREQ_ENTITIES:
        entity_docs = entity_doc_index(graph)
    neighbors = {eid: graph.out_neighbors(eid, undirected=undirected) for eid in graph.entities}

    candidates: list[tuple[Pathway, int, float, float]] = []
    sources = [eid for eid, entity in graph.entities.items()
               if entity.layer is Layer.PHYSICAL]

    def extend(entities: tuple[str, ...], relations: tuple[str, ...]) -> None:
        if len(relations) >= config.d_max:
            return
        for rid, neighbor in neighbors[entities[-1]]:
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
        candidates_scored=len(candidates),
        sources_processed=len(sources),
    )
