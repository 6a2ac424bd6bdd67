"""Constrained depth-first discovery of cross-layer risk pathways.

Starting from every physical-layer entity, all simple directed pathways of
edge length 1..d_max are enumerated depth-first; those crossing layers at
least twice are candidates, and the ones exceeding the novelty threshold are
ranked deterministically. ``enumerate_oracle`` is a deliberately naive
exhaustive re-implementation (recursive DFS over the public graph API, no
pruning) kept as the correctness reference: on any graph small enough to
enumerate, ``discover`` must produce the identical result.

No simple pathway has more than |V| - 1 hops, so every pass runs at
``d_max`` clamped to that; the result still echoes the caller's ``d_max``.

F_max is fixed before traversal in both modes, so the walk scores a
candidate as it finds it. Every source runs on the calling thread; the
sources share one record buffer, kept to the ``top_k`` best, and its bar,
the ``top_k``-th best total so far. One cut compares ``_extension_bound``,
an admissible upper bound on the total of any extension of a pathway, with
the bar and with θ: a subtree whose bound is below the bar or at most θ can
add no pathway to the result, so the walk does not enter it. The bound
takes the impact of the entity appended at hop j to be at most the largest
among the entities within j hops of the pathway's end (``_hop_maxima``).
Neither the cut nor the order of the walk changes the returned pathways;
``candidates_scored`` counts the candidates the walk scored.

``candidates_enumerated``, a diagnostic counter, counts every candidate,
whatever ``top_k`` and θ. A pass of its own, after the walk, counts them
from the sources (``_count_cut``) without scoring any. When the walk is
directed, per-hop tables give each entity's count of candidates within h
hops, and a bit signature of the entities within h hops of it
(``_cut_tables``). A subtree adds its table entry when that signature
shares no bit with the pathway's; otherwise it is walked one hop, and each
child tries the tables again. A shared bit may be a collision, which costs
a walk but never a wrong count. A last hop is counted from its end entity's
targets. Undirected, the pathway's previous entity is always one hop from
its end, so no tables are built there and every subtree is walked.
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


_SIGNATURE_BITS = 1024
"""Width of the cut-count tables' bit signatures: entity ``v`` sets bit
``v % _SIGNATURE_BITS``. A shared bit only sends a subtree to the exact walk,
so any width gives the same counts."""


def _extension_bound(num_entities: int, transitions: int, impact_sum: float,
                     config: ScoringConfig, reach: tuple[float, ...]) -> float:
    """Admissible upper bound on the total of any strict extension.

    LF can only reach 1; CLC's best case adds a layer transition on every
    remaining hop (monotone in the number of hops added); IP's best case
    appends, at hop j, an entity at ``reach[j - 1]``, the largest normalized
    centrality times severity among the entities 1..j adjacency hops from
    the pathway's last entity (``R_j``, see :func:`_hop_maxima`). The IP
    term is the largest mean over every number of added hops, each sum built
    one hop at a time as the traversal builds a pathway's, so float rounding
    never lifts a real extension's total above the bound, not even at a tie.
    """
    k_max = config.d_max - (num_entities - 1)
    clc_bound = (transitions + k_max) / (num_entities - 1 + k_max)
    ip_bound = 0.0
    for hop in range(k_max):
        impact_sum += reach[hop]
        ip = impact_sum / (num_entities + hop + 1)
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
    for the counting pass to count a pathway's last hop; ``_hop_maxima``
    derives the walk's per-entity impact bound from ``targets``, and
    ``_cut_tables`` the counting pass's tables.
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


def _hop_maxima(index: _GraphIndex, hops: int) -> list[tuple[float, ...]]:
    """``(R_1(v), ..., R_hops(v))`` for every entity ``v``.

    ``R_j(v)`` is the largest normalized centrality times severity among the
    entities 1..j adjacency hops from ``v`` (0.0 when there is none), so it
    bounds the impact of the entity that an extension ending at ``v``
    appends at hop j. It takes ``hops`` passes over ``targets``: ``R_j(v)``
    is the larger of ``R_1(v)`` and every target's ``R_(j-1)``.
    """
    sevcent, targets = index.sevcent, index.targets
    level = [max(map(sevcent.__getitem__, ends), default=0.0) for ends in targets]
    levels = [level]
    for _ in range(hops - 1):
        level = [max(one, max(map(level.__getitem__, ends), default=one))
                 for ends, one in zip(targets, levels[0])]
        levels.append(level)
    return list(zip(*levels))


def _cut_tables(index: _GraphIndex, config: ScoringConfig) -> tuple[list, list]:
    """Per-hop tables that count a cut subtree's candidates.

    Returns ``(sigs, counts)`` for h = 2..``d_max`` - 2 hops; one hop left
    is counted from ``targets``. Level h is built in one pass over
    ``targets`` from level h - 1, starting at h = 1. A signature has bit
    ``v % _SIGNATURE_BITS`` set for each of a set of entities ``v``;
    ``sigs[h - 2][v]`` is that of the entities 1..h adjacency hops from
    ``v``. ``counts[h - 2][c][v]`` is the number of candidates among ``v``'s
    1..h hop extensions when ``v`` ends a pathway with ``c`` layer
    transitions (2 for 2 or more) and no other pathway entity is within
    ``h`` hops of it. Each adjacency entry counts, so parallel relations
    count apart; a hop onto the entity it leaves (a self-loop) or back onto
    the pathway is no extension.

    A target ``u`` of ``v`` whose level below has ``v``'s bit might lead
    back to ``v``. At h = 2 :func:`_count_cut` counts ``u``'s last hops
    instead. Deeper, that walk would take h - 1 hops for each such target,
    and on a graph whose signatures fill up, for nearly every one; so
    ``v``'s signature becomes -1, every bit, its counts are left unused, and
    each lookup of it walks.
    """
    layer, targets, width = index.layer, index.targets, _SIGNATURE_BITS
    sigs, counts = [], []
    bit = [1 << v % width for v in range(len(layer))]
    sig = [0] * len(layer)  # the level below: nothing within 0 hops
    below = ([0] * len(layer),) * 3
    for h in range(1, config.d_max - 1):
        level_sig, c0, c1, c2 = [], [], [], []
        for v, ends in enumerate(targets):
            here = layer[v]
            near = n0 = n1 = n2 = 0
            for u in ends:
                if u == v:
                    continue
                near |= bit[u] | sig[u]
                if not sig[u] & bit[v]:
                    a0, a1, a2 = below[0][u], below[1][u], below[2][u]
                elif h == 2:
                    a0, a1, a2 = (_count_cut([((v, u), bit[v] | bit[u], c, 1)],
                                             index, ([], []), width)
                                  for c in range(3))
                else:
                    near = -1
                    break
                # u is a candidate once the pathway has crossed layers twice
                if layer[u] != here:
                    n0 += a1
                    n1 += 1 + a2
                else:
                    n0 += a0
                    n1 += a1
                n2 += 1 + a2
            level_sig.append(near)
            c0.append(n0)
            c1.append(n1)
            c2.append(n2)
        sig, below = level_sig, (c0, c1, c2)
        if h > 1:  # one hop left is counted from targets
            sigs.append(sig)
            counts.append(below)
    return sigs, counts


def _count_cut(stack: list, index: _GraphIndex, tables: tuple[list, list], width: int) -> int:
    """The candidates among the extensions of the pathways on ``stack``.

    This is the one place candidates are counted: :func:`discover` calls it
    once, with a frame per source, and :func:`_cut_tables` on the pathways
    that its h = 2 level cannot take from the level below. A frame is
    ``(path, bits, transitions, hops)``: the pathway, its signature (bit
    ``v % width`` for each entity ``v``) and layer transitions, and the
    number of hops its extensions may add. The walk takes one hop at a time.
    A child with one hop left counts its last hops from its ``targets``
    (``cross_targets`` after one transition) less those on the pathway. A
    child with ``h`` hops left adds its ``counts[h - 2]`` entry of
    ``tables`` when its ``sigs[h - 2]`` shares no bit with the pathway's
    signature, and is walked the same way otherwise. A shared bit may be a
    collision, which costs a walk but never a wrong count.
    """
    adjacency, layer = index.adjacency, index.layer
    targets, cross_targets = index.targets, index.cross_targets
    sigs, counts = tables
    tiers = len(sigs) + 1  # the most hops left that a table covers
    total = 0
    push, pop = stack.append, stack.pop
    while stack:
        path, bits, transitions, hops = pop()
        last = path[-1]
        last_layer = layer[last]
        hops -= 1  # hops left after a one-hop extension
        for target, _, _ in adjacency[last]:
            if target in path:
                continue
            new_transitions = transitions + (layer[target] != last_layer)
            total += new_transitions >= 2
            if not hops:
                continue
            if hops == 1:
                if new_transitions:
                    last_hop = (targets[target] if new_transitions >= 2
                                else cross_targets[target])
                    total += (len(last_hop) - sum(map(last_hop.count, path))
                              - last_hop.count(target))
            elif hops <= tiers and not sigs[hops - 2][target] & bits:
                total += counts[hops - 2][min(new_transitions, 2)][target]
            else:
                push((path + (target,), bits | 1 << target % width,
                      new_transitions, hops))
    return total


def _top_candidates(index: _GraphIndex, config: ScoringConfig,
                    f_max: int) -> tuple[list, int]:
    """Score the candidates from every source and keep the best records.

    Returns (the ``top_k`` best records, candidates scored). A record is
    ``(-total, entity count, entity idx tuple, relation idx tuple, f, lf,
    clc, ip)``; entity and relation indexes follow sorted ids, so records
    sort in :func:`rank_top_k`'s order.

    One depth-first walk over one stack covers all the sources, and each of
    its frames, ``(path, rels, transitions, impact sum, docs)``, is scored.

    The bar is the ``top_k``-th best total among the records kept so far,
    −∞ until there are ``top_k`` of them. Every record is a real candidate,
    so the bar never exceeds the final ``top_k``-th total. A candidate below
    the bar or at most θ gets no record, and a child whose bound
    (:func:`_hop_maxima` per hop) is below the bar or at most θ is not
    pushed. Both comparisons with the bar are strict, so ties at the
    ``top_k``-th place still go to the tie-breaks.
    """
    theta, d_max, top_k = config.theta_novelty, config.d_max, config.top_k
    adjacency, layer, sevcent = index.adjacency, index.layer, index.sevcent
    trim_at = 4 * top_k  # trimming at a multiple of top_k: O(log top_k) per record
    reach = _hop_maxima(index, d_max - 1)

    records = []
    append_record = records.append
    bar = -math.inf
    scored = 0
    stack = [((source,), (), 0, 0.0 + sevcent[source], index.start_docs[source])
             for source in reversed(index.sources)]  # popped in source order
    push, pop = stack.append, stack.pop
    while stack:
        path, rels, transitions, impact_sum, docs = pop()
        last = path[-1]
        n = len(path) + 1  # entities in a one-hop extension
        last_layer = layer[last]
        for target, rid, step in adjacency[last]:
            if target in path:
                continue
            new_transitions = transitions + (layer[target] != last_layer)
            new_impact = impact_sum + sevcent[target]
            new_docs = step if docs is None else docs & step
            if new_transitions >= 2:
                scored += 1
                f = len(new_docs)
                clc = new_transitions / (n - 1)
                ip = new_impact / n
                lf = literature_frequency(f, f_max)
                total = combine(lf, clc, ip, config)
                if total >= bar and total > theta:
                    append_record((-total, n, path + (target,), rels + (rid,),
                                   f, lf, clc, ip))
                    if len(records) >= trim_at:
                        records = heapq.nsmallest(top_k, records)
                        append_record = records.append
                        bar = -records[-1][0]
            if n <= d_max:  # the extension has hops left
                bound = _extension_bound(n, new_transitions, new_impact, config,
                                         reach[target])
                if bound >= bar and bound > theta:
                    push((path + (target,), rels + (rid,), new_transitions,
                          new_impact, new_docs))
    return heapq.nsmallest(top_k, records), scored


def discover(graph: KnowledgeGraph, corpus_stats: CorpusStats,
             centrality: CentralityScores, config: ScoringConfig,
             workers: int = 1, prune: bool | None = None,
             undirected: bool = False) -> DiscoveryResult:
    """Run the full constrained depth-first discovery; return ranked pathways.

    The scoring walk (:func:`_top_candidates`) enters no subtree that cannot
    reach the top k or beat θ; a counting pass after it (:func:`_count_cut`)
    counts every candidate, so ``candidates_scored`` is at most
    ``candidates_enumerated``. Every pass runs at ``config.d_max`` clamped
    to the |V| - 1 hops of the longest simple pathway; ``config_echo``, and
    so the result's ``d_max``, keeps the caller's value. ``workers`` and
    ``prune`` are accepted for compatibility and have no effect: every
    source runs on the calling thread, and one cut serves both F_max modes.
    The cyclic garbage collector is paused while the index is built and
    traversed (``graph.collector_paused``).
    """
    walk = config.override(d_max=min(config.d_max, max(len(graph.entities) - 1, 1)))
    d_max = walk.d_max
    with collector_paused():
        index = _GraphIndex(graph, corpus_stats, centrality, config.freq_mode, undirected)
        if config.fmax_mode == FMAX_PATHWAY:
            f_max = _pathway_f_max(index, d_max)
        else:
            f_max = edge_max_frequency(graph, corpus_stats, config.freq_mode,
                                       index.entity_docs)
        top, scored = _top_candidates(index, walk, f_max)
        # undirected a pathway's previous entity is always one hop from its
        # end, and below d_max 4 a table would cover no count
        tabled = not undirected and d_max >= 4
        # without tables no signature is read, and one-bit signatures cost least
        width = _SIGNATURE_BITS if tabled else 1
        # the tables are freed when the count returns, before the ranking
        enumerated = _count_cut([((source,), 1 << source % width, 0, d_max)
                                 for source in index.sources], index,
                                _cut_tables(index, walk) if tabled else ([], []), width)

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
