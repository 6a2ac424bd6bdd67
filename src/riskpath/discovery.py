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
  reach the top k, so its candidates are counted but none is scored; here
  the bound takes the impact of the entity appended at hop j to be at most
  the largest among the entities within j hops of the pathway's end
  (``_hop_maxima``);
- the θ rule, in edge-max mode with ``prune`` only: a subtree whose bound is
  at most θ is skipped, and its candidates go uncounted. With the rule on,
  both cuts take the graph-wide maximum impact at every hop, because a
  tighter bound would skip more subtrees and so change the counter.

Neither cut changes the returned pathways, and neither does the order of
the walk. ``candidates_enumerated``, a diagnostic counter, counts every
candidate except those under the θ rule, whatever ``top_k`` and the order
of the sources; ``candidates_scored`` counts the ones that were scored.

Counting a cut subtree costs less than walking it (``_count_cut``). When
the θ rule is off and the walk is directed, per-hop tables give each
entity's count of candidates within h hops, and a bit signature of the
entities within h hops of it. A cut subtree adds its table entry when that
signature shares no bit with the pathway's; otherwise it is walked one hop,
and each child tries the tables again. A shared bit may be a collision,
which costs a walk but never a wrong count. A last hop is counted from its
end entity's targets. Under the θ rule each inner frame must still be
tested against θ, and undirected the pathway's previous entity is always
one hop from its end, so no tables are built there and cut subtrees are
walked.
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
                     config: ScoringConfig, max_impact: float,
                     reach: tuple[float, ...] | None = None) -> float:
    """Admissible upper bound on the total of any strict extension.

    LF can only reach 1; CLC's best case adds a layer transition on every
    remaining hop (monotone in the number of hops added); IP's best case
    appends, at hop j, an entity at ``reach[j - 1]``, the largest normalized
    centrality times severity among the entities 1..j adjacency hops from
    the pathway's last entity (``R_j``, see :func:`_hop_maxima`), or at
    ``max_impact``, the graph-wide maximum, when ``reach`` is None. The IP
    term is the largest mean over every number of added hops, each sum built
    one hop at a time as the traversal builds a pathway's, so float rounding
    never lifts a real extension's total above the bound, not even at a tie.
    """
    k_max = config.d_max - (num_entities - 1)
    clc_bound = (transitions + k_max) / (num_entities - 1 + k_max)
    ip_bound = 0.0
    for hop in range(k_max):
        impact_sum += max_impact if reach is None else reach[hop]
        ip = impact_sum / (num_entities + hop + 1)
        if ip > ip_bound:
            ip_bound = ip
    # expression kept identical to combine
    return config.alpha * 1.0 + config.beta * clc_bound + config.gamma * ip_bound


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
    to count a pathway's last hop; ``_hop_maxima`` derives the per-entity
    impact bound from ``targets``, and ``_cut_tables`` its count tables.
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
                    a0, a1, a2 = (_count_cut([((v, u), bit[v] | bit[u], c, 0.0, 1)],
                                             index, config, False, 0.0, ([], []))
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


def _count_cut(stack: list, index: _GraphIndex, config: ScoringConfig, prune: bool,
               max_impact: float, tables: tuple[list, list]) -> int:
    """The candidates among the extensions of the pathways on ``stack``.

    A frame is ``(path, bits, transitions, impact sum, hops)``: the pathway,
    its signature and layer transitions, and the number of hops its
    extensions may add. The walk takes one hop at a time. A child with one
    hop left counts its last hops from its ``targets`` (``cross_targets``
    after one transition) less those on the pathway. A child with ``h``
    hops left adds its ``counts[h - 2]`` entry of ``tables`` (see
    :func:`_cut_tables`) when its ``sigs[h - 2]`` shares no bit with the
    pathway's signature, and is walked the same way otherwise. A shared bit
    may be a collision, which costs a walk but never a wrong count. With
    ``prune`` (the θ rule) a child that could be extended is skipped, its
    candidates uncounted, when its ``_extension_bound`` with the graph-wide
    ``max_impact`` is at most θ.
    """
    adjacency, layer, sevcent = index.adjacency, index.layer, index.sevcent
    targets, cross_targets = index.targets, index.cross_targets
    theta = config.theta_novelty
    sigs, counts = tables
    tiers = len(sigs) + 1  # the most hops left that a table covers
    width = _SIGNATURE_BITS if sigs else 1  # as in _top_candidates
    total = 0
    push, pop = stack.append, stack.pop
    while stack:
        path, bits, transitions, impact_sum, hops = pop()
        last = path[-1]
        last_layer = layer[last]
        n = len(path) + 1  # entities in a one-hop extension
        hops -= 1  # hops left after it
        for target, _, _ in adjacency[last]:
            if target in path:
                continue
            new_transitions = transitions + (layer[target] != last_layer)
            total += new_transitions >= 2
            if not hops:
                continue
            new_impact = impact_sum + sevcent[target]
            if prune and _extension_bound(n, new_transitions, new_impact,
                                          config, max_impact) <= theta:
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
                      new_transitions, new_impact, hops))
    return total


def _top_candidates(index: _GraphIndex, config: ScoringConfig, f_max: int,
                    prune: bool, max_impact: float,
                    undirected: bool) -> tuple[list, int, int]:
    """Enumerate the candidates from every source and keep the best records.

    Returns (the ``top_k`` best records, candidates enumerated, candidates
    scored). A record is ``(-total, entity count, entity idx tuple, relation
    idx tuple, f, lf, clc, ip)``; entity and relation indexes follow sorted
    ids, so records sort in :func:`rank_top_k`'s order.

    One depth-first walk over one stack covers all the sources, and each of
    its frames, ``(path, rels, bits, transitions, impact sum, docs)``, is
    scored; ``bits`` is the path's signature (:func:`_cut_tables`).

    The bar is the ``top_k``-th best total among the records kept so far,
    −∞ until there are ``top_k`` of them. Every record is a real candidate,
    so the bar never exceeds the final ``top_k``-th total. A candidate below
    the bar gets no record, and a subtree whose bound is below it is cut:
    its candidates are counted, not scored, as in :func:`_count_cut`, which
    walks the cut children of a frame that no last-hop count or table entry
    covers. Both comparisons are strict, so ties at the ``top_k``-th place
    still go to the tie-breaks. The bound takes each entity's per-hop maxima
    (:func:`_hop_maxima`). With ``prune`` it takes the graph-wide maximum at
    every hop instead, and the θ rule comes first: a subtree whose bound is
    at most θ is neither scored nor counted. A tighter bound there would
    skip more, and lower ``candidates_enumerated``.
    """
    alpha, beta, gamma = config.alpha, config.beta, config.gamma
    theta, d_max, top_k = config.theta_novelty, config.d_max, config.top_k
    adjacency, layer, sevcent = index.adjacency, index.layer, index.sevcent
    targets, cross_targets = index.targets, index.cross_targets
    trim_at = 4 * top_k  # trimming at a multiple of top_k: O(log top_k) per record
    # with the θ rule each inner frame must be tested against θ, undirected
    # a pathway's previous entity is always one hop from its end, and below
    # d_max 4 a table would cover no count
    tables = ([], []) if prune or undirected or d_max < 4 else _cut_tables(index, config)
    sigs, counts = tables
    tiers = len(sigs) + 1  # the most hops left that a table covers
    # without tables no signature is read, and one-bit signatures cost least
    width = _SIGNATURE_BITS if sigs else 1
    reach = [None] * len(sevcent) if prune else _hop_maxima(index, d_max - 1)

    records = []
    append_record = records.append
    bar = -math.inf
    counted = scored = 0
    stack = [((source,), (), 1 << source % width, 0, 0.0 + sevcent[source],
              index.start_docs[source])
             for source in reversed(index.sources)]  # popped in source order
    push, pop = stack.append, stack.pop
    while stack:
        path, rels, bits, transitions, impact_sum, docs = pop()
        last = path[-1]
        n = len(path) + 1  # entities in a one-hop extension
        hops = d_max + 1 - n  # hops left after it
        last_layer = layer[last]
        cut = []
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
            if not hops:
                continue
            bound = _extension_bound(n, new_transitions, new_impact, config,
                                     max_impact, reach[target])
            if prune and bound <= theta:
                continue
            if bound >= bar:
                push((path + (target,), rels + (rid,), bits | 1 << target % width,
                      new_transitions, new_impact, new_docs))
            elif hops == 1:
                if new_transitions:
                    last_hop = (targets[target] if new_transitions >= 2
                                else cross_targets[target])
                    counted += (len(last_hop) - sum(map(last_hop.count, path))
                                - last_hop.count(target))
            elif hops <= tiers and not sigs[hops - 2][target] & bits:
                counted += counts[hops - 2][min(new_transitions, 2)][target]
            else:
                cut.append((path + (target,), bits | 1 << target % width,
                            new_transitions, new_impact, hops))
        if cut:
            counted += _count_cut(cut, index, config, prune, max_impact, tables)
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
