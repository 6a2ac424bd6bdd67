"""Numeric components of the pathway novelty score.

A pathway's novelty is the weighted combination

    total = alpha * LF + beta * CLC + gamma * IP

with LF the inverse-normalized literature co-attestation frequency
(1 - f / F_max), CLC the fraction of consecutive entity pairs that cross
layers, and IP the mean of normalized PageRank centrality times severity
over the pathway's entities. Default weights are 0.5 / 0.3 / 0.2.

All operations are pure functions over immutable inputs and safe to call
concurrently. PageRank itself is a single-threaded deterministic power
iteration on a sparse column-stochastic matrix with uniform teleport and
uniform redistribution of dangling-node mass. The sparse matrix is three numpy
arrays (target row, source column, weight), one entry per linked pair, sorted
by row and then column; each iteration forms the product with ``np.bincount``
over the rows, which adds each row's terms in that order. numpy is imported
inside :func:`pagerank` alone, so a process that only reads stored scores
(``discover`` with a reusable ``pagerank.json``, ``stats``, ``report``,
``export``) never pays its start-up time or memory.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys
from dataclasses import dataclass, asdict, fields, replace
from typing import TYPE_CHECKING, Mapping

from .errors import ConfigError, ScoringError
from .graph import KnowledgeGraph
from .ingest import CorpusStats

if TYPE_CHECKING:  # pragma: no cover
    from .discovery import Pathway

logger = logging.getLogger(__name__)

FMAX_PATHWAY = "pathway-max"
FMAX_EDGE = "edge-max"
FREQ_DOCS = "docs"
FREQ_ENTITIES = "entities"

WEIGHT_SUM_TOLERANCE = 1e-12

# annotation -> accepted value types; an int is a valid float, a bool is no number
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,),
                "list[str]": (list,)}


def check_field_types(config) -> None:
    """Raise ConfigError naming the first dataclass field whose value does not
    match its ``int``/``float``/``str``/``bool``/``list[str]`` annotation,
    read as a string (``| None`` admits None); a float must be finite. Fields
    of other types keep their own checks."""
    for f in fields(config):
        base, _, optional = f.type.partition(" | ")
        allowed = _FIELD_TYPES.get(base)
        value = getattr(config, f.name)
        if allowed is None or (optional == "None" and value is None):
            continue
        if (isinstance(value, bool) != (bool in allowed) or not isinstance(value, allowed)
                # false for NaN, infinities and ints no float can hold
                or (base == "float" and not abs(value) <= sys.float_info.max)
                or (base == "list[str]" and not all(isinstance(v, str) for v in value))):
            raise ConfigError(f"{type(config).__name__} field {f.name!r} must be "
                              f"{'a finite float' if base == 'float' else f.type}, "
                              f"got {value!r}")


def read_json_object(path, what: str) -> dict:
    """The JSON object a UTF-8 file holds. A file that cannot be read or
    decoded, or that holds another JSON type, is a ConfigError naming
    ``what`` the file should hold."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON or not UTF-8; RecursionError: nested too deeply
        raise ConfigError(f"cannot load {what} {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return data


@dataclass(frozen=True)
class ScoringConfig:
    """Weights, thresholds, and traversal/centrality parameters.

    ``fmax_mode`` picks the LF normalizer: ``pathway-max`` takes the maximum
    co-attestation frequency over all discovered candidates, ``edge-max``
    the maximum single-edge document frequency (an upper bound on any
    pathway frequency). ``freq_mode`` counts documents attesting every
    relation of the pathway (``docs``) or every entity (``entities``).
    """

    alpha: float = 0.5
    beta: float = 0.3
    gamma: float = 0.2
    theta_novelty: float = 0.7
    d_max: int = 5
    top_k: int = 10
    fmax_mode: str = FMAX_PATHWAY
    freq_mode: str = FREQ_DOCS
    damping: float = 0.85
    pr_tolerance: float = 1e-10
    pr_max_iters: int = 200

    def __post_init__(self):
        check_field_types(self)
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigError("alpha, beta, gamma must be non-negative")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ConfigError(
                f"alpha + beta + gamma must equal 1, got "
                f"{self.alpha + self.beta + self.gamma!r}")
        if not 0.0 <= self.theta_novelty <= 1.0:
            raise ConfigError(f"theta_novelty {self.theta_novelty} not in [0, 1]")
        if self.d_max < 1:
            raise ConfigError(f"d_max must be >= 1, got {self.d_max}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.fmax_mode not in (FMAX_PATHWAY, FMAX_EDGE):
            raise ConfigError(f"unknown fmax_mode {self.fmax_mode!r}")
        if self.freq_mode not in (FREQ_DOCS, FREQ_ENTITIES):
            raise ConfigError(f"unknown freq_mode {self.freq_mode!r}")
        if not 0.0 < self.damping < 1.0:
            raise ConfigError(f"damping {self.damping} not in (0, 1)")
        if self.pr_tolerance <= 0:
            raise ConfigError("pr_tolerance must be positive")
        if self.pr_max_iters < 1:
            raise ConfigError("pr_max_iters must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScoringConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown scoring config field(s): {sorted(unknown)}")
        return cls(**dict(data))

    @classmethod
    def from_json_file(cls, path) -> "ScoringConfig":
        return cls.from_dict(read_json_object(path, "scoring config"))

    def override(self, **changes) -> "ScoringConfig":
        changes = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **changes) if changes else self


@dataclass(frozen=True)
class CentralityScores:
    """Raw (sums to 1) and max-normalized PageRank per entity id.

    ``stamp`` is :func:`pagerank_stamp` of the graph and settings the scores
    were computed from (None when unknown), so stale scores can be told apart.
    """

    scores: dict[str, float]
    normalized: dict[str, float]
    iterations_used: int
    converged: bool
    stamp: dict | None = None

    def to_dict(self) -> dict:
        return {
            "scores": dict(sorted(self.scores.items())),
            "normalized": dict(sorted(self.normalized.items())),
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "stamp": self.stamp,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CentralityScores":
        """Inverse of :meth:`to_dict`; a missing or ill-typed key, or a score
        that is not a number in [0, 1], raises ScoringError."""
        try:
            scores, normalized = dict(data["scores"]), dict(data["normalized"])
            iterations_used, converged = data["iterations_used"], data["converged"]
            stamp = data.get("stamp")
        except (KeyError, TypeError, ValueError) as exc:
            raise ScoringError(f"centrality scores: missing or malformed {exc}") from None
        if (not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0  # false for NaN
                    for v in [*scores.values(), *normalized.values()])
                or type(iterations_used) is not int or not isinstance(converged, bool)
                or not (stamp is None or isinstance(stamp, dict))):
            raise ScoringError("centrality scores: ill-typed value or a score "
                               "outside [0, 1]")
        return cls(scores, normalized, iterations_used, converged, stamp)


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-pathway score decomposition; total = alpha*lf + beta*clc + gamma*ip."""

    f: int
    lf: float
    clc: float
    ip: float
    total: float


def pagerank_stamp(graph: KnowledgeGraph, config: ScoringConfig) -> dict:
    """All that :func:`pagerank` reads besides the entity ids: its three
    settings and a sha256 of the ``(relation id, source, target)`` rows in id
    order, the graph's iteration order. Rows are hashed one at a time, so
    the stamp holds no copy of the graph; quoted by ``repr``, the ids run
    together without ambiguity."""
    digest = hashlib.sha256()
    for rel in graph.relations.values():
        digest.update(f"{rel.id!r}{rel.source!r}{rel.target!r}".encode())
    return {"damping": config.damping, "pr_tolerance": config.pr_tolerance,
            "pr_max_iters": config.pr_max_iters, "relations_sha256": digest.hexdigest()}


def pagerank(graph: KnowledgeGraph, config: ScoringConfig) -> CentralityScores:
    """Power-iteration PageRank over the directed relation structure.

    Each relation is one out-link; parallel edges between the same pair each
    carry transition mass. Dangling-node mass is redistributed uniformly.
    Iteration stops when the L1 change falls below ``pr_tolerance`` or after
    ``pr_max_iters`` iterations (``converged`` reports which, and a warning
    is logged when it is False).
    """
    import numpy as np

    n = len(graph.entities)
    if n == 0:
        raise ScoringError("pagerank requires a non-empty graph")
    ids = list(graph.entities)
    index = {eid: i for i, eid in enumerate(ids)}

    flat = [index[end] for rel in graph.relations.values()
            for end in (rel.source, rel.target)]
    src, dst = np.array(flat, dtype=np.intp).reshape(-1, 2).T
    out_degree = np.bincount(src, minlength=n).astype(float)
    # one transition entry per linked pair, sorted by (target, source)
    pairs, copies = np.unique(dst * n + src, return_counts=True)
    rows, cols = np.divmod(pairs, n)
    weight = 1.0 / out_degree[cols]
    data = weight.copy()
    # a pair's parallel relations add their weights one at a time: a product
    # or a pairwise sum rounds differently, and the stored scores would change
    for k in range(2, copies.max(initial=1) + 1):
        data[copies >= k] += weight[copies >= k]
    dangling = out_degree == 0.0

    damping = config.damping
    teleport = (1.0 - damping) / n
    rank = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    for _ in range(config.pr_max_iters):
        linked = np.bincount(rows, data * rank[cols], minlength=n)
        new_rank = damping * (linked + rank[dangling].sum() / n) + teleport
        iterations += 1
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < config.pr_tolerance:
            converged = True
            break
    else:
        logger.warning("pagerank did not converge in %d iterations", iterations)

    peak = rank.max()
    scores = {eid: float(rank[i]) for i, eid in enumerate(ids)}
    normalized = {eid: float(rank[i] / peak) for i, eid in enumerate(ids)}
    return CentralityScores(scores=scores, normalized=normalized,
                            iterations_used=iterations, converged=converged,
                            stamp=pagerank_stamp(graph, config))


def entity_doc_index(graph: KnowledgeGraph) -> dict[str, frozenset[str]]:
    """Docs mentioning each entity, i.e. docs attesting any incident relation."""
    docs: dict[str, set[str]] = {eid: set() for eid in graph.entities}
    for rel in graph.relations.values():
        docs[rel.source] |= rel.doc_ids
        docs[rel.target] |= rel.doc_ids
    return {eid: frozenset(d) for eid, d in docs.items()}


def pathway_frequency(pathway: "Pathway", corpus_stats: CorpusStats,
                      freq_mode: str = FREQ_DOCS,
                      entity_docs: Mapping[str, frozenset[str]] | None = None) -> int:
    """Documents co-attesting the whole pathway.

    ``docs`` mode intersects the doc sets of every relation on the pathway;
    ``entities`` mode intersects per-entity doc sets (supply ``entity_docs``
    from :func:`entity_doc_index`).
    """
    if freq_mode == FREQ_DOCS:
        if not pathway.relation_ids:
            raise ScoringError("pathway frequency requires at least one relation")
        docs: frozenset[str] | None = None
        for rid in pathway.relation_ids:
            try:
                edge_docs = corpus_stats.edge_doc_index[rid]
            except KeyError:
                raise ScoringError(f"relation {rid!r} missing from corpus stats") from None
            docs = edge_docs if docs is None else docs & edge_docs
        return len(docs)
    if freq_mode == FREQ_ENTITIES:
        if entity_docs is None:
            raise ScoringError("entity freq_mode requires an entity doc index")
        docs = None
        for eid in pathway.entity_ids:
            try:
                e_docs = entity_docs[eid]
            except KeyError:
                raise ScoringError(f"entity {eid!r} missing from entity doc index") from None
            docs = e_docs if docs is None else docs & e_docs
        return len(docs) if docs is not None else 0
    raise ScoringError(f"unknown freq_mode {freq_mode!r}")


def literature_frequency(f: int, f_max: int) -> float:
    """LF = 1 - f / F_max, with LF := 1 when F_max is 0 (nothing attested)."""
    if f_max == 0:
        return 1.0
    if f < 0 or f > f_max:
        raise ScoringError(f"frequency f={f} outside [0, f_max={f_max}]")
    return 1.0 - f / f_max


def cross_layer_count(pathway: "Pathway", graph: KnowledgeGraph) -> int:
    """Number of consecutive entity pairs whose layers differ."""
    layers = [graph.entity(eid).layer for eid in pathway.entity_ids]
    return sum(1 for a, b in zip(layers, layers[1:]) if a is not b)


def cross_layer_connectivity(pathway: "Pathway", graph: KnowledgeGraph) -> float:
    """Fraction of layer transitions along the pathway, in [0, 1]."""
    n = len(pathway.entity_ids)
    if n < 2:
        raise ScoringError("cross-layer connectivity needs at least 2 entities")
    return cross_layer_count(pathway, graph) / (n - 1)


def impact_potential(pathway: "Pathway", centrality: CentralityScores,
                     graph: KnowledgeGraph) -> float:
    """Mean of normalized centrality times severity over pathway entities."""
    total = 0.0
    for eid in pathway.entity_ids:
        entity = graph.entity(eid)
        try:
            total += centrality.normalized[eid] * entity.severity
        except KeyError:
            raise ScoringError(f"entity {eid!r} has no centrality score") from None
    return total / len(pathway.entity_ids)


def combine(lf: float, clc: float, ip: float, config: ScoringConfig) -> float:
    """The weighted combination; single definition shared by all callers."""
    return config.alpha * lf + config.beta * clc + config.gamma * ip


def novelty_score(f: int, lf: float, clc: float, ip: float,
                  config: ScoringConfig) -> ScoreBreakdown:
    """Assemble the full score breakdown from precomputed components."""
    return ScoreBreakdown(f=f, lf=lf, clc=clc, ip=ip,
                          total=combine(lf, clc, ip, config))
