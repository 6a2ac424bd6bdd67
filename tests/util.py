"""Shared fixture builders for the test suite."""

from __future__ import annotations

import os
import random
from pathlib import Path

from riskpath import (
    CorpusStats,
    Entity,
    KnowledgeGraph,
    Layer,
    Phase,
    Relation,
    build_graph,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env(**overrides: str) -> dict[str, str]:
    """This process's environment plus ``overrides``, with this tree's
    ``src`` first on PYTHONPATH, so that a child Python process imports the
    riskpath under test however pytest was started."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


PREDICATES = ("increases", "disrupts", "reduces", "strains", "triggers")


def make_entity(eid: str, layer: Layer, severity: float = 0.5) -> Entity:
    return Entity(id=eid, canonical_name=eid, layer=layer, severity=severity)


def chain_graph(layers, severities=None, docs=("d1",)) -> tuple[KnowledgeGraph, CorpusStats]:
    """Linear chain e0 -> e1 -> ... with the given layer sequence."""
    severities = severities or [0.5] * len(layers)
    entities = [make_entity(f"e{i}", layer, severities[i])
                for i, layer in enumerate(layers)]
    relations = [
        Relation(id=f"r{i}", source=f"e{i}", predicate="links",
                 target=f"e{i + 1}", doc_ids=frozenset(docs))
        for i in range(len(layers) - 1)
    ]
    graph = build_graph(entities, relations)
    return graph, CorpusStats.from_graph(graph)


def random_graph(rng: random.Random, n_entities: int, n_relations: int,
                 n_docs: int = 20, max_docs_per_edge: int = 3,
                 phase_prob: float = 0.0, severity: float | None = None,
                 ) -> tuple[KnowledgeGraph, CorpusStats]:
    """Random directed multigraph with random layers, severities, provenance.

    ``severity`` gives every entity that one severity instead of a random one.
    """
    layers = list(Layer)
    entities = [
        make_entity(f"n{i:04d}", rng.choice(layers),
                    round(rng.random(), 6) if severity is None else severity)
        for i in range(n_entities)
    ]
    doc_pool = [f"d{i:03d}" for i in range(n_docs)]
    relations = []
    seen = set()
    attempts = 0
    while len(relations) < n_relations and attempts < 50 * n_relations:
        attempts += 1
        s = rng.choice(entities).id
        t = rng.choice(entities).id
        if s == t:
            continue
        p = rng.choice(PREDICATES)
        if (s, p, t) in seen:
            continue
        seen.add((s, p, t))
        docs = frozenset(rng.sample(doc_pool, rng.randint(1, max_docs_per_edge)))
        phases = frozenset()
        if phase_prob and rng.random() < phase_prob:
            phases = frozenset(rng.sample(list(Phase), rng.randint(1, 3)))
        relations.append(Relation(
            id=f"r{len(relations):05d}", source=s, predicate=p, target=t,
            doc_ids=docs, phases=phases))
    graph = build_graph(entities, relations)
    return graph, CorpusStats.from_graph(graph)


def temporal_reference_graph() -> KnowledgeGraph:
    """Graph whose temporal report reproduces the nine fixture percentages.

    Per layer, 100 phase-tagged relations target one hub entity of that
    layer; tag windows are chosen so the acute/subacute/chronic tag counts
    are exactly (78, 52, 31) physical, (45, 71, 63) social, (23, 58, 82)
    economic, with every relation carrying at least one tag.
    """
    windows = {
        Layer.PHYSICAL: {Phase.ACUTE: range(0, 78), Phase.SUBACUTE: range(40, 92),
                         Phase.CHRONIC: range(69, 100)},
        Layer.SOCIAL: {Phase.ACUTE: range(0, 45), Phase.SUBACUTE: range(29, 100),
                       Phase.CHRONIC: range(37, 100)},
        Layer.ECONOMIC: {Phase.ACUTE: range(0, 23), Phase.SUBACUTE: range(10, 68),
                         Phase.CHRONIC: range(18, 100)},
    }
    entities = [make_entity(f"hub-{layer.value}", layer) for layer in Layer]
    entities += [make_entity(f"src-{layer.value}-{i}", Layer.PHYSICAL)
                 for layer in Layer for i in range(100)]
    relations = []
    for layer in Layer:
        for i in range(100):
            phases = frozenset(ph for ph, window in windows[layer].items()
                               if i in window)
            assert phases, "every fixture relation must carry at least one tag"
            relations.append(Relation(
                id=f"t-{layer.value}-{i}", source=f"src-{layer.value}-{i}",
                predicate="affects", target=f"hub-{layer.value}",
                doc_ids=frozenset({f"doc-{layer.value}-{i}"}), phases=phases))
    return build_graph(entities, relations)


TEMPORAL_REFERENCE_CELLS = {
    (Phase.ACUTE, Layer.PHYSICAL): 78.0,
    (Phase.ACUTE, Layer.SOCIAL): 45.0,
    (Phase.ACUTE, Layer.ECONOMIC): 23.0,
    (Phase.SUBACUTE, Layer.PHYSICAL): 52.0,
    (Phase.SUBACUTE, Layer.SOCIAL): 71.0,
    (Phase.SUBACUTE, Layer.ECONOMIC): 58.0,
    (Phase.CHRONIC, Layer.PHYSICAL): 31.0,
    (Phase.CHRONIC, Layer.SOCIAL): 63.0,
    (Phase.CHRONIC, Layer.ECONOMIC): 82.0,
}
