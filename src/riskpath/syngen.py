"""Deterministic synthetic corpus generator with planted rare chains.

Produces per-document triple sets plus entity metadata in exactly the ingest
formats, and a ground-truth manifest used as a test oracle. The corpus has
three strata mirroring a real literature corpus:

* common chains: a handful of cross-layer two-hop pathways placed at the head
  of the popularity distribution, so they are co-attested by many documents
  (these anchor the frequency normalizer; being heavily documented, they are
  by construction not novel);
* background noise: a pool of edges with same-layer bias (cross-layer links
  are genuinely rarer), sampled into documents with a popularity skew;
* planted chains: rare cross-layer chains whose full edge sequence is
  co-attested by exactly the configured number of documents and appears in no
  other document. Their entities are preferentially shared with the common
  chains - the individual components are well studied, their connection is
  not - and carry a high severity.
"""

from __future__ import annotations

import json
import random
from bisect import bisect
from dataclasses import dataclass, field, asdict
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import GenerationError
from .graph import Layer
from .ingest import relation_id
from .scoring import check_field_types

PREDICATES = ("increases", "disrupts", "reduces", "strains",
              "triggers", "amplifies", "depletes", "elevates")

# planted chains must fit the traversal depth cap (5 edges -> 6 entities)
MAX_CHAIN_ENTITIES = 6

_LAYER_PREFIX = {Layer.PHYSICAL: "phy", Layer.SOCIAL: "soc", Layer.ECONOMIC: "eco"}

# triples.jsonl lines are joined and written this many at a time. The peak
# RSS of writing the benchmark's 5k-doc corpus grows with it: against a
# line-at-a-time writer, about +3% at 4,096, +0.4% at 1,024, none at 256
_WRITE_CHUNK = 256


def _as_tuple(value, what: str) -> tuple:
    if isinstance(value, tuple):
        return value
    try:
        return tuple(value)
    except TypeError:
        raise GenerationError(f"{what} must be a sequence, got {value!r}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class PlantedChain:
    """Layer sequence of a chain to plant, and how many docs co-attest it."""

    layers: tuple[Layer, ...]
    attestations: int = 1

    def __post_init__(self):
        object.__setattr__(self, "layers", _as_tuple(self.layers, "planted chain layers"))
        if not all(isinstance(layer, Layer) for layer in self.layers):
            raise GenerationError(
                f"planted chain layers must be Layer values, got {self.layers!r}")
        if not _is_int(self.attestations):
            raise GenerationError(
                f"attestation count must be an int, got {self.attestations!r}")
        if len(self.layers) < 2:
            raise GenerationError("planted chain needs at least 2 entities")
        if len(self.layers) > MAX_CHAIN_ENTITIES:
            raise GenerationError(
                f"planted chain has {len(self.layers)} entities; "
                f"maximum is {MAX_CHAIN_ENTITIES}")
        if self.attestations < 1:
            raise GenerationError("attestation count must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "PlantedChain":
        """Parse e.g. ``"P,S,E,S,E:1"`` (layer initials, attestation count)."""
        spec, _, count = text.partition(":")
        initials = {"p": Layer.PHYSICAL, "s": Layer.SOCIAL, "e": Layer.ECONOMIC}
        try:
            layers = tuple(initials[part.strip().lower()[0]]
                           for part in spec.split(",") if part.strip())
        except (KeyError, IndexError):
            raise GenerationError(f"cannot parse chain layers from {text!r}") from None
        try:
            attestations = int(count) if count else 1
        except ValueError:
            raise GenerationError(f"attestation count in {text!r} is not an integer") from None
        return cls(layers=layers, attestations=attestations)


@dataclass(frozen=True)
class GenSpec:
    """Corpus shape: document count, entity pool, noise structure, chains."""

    n_docs: int
    seed: int = 0
    entities_per_layer: int = 150
    relations_per_doc: tuple[int, int] = (8, 15)
    planted_chains: tuple[PlantedChain, ...] = ()
    background_noise: float = 2.0      # unique noise edges per entity
    same_layer_bias: float = 0.9       # chance a noise edge stays in-layer
    popularity_skew: float = 1.3       # Zipf exponent for per-doc edge sampling
    common_chains: int = 12            # heavily-documented cross-layer 2-hop chains
    planted_severity: float = 0.9
    malformed_rate: float = 0.0        # garbage lines injected into triples file

    def __post_init__(self):
        check_field_types(self)
        object.__setattr__(self, "relations_per_doc",
                           _as_tuple(self.relations_per_doc, "relations_per_doc"))
        object.__setattr__(self, "planted_chains",
                           _as_tuple(self.planted_chains, "planted_chains"))
        if len(self.relations_per_doc) != 2 or not all(map(_is_int, self.relations_per_doc)):
            raise GenerationError(
                f"relations_per_doc must be a pair of ints, got {self.relations_per_doc!r}")
        if not all(isinstance(chain, PlantedChain) for chain in self.planted_chains):
            raise GenerationError(
                f"planted_chains must hold PlantedChain values, got {self.planted_chains!r}")
        lo, hi = self.relations_per_doc
        if not (1 <= lo <= hi <= 100):
            raise GenerationError(
                f"relations_per_doc {self.relations_per_doc} must lie in [1, 100]")
        if self.n_docs < 0:
            raise GenerationError("n_docs must be non-negative")
        if self.entities_per_layer < 1:
            raise GenerationError("entities_per_layer must be >= 1")
        if not 0.0 <= self.same_layer_bias <= 1.0:
            raise GenerationError("same_layer_bias must be in [0, 1]")
        if not 0.0 <= self.malformed_rate < 1.0:
            raise GenerationError("malformed_rate must be in [0, 1)")
        if self.common_chains < 0:
            raise GenerationError("common_chains must be non-negative")
        if self.popularity_skew < 0:
            raise GenerationError("popularity_skew must be non-negative")
        if self.background_noise < 0:
            raise GenerationError("background_noise must be non-negative")
        if not 0.0 <= self.planted_severity <= 1.0:
            raise GenerationError("planted_severity must be in [0, 1]")
        for chain in self.planted_chains:
            if len(chain.layers) - 1 > hi:
                raise GenerationError(
                    f"chain with {len(chain.layers) - 1} edges cannot fit in a "
                    f"document of at most {hi} relations")
        total_attestations = sum(c.attestations for c in self.planted_chains)
        if self.n_docs and total_attestations > self.n_docs:
            raise GenerationError(
                f"{total_attestations} attestation docs requested but only "
                f"{self.n_docs} docs in corpus")


@dataclass
class GenResult:
    """A generated corpus. Each ``triples`` row is a dict of the four string
    fields ``s``, ``p``, ``o`` and ``doc``, as ``generate`` makes it;
    ``write_corpus`` formats triple lines from exactly those fields.
    ``malformed_lines`` holds (position, line) pairs: the line goes before
    triple ``position``, or after the last triple at ``len(triples)``."""

    triples: list[dict]
    entities: list[dict]
    manifest: dict
    malformed_lines: list[tuple[int, str]] = field(default_factory=list)


def _spec_echo(spec: GenSpec) -> dict:
    echo = asdict(spec)
    echo["relations_per_doc"] = list(spec.relations_per_doc)
    echo["planted_chains"] = [
        {"layers": [layer.value for layer in chain.layers],
         "attestations": chain.attestations}
        for chain in spec.planted_chains
    ]
    return echo


def generate(spec: GenSpec) -> GenResult:
    """Produce the corpus; deterministic for a fixed spec (seed included)."""
    rng = random.Random(spec.seed)
    names = {
        layer: [f"{_LAYER_PREFIX[layer]}-{i:04d}"
                for i in range(spec.entities_per_layer)]
        for layer in Layer
    }
    all_names = [name for layer in Layer for name in names[layer]]
    severity = {name: round(rng.random(), 6) for name in all_names}
    layer_of = {name: layer for layer in Layer for name in names[layer]}

    # planted chains: entities drawn from the shared pool, edges reserved
    planted_edges: set[tuple[str, str, str]] = set()
    chains = []
    for chain in spec.planted_chains:
        if len(chain.layers) > len(all_names):
            raise GenerationError("entity pool too small for planted chain")
        entities: list[str] = []
        for layer in chain.layers:
            candidates = [n for n in names[layer] if n not in entities]
            if not candidates:
                raise GenerationError(
                    f"layer {layer.value} pool exhausted while planting chain")
            entities.append(rng.choice(candidates))
        predicates = [rng.choice(PREDICATES) for _ in range(len(entities) - 1)]
        edges = list(zip(entities, predicates, entities[1:]))
        for edge in edges:
            if edge in planted_edges:
                raise GenerationError(
                    f"planted chains collide on edge {edge}")
            planted_edges.add(edge)
        for name in entities:
            severity[name] = spec.planted_severity
        chains.append({"entities": entities, "predicates": predicates,
                       "edges": edges, "attestations": chain.attestations})

    # common chains: popular cross-layer 2-hop pathways at the Zipf head.
    # Each routes through exactly one planted entity (round-robin, placed at
    # a target position so it accrues centrality): the planted chains'
    # components become well documented without adding edges among them.
    rotation: list[str] = []
    for chain in chains:
        for name in chain["entities"]:
            if name not in rotation:
                rotation.append(name)
    placements = {
        Layer.PHYSICAL: (((Layer.PHYSICAL, Layer.SOCIAL, Layer.PHYSICAL), 2),
                         ((Layer.PHYSICAL, Layer.ECONOMIC, Layer.PHYSICAL), 2)),
        Layer.SOCIAL: (((Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC), 1),
                       ((Layer.PHYSICAL, Layer.ECONOMIC, Layer.SOCIAL), 2),
                       ((Layer.PHYSICAL, Layer.SOCIAL, Layer.PHYSICAL), 1)),
        Layer.ECONOMIC: (((Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC), 2),
                         ((Layer.PHYSICAL, Layer.ECONOMIC, Layer.SOCIAL), 1),
                         ((Layer.PHYSICAL, Layer.ECONOMIC, Layer.PHYSICAL), 1)),
    }
    default_patterns = (
        (Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC),
        (Layer.PHYSICAL, Layer.ECONOMIC, Layer.SOCIAL),
        (Layer.PHYSICAL, Layer.SOCIAL, Layer.PHYSICAL),
        (Layer.PHYSICAL, Layer.ECONOMIC, Layer.PHYSICAL),
    )
    pool: list[tuple[str, str, str]] = []
    pool_set: set[tuple[str, str, str]] = set()
    all_planted = set(rotation)
    for i in range(spec.common_chains):
        shared = rotation[i % len(rotation)] if rotation else None
        if shared is not None:
            pattern, share_at = rng.choice(placements[layer_of[shared]])
        else:
            pattern, share_at = default_patterns[i % len(default_patterns)], -1
        placed = False
        for _ in range(60):
            entities: list[str] = []
            for j, layer in enumerate(pattern):
                if j == share_at:
                    entities.append(shared)
                    continue
                candidates = [n for n in names[layer]
                              if n not in entities and n not in all_planted]
                if not candidates:
                    break
                entities.append(rng.choice(candidates))
            if len(entities) != len(pattern):
                continue
            edges = [(a, rng.choice(PREDICATES), b)
                     for a, b in zip(entities, entities[1:])]
            if any(e in planted_edges or e in pool_set for e in edges):
                continue
            pool.extend(edges)
            pool_set.update(edges)
            placed = True
            break
        if not placed:
            raise GenerationError(
                "could not place common chains; entity pool too small")

    # background noise with same-layer bias
    noise_target = round(spec.background_noise * len(all_names))
    lo, hi = spec.relations_per_doc
    if spec.n_docs and len(pool) + noise_target < hi:
        raise GenerationError(
            f"background pool of {len(pool) + noise_target} edges cannot fill "
            f"documents of up to {hi} relations; raise background_noise")
    # distinct edges the sampler below can draw, same-layer (True) and
    # cross-layer (False): from each of the 3n entities to another on its layer
    # (n - 1) or on the other two (2n), less the edges already in the pool
    n = spec.entities_per_layer
    free = {True: len(PREDICATES) * 3 * n * (n - 1), False: len(PREDICATES) * 3 * n * 2 * n}
    for a, _, b in pool_set | planted_edges:
        free[layer_of[a] is layer_of[b]] -= 1
    share = {True: spec.same_layer_bias, False: 1.0 - spec.same_layer_bias}
    formable = {same: free[same] if share[same] > 0 else 0 for same in free}
    if noise_target > sum(formable.values()):
        raise GenerationError(f"background_noise {spec.background_noise} asks for {noise_target} "
                              f"distinct noise edges; the entity pool can form "
                              f"{sum(formable.values())}")
    attempts = 0
    max_attempts = 80 * max(noise_target, 1)
    # edges of one kind that the other kind cannot supply; the sampler draws
    # that kind in about its bias share of the attempts it is allowed
    for same, kind in ((True, "same-layer"), (False, "cross-layer")):
        forced = noise_target - formable[not same]
        if forced > share[same] * max_attempts:
            raise GenerationError(
                f"background_noise {spec.background_noise} needs {forced} {kind} noise "
                f"edges, but same_layer_bias {spec.same_layer_bias} draws about "
                f"{share[same] * max_attempts:.3g} {kind} edges in the sampler's "
                f"{max_attempts} attempts")
    other_layers = {layer: [l for l in Layer if l is not layer] for layer in Layer}
    noise_count = 0
    while noise_count < noise_target:
        attempts += 1
        if attempts > max_attempts:
            raise GenerationError(
                "could not assemble background pool; entity pool too small "
                "for requested noise density")
        source = rng.choice(all_names)
        src_layer = layer_of[source]
        if rng.random() < spec.same_layer_bias:
            target_layer = src_layer
        else:
            target_layer = rng.choice(other_layers[src_layer])
        target = rng.choice(names[target_layer])
        if target == source:
            continue
        edge = (source, rng.choice(PREDICATES), target)
        if edge in pool_set or edge in planted_edges:
            continue
        pool.append(edge)
        pool_set.add(edge)
        noise_count += 1

    # assign attestation documents (each doc attests at most one chain)
    doc_ids = [f"doc-{i + 1:05d}" for i in range(spec.n_docs)]
    total_attestations = sum(c["attestations"] for c in chains)
    attest_doc_indices = (rng.sample(range(spec.n_docs), total_attestations)
                          if total_attestations else [])
    chain_of_doc: dict[int, dict] = {}
    cursor = 0
    for chain in chains:
        allocated = attest_doc_indices[cursor:cursor + chain["attestations"]]
        cursor += chain["attestations"]
        chain["doc_ids"] = sorted(doc_ids[i] for i in allocated)
        for i in allocated:
            chain_of_doc[i] = chain

    # per-document fill: popularity-skewed sampling over the pool
    try:
        weights = [1.0 / (i + 1) ** spec.popularity_skew for i in range(len(pool))]
    except OverflowError:
        raise GenerationError(
            f"popularity_skew {spec.popularity_skew} is too large for a pool of "
            f"{len(pool)} edges") from None
    cum_weights = []
    running = 0.0
    for w in weights:
        running += w
        cum_weights.append(running)
    # Random.choices(pool, cum_weights=cum_weights, k=1) inlined: the same
    # single random() per draw, so the stream and every later draw match
    total = cum_weights[-1] + 0.0 if cum_weights else 0.0
    last = len(pool) - 1
    random_ = rng.random

    triples: list[dict] = []
    emitted: set[tuple[str, str, str]] = set()
    for doc_index in range(spec.n_docs):
        doc = doc_ids[doc_index]
        chain = chain_of_doc.get(doc_index)
        chain_edges = chain["edges"] if chain else []
        n_rel = rng.randint(max(lo, len(chain_edges)), hi)
        doc_edges = list(chain_edges)
        in_doc = set(doc_edges)
        guard = 0
        while len(doc_edges) < n_rel:
            guard += 1
            if guard > 200 * n_rel:
                raise GenerationError("document fill stalled; pool too small")
            edge = pool[bisect(cum_weights, random_() * total, 0, last)]
            if edge in in_doc:
                continue
            doc_edges.append(edge)
            in_doc.add(edge)
        emitted.update(doc_edges)
        for s, p, o in doc_edges:
            triples.append({"s": s, "p": p, "o": o, "doc": doc})
    referenced = {name for s, _, o in emitted for name in (s, o)}

    entities_rows = [
        {"name": name, "layer": layer_of[name].value,
         "severity": severity[name], "aliases": []}
        for name in all_names
    ]

    manifest = {
        "seed": spec.seed,
        "spec_echo": _spec_echo(spec),
        "counts": {
            "docs": spec.n_docs,
            "triples": len(triples),
            "relations": len(emitted),
            "entities": len(referenced),
            "entities_by_layer": {
                layer.value: sum(1 for n in referenced if layer_of[n] is layer)
                for layer in Layer
            },
            "entities_generated": len(all_names),
        },
        "chains": [
            {
                "entities": chain["entities"],
                "predicates": chain["predicates"],
                "layers": [layer_of[n].value for n in chain["entities"]],
                "relation_ids": [relation_id(*edge) for edge in chain["edges"]],
                "doc_ids": chain["doc_ids"],
                "attestations": chain["attestations"],
            }
            for chain in chains
        ],
    }

    malformed: list[tuple[int, str]] = []
    if spec.malformed_rate > 0.0 and triples:
        n_bad = int(round(spec.malformed_rate * len(triples)))
        positions = sorted(rng.sample(range(len(triples) + 1), min(n_bad, len(triples))))
        for j, pos in enumerate(positions):
            malformed.append((pos, f'{{"s": "broken-{j}", "p": "missing fields"'))

    return GenResult(triples=triples, entities=entities_rows,
                     manifest=manifest, malformed_lines=malformed)


def _row_lines(rows):
    enc = encode_basestring_ascii
    return (f'{{"doc": {enc(r["doc"])}, "o": {enc(r["o"])}, '
            f'"p": {enc(r["p"])}, "s": {enc(r["s"])}}}\n' for r in rows)


def _triple_lines(result: GenResult):
    """triples.jsonl's lines: each row as ``json.dumps(row, sort_keys=True)``
    formats it, with the malformed lines at their positions."""
    rows = iter(result.triples)  # sliced as it is consumed: no copy of the list
    inject = dict(result.malformed_lines)
    start = 0
    for pos in sorted(pos for pos in inject if 0 <= pos <= len(result.triples)):
        yield from _row_lines(islice(rows, pos - start))
        yield inject[pos] + "\n"
        start = pos
    yield from _row_lines(rows)


def write_corpus(result: GenResult, out_dir) -> dict[str, Path]:
    """Write triples.jsonl, entities.jsonl, manifest.json into a directory.

    Each triple line has the bytes ``json.dumps(row, sort_keys=True)`` gives
    for ``GenResult``'s string rows, built from a fixed template; the lines
    are written in joined chunks of at most ``_WRITE_CHUNK``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "triples": out / "triples.jsonl",
        "entities": out / "entities.jsonl",
        "manifest": out / "manifest.json",
    }
    lines = _triple_lines(result)
    with open(paths["triples"], "w", encoding="utf-8") as fh:
        while chunk := list(islice(lines, _WRITE_CHUNK)):
            fh.write("".join(chunk))
    with open(paths["entities"], "w", encoding="utf-8") as fh:
        for row in result.entities:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        json.dump(result.manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
