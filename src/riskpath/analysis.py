"""Aggregate reports: temporal phase distribution and layer distribution.

A relation's layer for the temporal report is the layer of its target entity
by default (impacts land where the edge points); ``by="source"`` switches to
the source entity. Relations without phase tags are excluded from the
denominators entirely, and a multi-tagged relation counts once per phase, so
rows need not sum to 100.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .graph import KnowledgeGraph, Layer, Phase

TEMPORAL_BY = ("target", "source")

PHASE_WINDOWS = {
    Phase.ACUTE: "0-3 days",
    Phase.SUBACUTE: "3-14 days",
    Phase.CHRONIC: "14+ days",
}


@dataclass(frozen=True)
class TemporalReport:
    """Percentage of phase-tagged relations manifesting in each phase per layer.

    ``cells[(phase, layer)]`` is a percentage in [0, 100], or None when the
    layer has no phase-tagged relations at all.
    """

    cells: dict[tuple[Phase, Layer], float | None]
    tagged_counts: dict[Layer, int]
    by: str

    def to_dict(self) -> dict:
        return {
            "by": self.by,
            "denominators": {layer.value: self.tagged_counts[layer] for layer in Layer},
            "percentages": {
                phase.value: {
                    layer.value: self.cells[(phase, layer)] for layer in Layer
                }
                for phase in Phase
            },
        }

    def to_table(self) -> str:
        header = f"{'Risk Phase':<22}" + "".join(f"{layer.value.title():>12}" for layer in Layer)
        lines = [header, "-" * len(header)]
        for phase in Phase:
            label = f"{phase.value.title()} ({PHASE_WINDOWS[phase]})"
            row = f"{label:<22}"
            for layer in Layer:
                value = self.cells[(phase, layer)]
                row += f"{'n/a':>12}" if value is None else f"{value:>11.1f}%"
            lines.append(row)
        lines.append("-" * len(header))
        counts = "".join(f"{self.tagged_counts[layer]:>12}" for layer in Layer)
        lines.append(f"{'tagged relations':<22}" + counts)
        return "\n".join(lines)


@dataclass(frozen=True)
class LayerDistribution:
    counts: dict[Layer, int]
    fractions: dict[Layer, float]

    def to_dict(self) -> dict:
        return {
            "counts": {layer.value: self.counts[layer] for layer in Layer},
            "fractions": {layer.value: self.fractions[layer] for layer in Layer},
        }

    def to_table(self) -> str:
        lines = [f"{'Layer':<12}{'Entities':>10}{'Fraction':>10}"]
        for layer in Layer:
            lines.append(f"{layer.value:<12}{self.counts[layer]:>10}"
                         f"{self.fractions[layer]:>10.3f}")
        return "\n".join(lines)


def temporal_distribution(graph: KnowledgeGraph, by: str = "target") -> TemporalReport:
    """Tabulate what share of phase-tagged relations carries each phase tag."""
    if by not in TEMPORAL_BY:
        raise ConfigError(f"temporal report 'by' must be one of {TEMPORAL_BY}, got {by!r}")
    tagged = {layer: 0 for layer in Layer}
    hits = {(phase, layer): 0 for phase in Phase for layer in Layer}
    for rel in graph.relations.values():
        if not rel.phases:
            continue
        endpoint = rel.target if by == "target" else rel.source
        layer = graph.entities[endpoint].layer
        tagged[layer] += 1
        for phase in rel.phases:
            hits[(phase, layer)] += 1

    cells: dict[tuple[Phase, Layer], float | None] = {}
    for phase in Phase:
        for layer in Layer:
            denom = tagged[layer]
            cells[(phase, layer)] = (100.0 * hits[(phase, layer)] / denom
                                     if denom else None)
    return TemporalReport(cells=cells, tagged_counts=tagged, by=by)


def layer_distribution(graph: KnowledgeGraph) -> LayerDistribution:
    """Entity counts and fractions per layer; fractions sum to 1 (or 0 if empty)."""
    counts = {layer: 0 for layer in Layer}
    for entity in graph.entities.values():
        counts[entity.layer] += 1
    total = len(graph.entities)
    fractions = {layer: (counts[layer] / total if total else 0.0) for layer in Layer}
    return LayerDistribution(counts=counts, fractions=fractions)
