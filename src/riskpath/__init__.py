"""riskpath: multi-layer knowledge-graph mining of risk propagation pathways.

Build a three-layer (physical/social/economic) knowledge graph from
provenance-carrying triples, then systematically enumerate and rank
high-novelty cross-layer pathways with a decomposable scoring function
combining literature rarity, cross-layer connectivity, and impact potential.
"""

from .graph import (
    Entity,
    GraphStats,
    KnowledgeGraph,
    Layer,
    Phase,
    Relation,
    build_graph,
    load_snapshot,
    save_snapshot,
)
from .ingest import (
    AggregateResult,
    CorpusStats,
    EntityMeta,
    RawTriple,
    aggregate,
    canonicalize,
    normalize_name,
    parse_entity_meta,
    parse_triples,
)
from .scoring import (
    CentralityScores,
    ScoreBreakdown,
    ScoringConfig,
    cross_layer_connectivity,
    cross_layer_count,
    impact_potential,
    literature_frequency,
    novelty_score,
    pagerank,
    pathway_frequency,
)
from .discovery import (
    DiscoveryResult,
    Pathway,
    discover,
    enumerate_oracle,
    rank_top_k,
)
from .analysis import LayerDistribution, TemporalReport, layer_distribution, temporal_distribution
from .syngen import GenSpec, PlantedChain, generate, write_corpus
from .errors import (
    ConfigError,
    DiscoveryError,
    GenerationError,
    GraphBuildError,
    IngestError,
    PipelineError,
    RiskPathError,
    ScoringError,
    SnapshotError,
    UnknownEntityError,
)

__version__ = "0.1.0"
