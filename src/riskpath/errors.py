"""Exception hierarchy shared across the package.

Everything raised on a data/validation problem derives from RiskPathError so
the CLI can map it to a single exit code; usage errors are argparse's domain.
"""


class RiskPathError(Exception):
    """Base class for all riskpath errors."""


class GraphBuildError(RiskPathError):
    """Graph construction input violates a structural precondition."""


class UnknownEntityError(RiskPathError):
    """Lookup of an entity id that is not in the graph."""


class SnapshotError(RiskPathError):
    """Snapshot file is missing, corrupt, or version-incompatible."""


class IngestError(RiskPathError):
    """Triple/metadata parsing or aggregation failed."""


class ConfigError(RiskPathError):
    """Configuration value violates an invariant."""


class ScoringError(RiskPathError):
    """Scoring operation called outside its precondition."""


class DiscoveryError(RiskPathError):
    """Pathway discovery misuse (invalid mode combination etc.)."""


class GenerationError(RiskPathError):
    """Synthetic corpus generation cannot satisfy its spec."""


class PipelineError(RiskPathError):
    """Pipeline orchestration failure."""
