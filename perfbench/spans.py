"""Span recording around the calls into each riskpath layer.

Spans are recorded from outside the program: the public functions of each
module are wrapped where ``riskpath.cli`` and ``riskpath.pipeline`` bind them,
plus a few methods on the classes they use. Spans stay in memory until the
process ends its run and hands them to the caller.

Per-layer metrics are derived from the spans of one measured operation:

- ``<layer>.<what>_s`` is the total inclusive duration of the named spans;
- ``cli.self_s`` and ``pipeline.self_s`` are self time: the root span's
  duration minus the time its child spans cover;
- counts come from the wrapped call's arguments and result.
"""

from __future__ import annotations

import importlib
import os
import resource
import statistics
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    rss_rise_kb: int = 0
    counts: dict = field(default_factory=dict)


def maxrss_kb() -> int:
    """High-water mark of this process's resident set, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records nested spans of one process. Wrapped calls must come from a
    single thread: riskpath fans out threads only below ``discover``, which is
    a leaf span here."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` returns
        a dict of counters stored on the span."""
        tracer = self

        def traced(*args, **kwargs):
            span = Span(len(tracer.spans), name,
                        tracer._stack[-1] if tracer._stack else None,
                        tracer.run_id, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            rss_before = maxrss_kb()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_rise_kb = maxrss_kb() - rss_before
                tracer._stack.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a traced version until :meth:`restore`.

        A class method is unwrapped from its descriptor and re-wrapped, so it
        keeps its binding.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, count))
        else:
            new = self.wrap(name, raw, count)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def patch_functions(self, namespace) -> None:
        """Patch each function of :data:`FUNCTIONS` that ``namespace`` binds."""
        for attr, (name, count) in FUNCTIONS.items():
            if hasattr(namespace, attr):
                self.patch(namespace, attr, name, count)

    def install(self) -> None:
        """Patch the bindings in riskpath.cli and riskpath.pipeline and the
        methods of :data:`METHODS`."""
        for module_name in BINDING_MODULES:
            self.patch_functions(importlib.import_module(module_name))
        for module_name, class_name, attr, name in METHODS:
            self.patch(getattr(importlib.import_module(module_name), class_name),
                       attr, name)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def to_dicts(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _discover_counts(args, result) -> dict:
    return {"discovery.candidates_enumerated": result.candidates_enumerated,
            "discovery.sources_processed": result.sources_processed,
            "discovery.pathways_returned": len(result.pathways)}


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


# Function name -> (span name, counter). Functions are patched where
# riskpath.cli and riskpath.pipeline bind them, so calls inside a layer
# (load_snapshot's own build_graph) are not separate spans.
FUNCTIONS = {
    "main": ("cli.main", None),
    "run": ("pipeline.run",
            lambda args, result: {"pipeline.stages_executed": len(result.executed),
                                  "pipeline.artifact_bytes": _dir_bytes(args[1])}),
    "discover": ("discovery.discover", _discover_counts),
    "load_snapshot": ("graph.load_snapshot",
                      lambda args, result: {"graph.snapshot_bytes": os.path.getsize(args[0])}),
    "save_snapshot": ("graph.save_snapshot", None),
    "build_graph": ("graph.build_graph", None),
    "parse_triples": ("ingest.parse_triples",
                      lambda args, result: {"ingest.triples_in": len(result[0])}),
    "parse_entity_meta": ("ingest.parse_entity_meta", None),
    "canonicalize": ("ingest.canonicalize", None),
    "aggregate": ("ingest.aggregate",
                  lambda args, result: {"ingest.relations_out": len(result.relations),
                                        "ingest.rejections": len(result.rejections)}),
    "pagerank": ("scoring.pagerank",
                 lambda args, result: {"scoring.pagerank_iterations": result.iterations_used}),
    "temporal_distribution": ("analysis.temporal_distribution", None),
    "layer_distribution": ("analysis.layer_distribution", None),
}
BINDING_MODULES = ("riskpath.cli", "riskpath.pipeline")
# (module, class, method, span name), patched on the class for every caller.
METHODS = [
    ("riskpath.discovery", "DiscoveryResult", "to_json_dict", "discovery.to_json_dict"),
    ("riskpath.ingest", "CorpusStats", "from_graph", "ingest.corpus_stats"),
    ("riskpath.ingest", "CorpusStats", "from_dict", "ingest.corpus_stats"),
    ("riskpath.scoring", "CentralityScores", "from_dict", "scoring.centrality_from_dict"),
]

# Per-layer metrics, in report order: name -> unit.
PER_LAYER_UNITS = {
    "discovery.discover_s": "s",
    "discovery.candidates_enumerated": "count",
    "discovery.sources_processed": "count",
    "discovery.pathways_returned": "count",
    "discovery.yield": "ratio",
    "discovery.rss_rise_mb": "MB",
    "discovery.to_json_dict_s": "s",
    "graph.load_snapshot_s": "s",
    "graph.load_snapshot_calls": "count",
    "graph.save_snapshot_s": "s",
    "graph.build_graph_s": "s",
    "graph.snapshot_bytes": "bytes",
    "graph.load_snapshot_rss_rise_mb": "MB",
    "ingest.parse_triples_s": "s",
    "ingest.parse_entity_meta_s": "s",
    "ingest.canonicalize_s": "s",
    "ingest.aggregate_s": "s",
    "ingest.corpus_stats_s": "s",
    "ingest.triples_in": "count",
    "ingest.relations_out": "count",
    "ingest.rejections": "count",
    "scoring.pagerank_s": "s",
    "scoring.pagerank_iterations": "count",
    "scoring.centrality_from_dict_s": "s",
    "analysis.temporal_distribution_s": "s",
    "analysis.layer_distribution_s": "s",
    "pipeline.self_s": "s",
    "pipeline.stages_executed": "count",
    "pipeline.artifact_bytes": "bytes",
    "cli.self_s": "s",
    "cli.commands": "count",
    "trace.overhead_s": "s",
}

_SELF_TIME = {"cli.self_s": "cli.main", "pipeline.self_s": "pipeline.run"}
_CALLS = {"graph.load_snapshot_calls": "graph.load_snapshot",
          "cli.commands": "cli.main"}
_RSS_RISE = {"discovery.rss_rise_mb": "discovery.discover",
             "graph.load_snapshot_rss_rise_mb": "graph.load_snapshot"}
_MAX_COUNTS = {"graph.snapshot_bytes"}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.

    Spans nest on one thread, so direct children never overlap.
    """
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced operation; layers that did not run
    read 0."""
    values = {name: 0 if unit in ("count", "bytes") else 0.0
              for name, unit in PER_LAYER_UNITS.items() if name != "trace.overhead_s"}
    own = self_times(spans)
    for span in spans:
        duration = span["end"] - span["start"]
        name = span["name"]
        if name + "_s" in values:
            values[name + "_s"] += duration
        for metric, root in _SELF_TIME.items():
            if name == root:
                values[metric] += own[span["id"]]
        for metric, target in _CALLS.items():
            if name == target:
                values[metric] += 1
        for metric, target in _RSS_RISE.items():
            if name == target:
                values[metric] += span["rss_rise_kb"] / 1024.0
        for metric, count in span["counts"].items():
            if metric in _MAX_COUNTS:
                values[metric] = max(values[metric], count)
            else:
                values[metric] += count
    candidates = values["discovery.candidates_enumerated"]
    values["discovery.yield"] = (values["discovery.pathways_returned"] / candidates
                                 if candidates else 0.0)
    return values


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced operations of a run."""
    if not samples:
        return {}
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
