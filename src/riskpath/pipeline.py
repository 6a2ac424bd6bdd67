"""Checkpointed, resumable batch pipeline: ingest -> pagerank -> discover ->
report.

A working directory holds one artifact per fact. ``ingest`` (also what
``riskpath ingest`` runs) goes from the input files straight to
``graph.rpkg``, with the ``rejections.jsonl`` and ``parse_errors.jsonl``
reports; ``pagerank`` writes ``pagerank.json``; ``discover`` writes
``pathways.json``, reading per-relation document sets from the graph;
``report`` writes ``report_temporal.json``, ``report_layers.json`` and
``report_pathways.txt``. ``config.json`` and ``manifest.json`` record the run.

Each stage records a manifest entry with a fingerprint of exactly the inputs
it reads (the relevant config fields plus content hashes of its input files)
and content hashes of the outputs it wrote. A rerun skips stages whose
fingerprints, output names and output hashes still match; anything else
(including a manifest from another stage layout) is re-executed, along
with every stage downstream of it (stages are deterministic, so cascading
re-runs reproduce identical bytes). Outputs
are written atomically (temp file + rename), so a crash at any point leaves
either the old state or the new state, never a torn file, and a resumed run
finishes with byte-identical final outputs. An output that already holds the
bytes a stage would write is left in place. ``manifest.json`` is overwritten
in place instead, under the lock: a torn manifest either does not decode,
and the run starts fresh, or each of its records is checked against the
stage's input fingerprint and output hashes before any output is reused.

A run holds one graph in memory: the one ingest built, keyed by the sha256
of the snapshot bytes it wrote, or else the first one a stage loaded, keyed
by the sha256 that stage's input fingerprint read for ``graph.rpkg``. A
later stage uses it only when its own input fingerprint hashes
``graph.rpkg`` to that key, and loads the file otherwise. So a fresh run
never loads ``graph.rpkg``, a resume or a rerun loads it at most once, and
a changed snapshot is never reused. Ingest's manifest record takes that key
as the output hash of ``graph.rpkg``, since it hashed the same bytes; the
later stages still hash the file for their input fingerprints.

Transient failures (I/O) are retried with exponential backoff up to a retry
limit; validation/config failures fail fast.

An exclusive ``flock`` on ``pipeline.lock`` enforces one pipeline instance
per working directory; the kernel releases it when the holder exits, so a
lock file left by a killed process never blocks the next run. The file holds
pid and start time for people to read and is removed when the run ends.

Internal testing seam: the environment variable ``RISKPATH_TEST_CRASH`` set
to ``"<point>:<stage>"`` (point in {before_record, after_record}) hard-exits
the process at that point, for crash-resume equivalence tests.
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import hashlib
import json
import logging
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .analysis import TEMPORAL_BY, layer_distribution, temporal_distribution
from .discovery import discover, format_pathways
from .errors import (ConfigError, IngestError, PipelineError, RiskPathError,
                     TransientStageError)
from .graph import (SNAPSHOT_VERSION, KnowledgeGraph, build_graph, collector_paused,
                    load_snapshot, save_snapshot)
from .ingest import (
    DEFAULT_MALFORMED_TOLERANCE,
    TRIPLES_FORMATS,
    CorpusStats,
    aggregate,
    canonicalize,
    check_malformed_tolerance,
    load_layer_lexicon,
    parse_entity_meta,
    parse_triples,
)
from .scoring import (CentralityScores, ScoringConfig, check_field_types, pagerank,
                      read_json_object)

logger = logging.getLogger(__name__)

STAGE_ORDER = ("ingest", "pagerank", "discover", "report")

MANIFEST_NAME = "manifest.json"
LOCK_NAME = "pipeline.lock"
CONFIG_NAME = "config.json"

STAGE_OUTPUTS = {
    "ingest": ("graph.rpkg", "rejections.jsonl", "parse_errors.jsonl"),
    "pagerank": ("pagerank.json",),
    "discover": ("pathways.json",),
    "report": ("report_temporal.json", "report_layers.json", "report_pathways.txt"),
}

_CURRENT_OUTPUTS = frozenset(name for names in STAGE_OUTPUTS.values()
                             for name in names)
_NEVER_REMOVED = frozenset({CONFIG_NAME, MANIFEST_NAME, LOCK_NAME, "", ".", ".."})

_CRASH_ENV = "RISKPATH_TEST_CRASH"


@dataclass
class PipelineConfig:
    """Inputs, scoring parameters, and execution knobs for one pipeline run."""

    triples: str
    entities: str
    triples_format: str = "jsonl"
    aliases: str | None = None
    layer_lexicon: str | None = None
    strict: bool = False
    malformed_tolerance: float = DEFAULT_MALFORMED_TOLERANCE
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    prune: bool | None = None
    undirected: bool = False
    temporal_by: str = "target"
    retry_limit: int = 3
    retry_base_delay: float = 0.5

    def __post_init__(self):
        # paths are kept as str so the config round-trips through JSON
        for name in ("triples", "entities", "aliases", "layer_lexicon"):
            value = getattr(self, name)
            if isinstance(value, os.PathLike):
                setattr(self, name, os.fspath(value))
        check_field_types(self)
        # values a stage would reject only once the stages before it had run
        if self.triples_format not in TRIPLES_FORMATS:
            raise ConfigError(f"'triples_format' must be one of {TRIPLES_FORMATS}, "
                              f"got {self.triples_format!r}")
        check_malformed_tolerance(self.malformed_tolerance)
        if self.temporal_by not in TEMPORAL_BY:
            raise ConfigError(f"'temporal_by' must be one of {TEMPORAL_BY}, "
                              f"got {self.temporal_by!r}")
        if self.retry_limit < 0:
            raise ConfigError(f"'retry_limit' must be >= 0, got {self.retry_limit}")
        if self.retry_base_delay < 0:
            raise ConfigError(f"'retry_base_delay' must be >= 0, got {self.retry_base_delay}")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["scoring"] = self.scoring.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        data = dict(data)
        scoring = data.pop("scoring", {})
        if not isinstance(scoring, dict):
            raise ConfigError("pipeline config field 'scoring' must be an object")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown pipeline config field(s): {sorted(unknown)}")
        return cls(scoring=ScoringConfig.from_dict(scoring), **data)

    @classmethod
    def from_json_file(cls, path) -> "PipelineConfig":
        data = read_json_object(path, "pipeline config")
        if "triples" not in data or "entities" not in data:
            raise ConfigError(f"{path}: pipeline config needs 'triples' and 'entities'")
        return cls.from_dict(data)


@dataclass
class StageRecord:
    stage_name: str
    input_fingerprint: str = ""
    output_paths: list[str] = field(default_factory=list)
    output_fingerprints: list[str] = field(default_factory=list)
    status: str = "pending"  # pending | done | failed
    attempts: int = 0

    def __post_init__(self):
        check_field_types(self)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PipelineSummary:
    workdir: str
    records: list[StageRecord]
    executed: list[str]
    skipped: list[str]

    def to_dict(self) -> dict:
        return {
            "workdir": self.workdir,
            "executed": self.executed,
            "skipped": self.skipped,
            "stages": [rec.to_dict() for rec in self.records],
        }


# --- retry policy -----------------------------------------------------------

def classify_error(error: BaseException) -> str:
    """Minimal taxonomy: I/O problems are transient, everything else permanent."""
    if isinstance(error, TransientStageError):
        return "transient"
    if isinstance(error, RiskPathError):
        return "permanent"
    if isinstance(error, OSError):
        return "transient"
    return "permanent"


def retry_policy(error: BaseException, attempt: int, retry_limit: int = 3,
                 base_delay: float = 0.5) -> tuple[bool, float]:
    """(should retry, backoff delay) for a failure on the given attempt.

    Transient errors retry up to ``retry_limit`` times with exponential
    backoff; permanent errors fail fast.
    """
    if classify_error(error) != "transient" or attempt > retry_limit:
        return False, 0.0
    return True, base_delay * (2 ** (attempt - 1))


# --- fingerprints and atomic files -------------------------------------------

def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _fingerprint(stage: str, config_part: dict, file_hashes: dict[str, str]) -> str:
    payload = json.dumps({"stage": stage, "config": config_part,
                          "files": file_hashes}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _hash_inputs(paths: dict[str, str | None]) -> dict[str, str]:
    hashes = {}
    for name, path in paths.items():
        if path is None:
            hashes[name] = "absent"
            continue
        try:
            hashes[name] = _sha256_file(path)
        except OSError as exc:
            raise PipelineError(f"stage input {name} unreadable: {exc}") from None
    return hashes


def _same_bytes(path: Path, other: Path) -> bool:
    """Whether two files hold the same bytes, read a MiB at a time."""
    try:
        with open(path, "rb") as a, open(other, "rb") as b:
            if os.fstat(a.fileno()).st_size != os.fstat(b.fileno()).st_size:
                return False
            while block := a.read(1 << 20):
                if block != b.read(1 << 20):
                    return False
            return True
    except OSError:
        return False


def _replace_unless_same(tmp: Path, path: Path) -> None:
    """Rename ``tmp`` over ``path``, or delete it when ``path`` already holds
    its bytes: on ext4, a rename over a file that an earlier rename put in
    place waits for a writeback, and deleting such a file later waits too."""
    if _same_bytes(path, tmp):
        tmp.unlink()
    else:
        os.replace(tmp, path)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    _replace_unless_same(tmp, path)


def _atomic_write_json(path: Path, data) -> None:
    _atomic_write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _atomic_write_jsonl(path: Path, rows: list[dict]) -> None:
    _atomic_write_text(path, "".join(json.dumps(row, sort_keys=True) + "\n"
                                     for row in rows))


def _stage_inputs(stage: str, config: PipelineConfig,
                  workdir: Path) -> tuple[str, dict[str, str]]:
    """The stage's input fingerprint, and the content hash of each input file
    it covers by name."""
    scoring = config.scoring
    if stage == "ingest":
        # the snapshot version makes a graph.rpkg of another format rerun ingest
        part = {"triples_format": config.triples_format, "strict": config.strict,
                "malformed_tolerance": config.malformed_tolerance,
                "snapshot_version": SNAPSHOT_VERSION}
        files = _hash_inputs({
            "triples": config.triples, "entities": config.entities,
            "aliases": config.aliases, "layer_lexicon": config.layer_lexicon,
        })
    elif stage == "pagerank":
        part = {"damping": scoring.damping, "pr_tolerance": scoring.pr_tolerance,
                "pr_max_iters": scoring.pr_max_iters}
        files = _hash_inputs({"graph": str(workdir / "graph.rpkg")})
    elif stage == "discover":
        part = {"alpha": scoring.alpha, "beta": scoring.beta, "gamma": scoring.gamma,
                "theta_novelty": scoring.theta_novelty, "d_max": scoring.d_max,
                "top_k": scoring.top_k, "fmax_mode": scoring.fmax_mode,
                "freq_mode": scoring.freq_mode, "prune": config.prune,
                "undirected": config.undirected}
        files = _hash_inputs({
            "graph": str(workdir / "graph.rpkg"),
            "pagerank": str(workdir / "pagerank.json"),
        })
    elif stage == "report":
        part = {"temporal_by": config.temporal_by}
        files = _hash_inputs({
            "graph": str(workdir / "graph.rpkg"),
            "pathways": str(workdir / "pathways.json"),
        })
    else:
        raise PipelineError(f"unknown stage {stage!r}")
    return _fingerprint(stage, part, files), files


# --- the graph a run holds --------------------------------------------------

@dataclass
class _RunGraph:
    """The one graph a pipeline run holds between its stages.

    ``key`` is the sha256 of the ``graph.rpkg`` bytes that ``graph`` was
    written as or loaded from. ``stage_key`` is the sha256 that the running
    stage's input fingerprint read for ``graph.rpkg``, None for a stage
    that reads no graph.
    """

    key: str | None = None
    graph: KnowledgeGraph | None = None
    stage_key: str | None = None


# set by ``run`` for its duration, so that stage bodies keep their
# (config, workdir) signature
_run_graph: ContextVar[_RunGraph | None] = ContextVar("_run_graph", default=None)


@contextlib.contextmanager
def _holding_graph():
    held = _RunGraph()
    token = _run_graph.set(held)
    try:
        yield held
    finally:
        _run_graph.reset(token)


def _read_graph(workdir: Path) -> KnowledgeGraph:
    """The graph in ``workdir/graph.rpkg``. Inside ``run``, a stage whose
    input fingerprint hashed the file to the held graph's key gets that
    graph; otherwise the file is loaded, and the run holds it under the
    hash the fingerprint read."""
    held = _run_graph.get()
    if held is None or held.stage_key is None:
        return load_snapshot(workdir / "graph.rpkg")
    if held.key != held.stage_key:
        held.graph, held.key = load_snapshot(workdir / "graph.rpkg"), held.stage_key
    return held.graph


# --- stage bodies -------------------------------------------------------------

def _string_map(path, what: str) -> dict[str, str]:
    data = read_json_object(path, what)
    if not all(isinstance(value, str) for value in data.values()):
        raise ConfigError(f"{path}: {what} values must be strings")
    return data


def _parse_text_file(path, parse, *args):
    """``parse`` the lines of a UTF-8 file; other bytes are an IngestError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh, *args)
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None


def ingest(config: PipelineConfig, workdir: Path) -> dict:
    """Parse, canonicalize and aggregate the input files into ``graph.rpkg``.

    Also writes the ``rejections.jsonl`` and ``parse_errors.jsonl`` reports;
    every file is written atomically, and one that already holds the new
    bytes is left in place. Returns counts for a summary line. Inside
    ``run``, the run holds the graph built here under the sha256 of the
    snapshot bytes written, so later stages need not load it.
    The cyclic garbage collector is paused for the call
    (``graph.collector_paused``).
    """
    with collector_paused():
        triples, parse_errors = _parse_text_file(
            config.triples, parse_triples, config.triples_format, config.malformed_tolerance)
        meta = _parse_text_file(config.entities, parse_entity_meta)
        extra_aliases = (_string_map(config.aliases, "alias file")
                         if config.aliases else None)
        lexicon = (load_layer_lexicon(_string_map(config.layer_lexicon, "layer lexicon"))
                   if config.layer_lexicon else None)

        canonical, unregistered = canonicalize(triples, meta, extra_aliases)
        if unregistered:
            logger.warning("%d unregistered entity names (first: %r)",
                           len(unregistered), unregistered[0])
        result = aggregate(canonical, meta, lexicon, strict=config.strict)
        graph = build_graph(result.entities, result.relations, doc_count=result.doc_count)

        tmp = workdir / "graph.rpkg.tmp"
        save_snapshot(graph, tmp)
        held = _run_graph.get()
        if held is not None:
            held.graph, held.key = graph, _sha256_file(tmp)
        _replace_unless_same(tmp, workdir / "graph.rpkg")
        _atomic_write_jsonl(workdir / "rejections.jsonl", result.rejections)
        _atomic_write_jsonl(workdir / "parse_errors.jsonl", parse_errors)
    return {"entities": len(graph.entities), "relations": len(graph.relations),
            "doc_count": graph.doc_count, "parse_errors": len(parse_errors),
            "rejections": len(result.rejections), "unregistered": len(unregistered)}


def _stage_pagerank(config: PipelineConfig, workdir: Path) -> None:
    graph = _read_graph(workdir)
    centrality = pagerank(graph, config.scoring)
    _atomic_write_json(workdir / "pagerank.json", centrality.to_dict())


def _stage_discover(config: PipelineConfig, workdir: Path) -> None:
    graph = _read_graph(workdir)
    centrality = CentralityScores.from_dict(
        read_json_object(workdir / "pagerank.json", "pagerank scores"))
    result = discover(graph, CorpusStats.from_graph(graph), centrality, config.scoring,
                      prune=config.prune, undirected=config.undirected)
    _atomic_write_json(workdir / "pathways.json", result.to_json_dict(graph))


def _stage_report(config: PipelineConfig, workdir: Path) -> None:
    graph = _read_graph(workdir)
    pathways = read_json_object(workdir / "pathways.json", "pathways file")
    _atomic_write_json(workdir / "report_temporal.json",
                       temporal_distribution(graph, by=config.temporal_by).to_dict())
    _atomic_write_json(workdir / "report_layers.json",
                       layer_distribution(graph).to_dict())
    _atomic_write_text(workdir / "report_pathways.txt",
                       format_pathways(pathways) + "\n")


STAGES = {
    "ingest": ingest,
    "pagerank": _stage_pagerank,
    "discover": _stage_discover,
    "report": _stage_report,
}


# --- manifest and lock --------------------------------------------------------

def _load_manifest(workdir: Path) -> dict[str, StageRecord]:
    """The manifest's records by stage. A manifest that does not decode, or
    whose rows are not exactly the StageRecord fields each of its annotated
    type, is unreadable, and the run starts fresh."""
    path = workdir / MANIFEST_NAME
    if not path.exists():
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
        if not (isinstance(rows, list) and all(
                isinstance(row, dict) and row.keys() == StageRecord.__dataclass_fields__.keys()
                for row in rows)):
            raise ConfigError("not a list of stage records")
        records = [StageRecord(**row) for row in rows]
    # ValueError: bad JSON or not UTF-8; RecursionError: nested too deeply
    except (ValueError, RecursionError, ConfigError) as exc:
        logger.warning("manifest unreadable (%s); starting fresh", exc)
        return {}
    return {record.stage_name: record for record in records}


def _save_manifest(workdir: Path, records: dict[str, StageRecord]) -> None:
    """Overwrite ``manifest.json`` in place: renaming a new file over one
    that an earlier rename put there makes ext4 wait for a writeback. Only
    the lock holder writes it, and a crash cannot tear a completed write."""
    rows = [records[name].to_dict() for name in STAGE_ORDER if name in records]
    data = (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(workdir / MANIFEST_NAME, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        _overwrite(fd, data)
    finally:
        os.close(fd)


def _outputs_valid(workdir: Path, record: StageRecord) -> bool:
    if len(record.output_paths) != len(record.output_fingerprints):
        return False
    for rel_path, expected in zip(record.output_paths, record.output_fingerprints):
        path = workdir / rel_path
        if not path.exists() or _sha256_file(path) != expected:
            return False
    return True


def _remove_stale_outputs(workdir: Path, record: StageRecord) -> None:
    """Remove the files an old stage record lists that no current stage
    writes (a workdir of an older stage layout). Only bare file names are
    removed, never a path, ``..`` or one of the run's own files."""
    for name in record.output_paths:
        if (name in _CURRENT_OUTPUTS or name in _NEVER_REMOVED
                or os.path.basename(name) != name):
            continue
        with contextlib.suppress(OSError, ValueError):
            (workdir / name).unlink()
            logger.info("removed %s, which no current stage writes", name)


@contextlib.contextmanager
def _pipeline_lock(workdir: Path):
    """Hold an exclusive ``flock`` on ``pipeline.lock`` for one run.

    The kernel drops the lock when its holder exits, however it exits, so a
    lock file left by a dead process is simply locked again. The holder
    unlinks the file before closing it; a process that locked a file that
    was unlinked meanwhile sees it is no longer the file at the path and
    retries. The file holds pid and start time for people to read.
    """
    path = workdir / LOCK_NAME
    while True:
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise PipelineError(f"another pipeline holds the lock {path}") from None
        with contextlib.suppress(FileNotFoundError):
            if os.path.samestat(os.fstat(fd), os.stat(path)):
                break
        os.close(fd)  # locked a file its holder has unlinked since; retry
    try:
        _overwrite(fd, json.dumps({"pid": os.getpid(),
                                   "started_at": time.time()}).encode("utf-8"))
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.close(fd)


def _overwrite(fd: int, data: bytes) -> None:
    """Write ``data`` over an open file from offset 0, then cut what longer
    old contents left; truncating to 0 first would make closing the file
    wait for a disk flush on ext4."""
    written = os.pwrite(fd, data, 0)
    if written != len(data):
        raise OSError(errno.EIO, f"short write: {written} of {len(data)} bytes")
    os.ftruncate(fd, written)


def _maybe_crash(point: str, stage: str) -> None:
    if os.environ.get(_CRASH_ENV) == f"{point}:{stage}":
        os._exit(70)


# --- orchestration --------------------------------------------------------------

def run(config: PipelineConfig, workdir) -> PipelineSummary:
    """Execute all stages in dependency order, skipping up-to-date ones."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    with _pipeline_lock(workdir), _holding_graph() as held:
        _atomic_write_json(workdir / CONFIG_NAME, config.to_dict())
        records = _load_manifest(workdir)
        executed: list[str] = []
        skipped: list[str] = []
        upstream_ran = False

        for stage in STAGE_ORDER:
            fingerprint, input_hashes = _stage_inputs(stage, config, workdir)
            record = records.get(stage)
            if (not upstream_ran and record is not None and record.status == "done"
                    and record.input_fingerprint == fingerprint
                    and record.output_paths == list(STAGE_OUTPUTS[stage])
                    and _outputs_valid(workdir, record)):
                skipped.append(stage)
                continue
            upstream_ran = True
            if record is not None:
                if record.status == "done":
                    logger.warning("stage %s or an upstream stage changed; "
                                   "re-running", stage)
                _remove_stale_outputs(workdir, record)

            record = StageRecord(stage_name=stage, input_fingerprint=fingerprint)
            records[stage] = record
            held.stage_key = input_hashes.get("graph")
            attempt = 0
            while True:
                attempt += 1
                record.attempts = attempt
                try:
                    STAGES[stage](config, workdir)
                    break
                except Exception as exc:  # noqa: BLE001 - classified below
                    should_retry, delay = retry_policy(
                        exc, attempt, config.retry_limit, config.retry_base_delay)
                    if not should_retry:
                        record.status = "failed"
                        _save_manifest(workdir, records)
                        raise PipelineError(
                            f"stage {stage} failed after {attempt} attempt(s): "
                            f"{exc}") from exc
                    logger.warning("stage %s attempt %d failed: %s; retrying in %.2fs",
                                   stage, attempt, exc, delay)
                    time.sleep(delay)

            _maybe_crash("before_record", stage)
            record.output_paths = list(STAGE_OUTPUTS[stage])
            # ingest held its graph under the sha256 of the bytes it left in
            # graph.rpkg; later stages hash the file for their own inputs
            known = {"graph.rpkg": held.key} if stage == "ingest" and held.key else {}
            record.output_fingerprints = [
                known.get(name) or _sha256_file(workdir / name)
                for name in record.output_paths]
            record.status = "done"
            _save_manifest(workdir, records)
            _maybe_crash("after_record", stage)
            executed.append(stage)

        return PipelineSummary(workdir=str(workdir), records=[
            records[name] for name in STAGE_ORDER if name in records
        ], executed=executed, skipped=skipped)


def resume(workdir) -> PipelineSummary:
    """Continue from the first stage that is not done, reusing valid outputs."""
    workdir = Path(workdir)
    if not (workdir / MANIFEST_NAME).exists():
        raise PipelineError(
            f"nothing to resume: {workdir / MANIFEST_NAME} does not exist")
    config_path = workdir / CONFIG_NAME
    if not config_path.exists():
        raise PipelineError(f"nothing to resume: {config_path} does not exist")
    config = PipelineConfig.from_json_file(config_path)
    return run(config, workdir)
