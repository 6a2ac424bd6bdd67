"""Command-line surface: ingest, stats, pagerank, discover, report, export,
syngen, pipeline.

Exit codes: 0 success, 1 data/validation failure, 2 usage error. With
``--format json`` each subcommand emits exactly one JSON document on stdout;
all diagnostics go to stderr. The working directory defaults to the
``RISKPATH_WORKDIR`` environment variable when not given.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .analysis import layer_distribution, temporal_distribution
from .discovery import discover, format_pathways
from .errors import ConfigError, RiskPathError
from .graph import KnowledgeGraph, Layer, load_snapshot
from .ingest import TRIPLES_FORMATS, CorpusStats
from .pipeline import (
    PipelineConfig,
    _atomic_write_json,
    _atomic_write_text,
    ingest,
    resume as pipeline_resume,
    run as pipeline_run,
)
from .scoring import (CentralityScores, ScoringConfig, pagerank, pagerank_stamp,
                      read_json_object)
from .syngen import GenSpec, PlantedChain, generate, write_corpus

logger = logging.getLogger("riskpath")

LAYER_COLORS = {
    Layer.PHYSICAL: "#6baed6",
    Layer.SOCIAL: "#74c476",
    Layer.ECONOMIC: "#fb6a4a",
}

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _resolve_workdir(value: str | None) -> Path:
    workdir = value or os.environ.get("RISKPATH_WORKDIR")
    if not workdir:
        raise SystemExit("workdir not given and RISKPATH_WORKDIR unset")
    return Path(workdir)


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _load_graph(workdir: Path) -> KnowledgeGraph:
    snapshot = workdir / "graph.rpkg"
    if not snapshot.exists():
        raise RiskPathError(
            f"no graph snapshot at {snapshot}; run 'riskpath ingest ... --out "
            f"{workdir}' first")
    return load_snapshot(snapshot)


def _scoring_config(args) -> ScoringConfig:
    base = (ScoringConfig.from_json_file(args.config)
            if getattr(args, "config", None) else ScoringConfig())
    return base.override(**{f.name: getattr(args, f.name, None)
                            for f in fields(ScoringConfig)})


def _add_scoring_flags(parser: argparse.ArgumentParser, centrality_only=False) -> None:
    """One flag per ScoringConfig field, its dest the field name; a flag left
    out (None) keeps the value from --config or the dataclass default."""
    default = ScoringConfig
    if not centrality_only:
        parser.add_argument("--config", help="scoring config JSON (flags override)")
        parser.add_argument("--alpha", type=float,
                            help=f"LF weight (default {default.alpha})")
        parser.add_argument("--beta", type=float,
                            help=f"CLC weight (default {default.beta})")
        parser.add_argument("--gamma", type=float,
                            help=f"IP weight (default {default.gamma})")
        parser.add_argument("--theta", dest="theta_novelty", metavar="THETA", type=float,
                            help=f"novelty threshold, strict "
                                 f"(default {default.theta_novelty})")
        parser.add_argument("--d-max", dest="d_max", type=int,
                            help=f"maximum pathway edge length (default {default.d_max})")
        parser.add_argument("--top-k", dest="top_k", type=int,
                            help=f"pathways to return (default {default.top_k})")
        parser.add_argument("--fmax-mode", dest="fmax_mode",
                            choices=["pathway-max", "edge-max"],
                            help=f"LF normalizer (default {default.fmax_mode})")
        parser.add_argument("--freq-mode", dest="freq_mode",
                            choices=["docs", "entities"],
                            help="co-attestation counted over relations or entities")
    parser.add_argument("--damping", type=float,
                        help=f"PageRank damping (default {default.damping})")
    parser.add_argument("--pr-tolerance", dest="pr_tolerance", type=float,
                        help=f"PageRank L1 stop tolerance (default {default.pr_tolerance})")
    parser.add_argument("--pr-max-iters", dest="pr_max_iters", type=int,
                        help=f"PageRank iteration cap (default {default.pr_max_iters})")


# --- subcommands -------------------------------------------------------------

def cmd_ingest(args) -> int:
    workdir = _resolve_workdir(args.out)
    workdir.mkdir(parents=True, exist_ok=True)
    config = PipelineConfig(
        triples=args.triples, entities=args.entities,
        triples_format=args.triples_format, aliases=args.aliases,
        layer_lexicon=args.layer_lexicon, strict=args.strict,
        malformed_tolerance=args.malformed_tolerance)
    summary = {"workdir": str(workdir), **ingest(config, workdir)}
    if args.format == "json":
        _emit_json(summary)
    else:
        print(f"ingested {summary['entities']} entities, "
              f"{summary['relations']} relations from {summary['doc_count']} docs "
              f"-> {workdir / 'graph.rpkg'}")
        if summary["parse_errors"] or summary["rejections"]:
            print(f"  {summary['parse_errors']} parse errors, "
                  f"{summary['rejections']} rejections (see reports in {workdir})")
    return EXIT_OK


def cmd_stats(args) -> int:
    workdir = _resolve_workdir(args.workdir)
    stats = _load_graph(workdir).stats()
    if args.format == "json":
        _emit_json(stats.to_dict())
    else:
        print(f"entities:       {stats.num_entities}")
        print(f"relations:      {stats.num_relations}")
        for layer in Layer:
            print(f"  {layer.value:<12} {stats.layer_counts[layer]}")
        print(f"documents:      {stats.doc_count}")
        print(f"avg out-degree: {stats.avg_out_degree:.3f}")
    return EXIT_OK


def cmd_pagerank(args) -> int:
    if args.top < 0:
        raise ConfigError(f"--top must be non-negative, got {args.top}")
    workdir = _resolve_workdir(args.workdir)
    graph = _load_graph(workdir)
    config = _scoring_config(args)
    centrality = pagerank(graph, config)
    out_path = workdir / "pagerank.json"
    _atomic_write_json(out_path, centrality.to_dict())
    if args.format == "json":
        _emit_json(centrality.to_dict())
    else:
        status = "converged" if centrality.converged else "NOT converged"
        print(f"pagerank {status} in {centrality.iterations_used} iterations "
              f"-> {out_path}")
        top = sorted(centrality.scores.items(), key=lambda kv: (-kv[1], kv[0]))
        for eid, score in top[:args.top]:
            print(f"  {score:.6f}  {graph.entity(eid).canonical_name}")
    return EXIT_OK


def cmd_discover(args) -> int:
    workdir = _resolve_workdir(args.workdir)
    graph = _load_graph(workdir)
    stats = CorpusStats.from_graph(graph)
    config = _scoring_config(args)
    pr_path = workdir / "pagerank.json"
    if pr_path.exists():
        centrality = CentralityScores.from_dict(
            read_json_object(pr_path, "pagerank scores"))
        if (set(centrality.scores) != set(graph.entities)
                or centrality.stamp != pagerank_stamp(graph, config)):
            logger.warning("pagerank.json does not match the graph; recomputing")
            centrality = pagerank(graph, config)
    else:
        logger.info("no pagerank.json; computing centrality on demand")
        centrality = pagerank(graph, config)

    result = discover(graph, stats, centrality, config, workers=args.workers,
                      prune=args.prune, undirected=args.undirected)
    payload = result.to_json_dict(graph)
    out_path = Path(args.out) if args.out else workdir / "pathways.json"
    _atomic_write_json(out_path, payload)
    if args.format == "json":
        _emit_json(payload)
    else:
        print(format_pathways(payload))
        print(f"({len(result.pathways)} pathway(s) of {result.candidates_enumerated} "
              f"candidates from {result.sources_processed} sources; "
              f"F_max={result.f_max_used}; written to {out_path})")
    return EXIT_OK


def cmd_report(args) -> int:
    workdir = _resolve_workdir(args.workdir)
    graph = _load_graph(workdir)
    if args.kind == "temporal":
        report = temporal_distribution(
            graph, by="source" if args.by_source else "target")
    else:
        report = layer_distribution(graph)
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        print(report.to_table())
    return EXIT_OK


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def cmd_export(args) -> int:
    workdir = _resolve_workdir(args.workdir)
    graph = _load_graph(workdir)

    relations = list(graph.relations.values())
    if args.pathways:
        rows = read_json_object(args.pathways, "pathways file").get("pathways", [])
        if not isinstance(rows, list):
            raise RiskPathError(f"{args.pathways}: 'pathways' must be a list")
        name_to_id = {e.canonical_name: eid for eid, e in graph.entities.items()}
        by_triple = {rel.triple: rel for rel in graph.relations.values()}
        relations = []
        seen = set()
        for row in rows:
            if not (isinstance(row, dict) and _is_str_list(row.get("entities"))
                    and _is_str_list(row.get("predicates"))):
                raise RiskPathError(f"{args.pathways}: each pathway needs 'entities' "
                                    f"and 'predicates' lists of strings")
            entities, predicates = row["entities"], row["predicates"]
            for a, pred, b in zip(entities, predicates, entities[1:]):
                try:
                    triple = (name_to_id[a], pred, name_to_id[b])
                except KeyError as exc:
                    raise RiskPathError(
                        f"pathway entity {exc} not present in the graph") from None
                rel = by_triple.get(triple) or by_triple.get(
                    (triple[2], triple[1], triple[0]))
                if rel is None:
                    raise RiskPathError(
                        f"pathway edge {a!r} -[{pred}]-> {b!r} not in the graph")
                if rel.id not in seen:
                    seen.add(rel.id)
                    relations.append(rel)

    lines = ["digraph riskpath {", "  rankdir=LR;", "  node [style=filled];"]
    for entity in graph.entities.values():
        lines.append(
            f'  "{_dot_escape(entity.id)}" '
            f'[label="{_dot_escape(entity.canonical_name)}", '
            f'fillcolor="{LAYER_COLORS[entity.layer]}"];')
    for rel in relations:
        lines.append(
            f'  "{_dot_escape(rel.source)}" -> "{_dot_escape(rel.target)}" '
            f'[label="{len(rel.doc_ids)}"];')
    lines.append("}")
    text = "\n".join(lines) + "\n"

    if args.out:
        _atomic_write_text(Path(args.out), text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_syngen(args) -> int:
    spec = GenSpec(
        n_docs=args.docs,
        seed=args.seed,
        entities_per_layer=args.entities_per_layer,
        relations_per_doc=(args.min_relations, args.max_relations),
        planted_chains=tuple(PlantedChain.parse(c) for c in args.chain or []),
        background_noise=args.background_noise,
        same_layer_bias=args.same_layer_bias,
        popularity_skew=args.popularity_skew,
        common_chains=args.common_chains,
        planted_severity=args.planted_severity,
        malformed_rate=args.malformed_rate,
    )
    result = generate(spec)
    paths = write_corpus(result, args.out)
    if args.format == "json":
        _emit_json(result.manifest)
    else:
        counts = result.manifest["counts"]
        print(f"generated {counts['docs']} docs / {counts['triples']} triples / "
              f"{counts['relations']} unique relations into {args.out}")
        for chain in result.manifest["chains"]:
            print(f"  planted: {' → '.join(chain['entities'])} "
                  f"(attested by {chain['attestations']} doc(s))")
        print(f"  manifest: {paths['manifest']}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    if args.action == "run":
        if not args.config:
            raise SystemExit("pipeline run requires --config")
        config = PipelineConfig.from_json_file(args.config)
        summary = pipeline_run(config, _resolve_workdir(args.workdir))
    else:
        summary = pipeline_resume(_resolve_workdir(args.workdir))
    if args.format == "json":
        _emit_json(summary.to_dict())
    else:
        for record in summary.records:
            print(f"  {record.stage_name:<10} {record.status:<8} "
                  f"attempts={record.attempts}")
        print(f"executed: {summary.executed or 'none'}; "
              f"skipped: {summary.skipped or 'none'}")
    return EXIT_OK


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskpath",
        description="Multi-layer knowledge-graph discovery of cross-layer "
                    "risk propagation pathways.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, canonicalize, and build the graph")
    p.add_argument("--triples", required=True)
    p.add_argument("--triples-format", dest="triples_format",
                   choices=TRIPLES_FORMATS, default=PipelineConfig.triples_format)
    p.add_argument("--entities", required=True, help="entity metadata JSONL")
    p.add_argument("--aliases", help="JSON object of alias -> canonical name")
    p.add_argument("--layer-lexicon", dest="layer_lexicon",
                   help="JSON object of keyword -> layer for unregistered entities")
    p.add_argument("--strict", action="store_true",
                   help="treat unresolvable entities as failures")
    p.add_argument("--malformed-tolerance", dest="malformed_tolerance",
                   type=float, default=PipelineConfig.malformed_tolerance)
    p.add_argument("--out", help="working directory (default $RISKPATH_WORKDIR)")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="graph size and layer distribution")
    p.add_argument("workdir", nargs="?")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pagerank", help="compute and store centrality scores")
    p.add_argument("workdir", nargs="?")
    _add_scoring_flags(p, centrality_only=True)
    p.add_argument("--top", type=int, default=10, help="entities to display")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_pagerank)

    p = sub.add_parser("discover", help="enumerate and rank cross-layer pathways")
    p.add_argument("workdir", nargs="?")
    _add_scoring_flags(p)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="accepted for compatibility; has no effect "
                        "(discovery runs on one thread)")
    prune = p.add_mutually_exclusive_group()
    prune.add_argument("--prune", dest="prune", action="store_true", default=None)
    prune.add_argument("--no-prune", dest="prune", action="store_false")
    p.add_argument("--undirected", action="store_true",
                   help="traverse edges in both directions (exploratory)")
    p.add_argument("--out", help="pathways JSON path (default workdir/pathways.json)")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("report", help="temporal phase or layer distribution report")
    p.add_argument("kind", choices=["temporal", "layers"])
    p.add_argument("workdir", nargs="?")
    p.add_argument("--by-source", dest="by_source", action="store_true",
                   help="attribute relations to their source entity's layer")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="export the graph (or pathways) as DOT")
    p.add_argument("workdir", nargs="?")
    p.add_argument("--format", choices=["dot"], default="dot")
    p.add_argument("--pathways", help="restrict edges to a pathways JSON file")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("syngen", help="generate a synthetic corpus with planted chains")
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--seed", type=int, default=GenSpec.seed)
    p.add_argument("--entities-per-layer", dest="entities_per_layer",
                   type=int, default=GenSpec.entities_per_layer)
    p.add_argument("--min-relations", dest="min_relations", type=int,
                   default=GenSpec.relations_per_doc[0])
    p.add_argument("--max-relations", dest="max_relations", type=int,
                   default=GenSpec.relations_per_doc[1])
    p.add_argument("--chain", action="append",
                   help='planted chain, e.g. "P,S,E,S,E:1" (repeatable)')
    p.add_argument("--background-noise", dest="background_noise",
                   type=float, default=GenSpec.background_noise)
    p.add_argument("--same-layer-bias", dest="same_layer_bias",
                   type=float, default=GenSpec.same_layer_bias)
    p.add_argument("--popularity-skew", dest="popularity_skew",
                   type=float, default=GenSpec.popularity_skew)
    p.add_argument("--common-chains", dest="common_chains", type=int,
                   default=GenSpec.common_chains)
    p.add_argument("--planted-severity", dest="planted_severity",
                   type=float, default=GenSpec.planted_severity)
    p.add_argument("--malformed-rate", dest="malformed_rate",
                   type=float, default=GenSpec.malformed_rate)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_syngen)

    p = sub.add_parser("pipeline", help="run or resume the checkpointed pipeline")
    p.add_argument("action", choices=["run", "resume"])
    p.add_argument("--config", help="pipeline config JSON (required for run)")
    p.add_argument("--workdir", help="working directory (default $RISKPATH_WORKDIR)")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return EXIT_USAGE
        return int(exc.code or 0)
    except RiskPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
