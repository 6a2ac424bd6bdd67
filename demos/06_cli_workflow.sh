#!/usr/bin/env bash
# Full command-line workflow: synthesize a corpus, ingest it, compute
# centrality, discover pathways, report, and export the pathway subgraph
# as Graphviz DOT.
set -euo pipefail

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
echo "working in $WORK"

riskpath syngen --docs 200 --seed 9 --entities-per-layer 60 \
    --chain "P,S,E,S,E:1" --out "$WORK/corpus"

riskpath ingest \
    --triples "$WORK/corpus/triples.jsonl" \
    --entities "$WORK/corpus/entities.jsonl" \
    --out "$WORK/graph"

riskpath stats "$WORK/graph"

riskpath pagerank "$WORK/graph" --top 5

riskpath discover "$WORK/graph" --theta 0.7 \
    --out "$WORK/graph/pathways.json"

riskpath report layers "$WORK/graph"

riskpath export "$WORK/graph" --pathways "$WORK/graph/pathways.json" \
    --out "$WORK/pathways.dot"
head -n 5 "$WORK/pathways.dot"
echo "DOT written to $WORK/pathways.dot"
