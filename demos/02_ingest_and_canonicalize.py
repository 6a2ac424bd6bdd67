#!/usr/bin/env python3
"""Parse raw triples, canonicalize entity surface forms, and aggregate.

Canonicalization is deterministic: lowercase, trim, collapse whitespace,
then alias lookup. Unregistered names fall back to a keyword lexicon for
their layer assignment (with a neutral severity), or get rejected.
"""

import io

from riskpath import EntityMeta, Layer, aggregate, build_graph, canonicalize, parse_triples
from riskpath.ingest import load_layer_lexicon

raw_jsonl = io.StringIO("""\
{"s": "Heat Wave", "p": "increases", "o": "Water   Demand", "doc": "doc-1"}
{"s": "EXTREME HEAT", "p": "strains", "o": "power grid", "doc": "doc-2", "phases": ["acute"]}
{"s": "heatwave", "p": "reduces", "o": "crop yields", "doc": "doc-2"}
{"s": "heatwave", "p": "increases", "o": "water demand", "doc": "doc-3"}
not even json
""")

triples, errors = parse_triples(raw_jsonl, malformed_tolerance=0.25)
print(f"parsed {len(triples)} triples, {len(errors)} malformed:")
for err in errors:
    print(f"  line {err['line']}: {err['reason']}")

meta = [
    EntityMeta("heatwave", Layer.PHYSICAL, 0.9,
               aliases=("heat wave", "extreme heat")),
    EntityMeta("water demand", Layer.SOCIAL, 0.6),
    EntityMeta("power grid", Layer.PHYSICAL, 0.8),
]
lexicon = load_layer_lexicon({"crop": "economic", "market": "economic"})

canonical, unregistered = canonicalize(triples, meta)
print("\nafter canonicalization:")
for t in canonical:
    print(f"  ({t.subject}) -[{t.predicate}]-> ({t.object})  doc={t.doc_id}")
print(f"unregistered names: {unregistered}")

result = aggregate(canonical, meta, lexicon=lexicon)
print(f"\naggregated into {len(result.entities)} entities, "
      f"{len(result.relations)} relations over {result.doc_count} docs")
for entity in result.entities:
    print(f"  {entity.id:<14} layer={entity.layer.value:<9} severity={entity.severity}")

graph = build_graph(result.entities, result.relations,
                    doc_count=result.doc_count)
merged = graph.relations[next(iter(graph.relations))]
print(f"\nduplicate triples merged provenance: "
      f"{merged.source} -> {merged.target} attested by {sorted(merged.doc_ids)}")
