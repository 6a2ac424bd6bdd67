#!/usr/bin/env python3
"""Build a small three-layer knowledge graph by hand and inspect it.

Entities live on one of three layers (physical / social / economic), edges
are directed and carry document provenance. The graph is immutable after
build and round-trips through a snapshot file (a short header plus one JSON
document).
"""

import tempfile
from pathlib import Path

from riskpath import Entity, Layer, Relation, build_graph, load_snapshot, save_snapshot

entities = [
    Entity("heatwave", "heatwave", Layer.PHYSICAL, severity=0.9),
    Entity("water demand surge", "water demand surge", Layer.SOCIAL, severity=0.6),
    Entity("industrial water restrictions", "industrial water restrictions",
           Layer.SOCIAL, severity=0.7),
    Entity("small business disruption", "small business disruption",
           Layer.ECONOMIC, severity=0.8),
    Entity("grid instability", "grid instability", Layer.PHYSICAL, severity=0.8),
]

relations = [
    Relation("r1", "heatwave", "increases", "water demand surge",
             doc_ids=frozenset({"doc-001", "doc-002"})),
    Relation("r2", "water demand surge", "triggers", "industrial water restrictions",
             doc_ids=frozenset({"doc-002"})),
    Relation("r3", "industrial water restrictions", "disrupts",
             "small business disruption", doc_ids=frozenset({"doc-002", "doc-003"})),
    Relation("r4", "heatwave", "strains", "grid instability",
             doc_ids=frozenset({"doc-004"})),
]

graph = build_graph(entities, relations)

stats = graph.stats()
print("graph statistics")
for key, value in stats.to_dict().items():
    print(f"  {key}: {value}")

print("\nneighbors of 'heatwave':")
for rid, target in graph.out_neighbors("heatwave"):
    rel = graph.relation(rid)
    print(f"  -[{rel.predicate}]-> {target}  (docs: {sorted(rel.doc_ids)})")

# snapshots are deterministic: the same graph always produces the same bytes
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.rpkg"
    save_snapshot(graph, path)
    reloaded = load_snapshot(path)
    print(f"\nsnapshot round trip OK: {reloaded == graph} "
          f"({path.stat().st_size} bytes)")
