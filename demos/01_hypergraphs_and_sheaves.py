"""Directed hypergraphs, file round trips, and the graph transform.

A directed hyperedge splits its members into a tail set and a head set;
an empty head marks an undirected edge.  This script builds a few edges by
hand, shows the text format, and turns a small directed graph into its
forward directed hypergraph (one hyperedge per out-neighborhood).
"""

import tempfile
from pathlib import Path

from hypersheaf import (
    DirectedGraph,
    DirectedHypergraph,
    Hyperedge,
    from_directed_graph,
    incidence_counts,
    read_hypergraph,
    validate,
    write_hypergraph,
)

# two undirected triples sharing two vertices, plus one directed hyperedge
H = DirectedHypergraph(
    5,
    (
        Hyperedge((0, 1, 2)),
        Hyperedge((1, 2, 3)),
        Hyperedge(tail=(0,), head=(3, 4)),
    ),
)
validate(H)
print(f"{H.num_vertices} vertices, {H.num_hyperedges} hyperedges")
for j, e in enumerate(H.hyperedges):
    kind = "undirected" if e.is_undirected else "directed"
    print(f"  e{j}: tail={e.tail} head={e.head} ({kind}, degree {e.degree})")

print("\nvertex degrees (number of incident edges):")
print(" ", incidence_counts(H).tolist())

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "example.hg"
    write_hypergraph(H, path)
    print("\ntext format (1-based indices, 'tail | head'):")
    print(path.read_text())
    assert read_hypergraph(path) == H, "round trip must be lossless"

# a directed graph becomes one hyperedge per vertex with outgoing arcs
G = DirectedGraph(4, ((0, 1), (0, 2), (0, 3), (2, 3)))
F = from_directed_graph(G)
print("forward directed hypergraph of a star plus one extra arc:")
for e in F.hyperedges:
    print(f"  tail={e.tail} -> head={e.head}")
assert all(len(e.tail) == 1 for e in F.hyperedges)
