"""Directed hypergraph data model, validation, degrees and text-file IO.

A directed hyperedge carries a disjoint tail set and head set; an
undirected hyperedge is stored with all members in the tail and an empty
head.  Vertex indices are 0-based in memory and 1-based in the text
format.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Hyperedge",
    "DirectedHypergraph",
    "DirectedGraph",
    "validate",
    "incidence_counts",
    "from_directed_graph",
    "read_hypergraph",
    "format_hypergraph",
    "write_hypergraph",
    "read_labels",
    "write_labels",
    "read_features",
    "write_features",
    "read_splits",
    "write_splits",
]


@dataclass(frozen=True)
class Hyperedge:
    """A hyperedge with sorted, duplicate-free tail and head vertex sets."""

    tail: tuple[int, ...]
    head: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tail", tuple(sorted(set(int(v) for v in self.tail))))
        object.__setattr__(self, "head", tuple(sorted(set(int(v) for v in self.head))))

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.tail + self.head))

    @property
    def degree(self) -> int:
        """Number of member vertices (tail plus head)."""
        return len(self.tail) + len(self.head)

    @property
    def is_undirected(self) -> bool:
        return len(self.head) == 0


@dataclass(frozen=True)
class DirectedHypergraph:
    """A vertex count plus an ordered multiset of unit-weight hyperedges."""

    num_vertices: int
    hyperedges: tuple[Hyperedge, ...] = ()

    def __post_init__(self):
        edges = tuple(
            e if isinstance(e, Hyperedge) else Hyperedge(*e) for e in self.hyperedges
        )
        object.__setattr__(self, "hyperedges", edges)

    @property
    def num_hyperedges(self) -> int:
        return len(self.hyperedges)

    def incidences(self) -> Iterable[tuple[int, int, str]]:
        """Yield ``(vertex, edge_index, role)`` over all incidences."""
        for j, e in enumerate(self.hyperedges):
            for u in e.tail:
                yield u, j, "tail"
            for u in e.head:
                yield u, j, "head"


@dataclass(frozen=True)
class DirectedGraph:
    """Plain directed graph used as input to the hypergraph transform."""

    num_vertices: int
    arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "arcs", tuple((int(u), int(w)) for u, w in self.arcs)
        )
        for u, w in self.arcs:
            if u == w:
                raise ValueError(f"self-loop ({u}, {w}) not allowed")
            if not (0 <= u < self.num_vertices and 0 <= w < self.num_vertices):
                raise ValueError(f"arc ({u}, {w}) out of range for n={self.num_vertices}")


def validate(H: DirectedHypergraph) -> None:
    """Check all structural invariants, raising ``ValueError`` on the first violation.

    Checks, per hyperedge: member indices in ``[0, n)``, disjoint tail/head,
    degree at least 2, and that any edge with a nonempty head also has a
    nonempty tail (undirected edges are canonically all-tail).
    """
    n = H.num_vertices
    if n < 0:
        raise ValueError("negative vertex count")
    for j, e in enumerate(H.hyperedges):
        overlap = set(e.tail) & set(e.head)
        if overlap:
            raise ValueError(
                f"hyperedge {j}: tail and head overlap on vertices {sorted(overlap)}"
            )
        for u in e.members:
            if not (0 <= u < n):
                raise ValueError(f"hyperedge {j}: vertex {u} out of range for n={n}")
        if e.degree < 2:
            raise ValueError(f"hyperedge {j}: degree {e.degree} < 2")
        if len(e.tail) == 0 and len(e.head) > 0:
            raise ValueError(
                f"hyperedge {j}: empty tail with nonempty head; "
                "store undirected edges as all-tail"
            )


def incidence_counts(H: DirectedHypergraph) -> np.ndarray:
    """Number of hyperedges containing each vertex: the vertex degrees."""
    counts = np.zeros(H.num_vertices, dtype=np.int64)
    for e in H.hyperedges:
        for u in e.members:
            counts[u] += 1
    return counts


def from_directed_graph(G: DirectedGraph) -> DirectedHypergraph:
    """Turn each nonempty out-neighborhood into one forward directed hyperedge.

    Vertex ``v`` with out-neighbors ``N`` yields a hyperedge with
    ``tail = {v}`` and ``head = N``; vertices without outgoing arcs yield
    nothing.  Hyperedges are emitted in ascending tail-vertex order.
    """
    out: dict[int, set[int]] = {}
    for u, w in G.arcs:
        out.setdefault(u, set()).add(w)
    edges = [Hyperedge(tail=(v,), head=tuple(sorted(ns))) for v, ns in sorted(out.items())]
    H = DirectedHypergraph(G.num_vertices, tuple(edges))
    validate(H)
    return H


# --- text formats -----------------------------------------------------------
#
# Hypergraph file:     line 1 "n m", then m lines
#                      "e <weight> : <tail...> | <head...>"   (1-based indices;
#                      the weight is always 1 and any other value is refused;
#                      an empty head marks an undirected edge; a line with an
#                      empty tail and nonempty head is read as undirected and
#                      canonicalized to all-tail).
# Labels file:         n lines "vertex_index class_index" (vertex 1-based).
# Features file:       n lines of f decimal values.
# Splits file:         three lines of 1-based vertex indices (train/val/test).


def format_hypergraph(H: DirectedHypergraph) -> str:
    """The hypergraph file text: the ``n m`` header and one line per hyperedge."""
    lines = [f"{H.num_vertices} {H.num_hyperedges}"]
    for e in H.hyperedges:
        tail = " ".join(str(v + 1) for v in e.tail)
        head = " ".join(str(v + 1) for v in e.head)
        lines.append(f"e 1 : {tail} | {head}".rstrip())
    return "\n".join(lines)


def write_hypergraph(H: DirectedHypergraph, path: str | Path) -> None:
    validate(H)
    Path(path).write_text(format_hypergraph(H) + "\n")


def read_hypergraph(path: str | Path) -> DirectedHypergraph:
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty hypergraph file")
    try:
        n, m = (int(t) for t in lines[0].split())
    except ValueError:
        raise ValueError(f"{path}: header line 1 must be 'n m', got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"{path}: header promises {m} hyperedges, file has {len(lines) - 1}")
    edges = []
    for k, ln in enumerate(lines[1:], start=1):
        try:
            tag, rest = ln.split(maxsplit=1)
            if tag != "e":
                raise ValueError("record must start with 'e'")
            weight_part, members = rest.split(":", maxsplit=1)
            tail_part, head_part = members.split("|", maxsplit=1)
            weight = float(weight_part)
            tail = [int(t) - 1 for t in tail_part.split()]
            head = [int(t) - 1 for t in head_part.split()]
        except ValueError as exc:
            raise ValueError(f"{path}: malformed hyperedge line {k}: {ln!r}") from exc
        if weight != 1.0:
            raise ValueError(
                f"{path}: hyperedge line {k} has weight {weight_part.strip()}; "
                "only unit weights are supported"
            )
        if not tail and head:
            tail, head = head, []
        edges.append(Hyperedge(tuple(tail), tuple(head)))
    H = DirectedHypergraph(n, tuple(edges))
    validate(H)
    return H


def write_labels(labels: Sequence[int], path: str | Path) -> None:
    lines = [f"{u + 1} {int(c)}" for u, c in enumerate(labels)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_labels(path: str | Path, num_vertices: int) -> np.ndarray:
    labels = np.full(num_vertices, -1, dtype=np.int64)
    for k, ln in enumerate(Path(path).read_text().splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            u, c = (int(t) for t in ln.split())
        except ValueError:
            raise ValueError(f"{path}: malformed label line {k}: {ln!r}") from None
        if not (1 <= u <= num_vertices):
            raise ValueError(f"{path}: vertex {u} out of range on line {k}")
        labels[u - 1] = c
    if (labels < 0).any():
        missing = int(np.argmin(labels)) + 1
        raise ValueError(f"{path}: no label for vertex {missing}")
    return labels


def write_features(features: np.ndarray, path: str | Path) -> None:
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d array")
    lines = [" ".join("%.17g" % v for v in row) for row in X]
    Path(path).write_text("\n".join(lines) + "\n")


def read_features(path: str | Path) -> np.ndarray:
    rows = []
    for k, ln in enumerate(Path(path).read_text().splitlines(), start=1):
        try:
            if ln.strip():
                rows.append([float(t) for t in ln.split()])
        except ValueError:
            raise ValueError(f"{path}: non-numeric feature on line {k}: {ln!r}") from None
    if not rows:
        raise ValueError(f"{path}: empty feature file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent feature widths {sorted(widths)}")
    return np.asarray(rows, dtype=float)


def write_splits(masks: Sequence[np.ndarray], path: str | Path) -> None:
    if len(masks) != 3:
        raise ValueError("expected three masks (train/val/test)")
    lines = []
    for mask in masks:
        idx = np.flatnonzero(np.asarray(mask))
        lines.append(" ".join(str(int(u) + 1) for u in idx))
    Path(path).write_text("\n".join(lines) + "\n")


def read_splits(path: str | Path, num_vertices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lines = Path(path).read_text().splitlines()
    if len(lines) < 3:
        raise ValueError(f"{path}: expected three split lines")
    masks = []
    for k, ln in enumerate(lines[:3], start=1):
        mask = np.zeros(num_vertices, dtype=bool)
        try:
            idx = np.array([int(t) for t in ln.split()], dtype=np.int64)
        except ValueError:
            raise ValueError(f"{path}: non-integer vertex on split line {k}: {ln!r}") from None
        bad = idx[(idx < 1) | (idx > num_vertices)]
        if bad.size:
            raise ValueError(f"{path}: vertex {bad[0]} out of range on line {k}")
        mask[idx - 1] = True
        masks.append(mask)
    return masks[0], masks[1], masks[2]
