"""Per-incidence restriction maps with unit-modulus directional coefficients.

A sheaf is a stack of maps over the :class:`IncidenceStructure` of one hypergraph:
its canonical incidence order and kernel plans, built once per hypergraph object.

Every incidence ``(u, e)`` carries a real ``d x d`` map ``F``.  The complex
directed map is ``S * F`` where the scalar ``S`` is 1 on head incidences
and ``exp(-2*pi*i*q)`` on tail incidences; ``q = 0`` erases direction and
``q = 1/4`` turns tails into a ``-i`` phase.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .autodiff import SegmentPlan
from .hypergraph import DirectedHypergraph, Hyperedge, _check_integer_fields

__all__ = [
    "IncidenceStructure",
    "SheafConfig",
    "SheafAssignment",
    "directional_coefficient",
    "build_fixed_sheaf",
    "tail_coefficient",
]

MAP_SHAPES = ("trivial", "diagonal", "full")


def tail_coefficient(q: float) -> complex:
    """The unit-modulus scalar ``exp(-2*pi*i*q)`` applied to tail incidences."""
    return complex(math.cos(2.0 * math.pi * q), -math.sin(2.0 * math.pi * q))


@dataclass(frozen=True)
class IncidenceStructure:
    """Canonical incidence order of one hypergraph (that of :meth:`DirectedHypergraph.incidences`:
    edge by edge, tails before heads, vertices ascending) and the index plans all factor paths share.

    ``edge_gather`` is the row of the stack ``[X; phi X]`` (``n`` rows each)
    that each row of ``edge_plan.major`` reads, ``inc_node + n inc_is_tail``,
    and ``node_gather`` the row of ``[Y; conj(phi) Y]`` (``m`` rows each) that
    each row of ``node_plan.major`` reads, ``inc_edge + m inc_is_tail``: tails
    read the phased half."""

    n: int
    m: int
    inc_node: np.ndarray
    inc_edge: np.ndarray
    inc_is_tail: np.ndarray
    delta: np.ndarray
    node_plan: SegmentPlan
    edge_plan: SegmentPlan
    edge_gather: np.ndarray
    node_gather: np.ndarray

    @classmethod
    def build(cls, H: DirectedHypergraph) -> "IncidenceStructure":
        """The structure of ``H``, read-only and built once per hypergraph object."""
        if cls not in H._derived:
            chain, edges = itertools.chain.from_iterable, H.hyperedges
            degree = np.array([e.degree for e in edges], dtype=np.int64)
            inc_node = np.fromiter(chain(e.tail + e.head for e in edges), dtype=np.int64)
            inc_edge = np.repeat(np.arange(len(edges)), degree)
            inc_is_tail = np.fromiter(chain((True,) * len(e.tail) + (False,) * len(e.head) for e in edges), dtype=bool)
            node_plan = SegmentPlan.build(inc_node, H.num_vertices)
            edge_plan = SegmentPlan.build(inc_edge, H.num_hyperedges)
            edge_gather = (inc_node + H.num_vertices * inc_is_tail)[edge_plan.major]
            node_gather = (inc_edge + H.num_hyperedges * inc_is_tail)[node_plan.major]
            arrays = inc_node, inc_edge, inc_is_tail, degree.astype(float)
            for a in (*arrays, edge_gather, node_gather):
                a.setflags(write=False)
            H._derived[cls] = cls(
                H.num_vertices, H.num_hyperedges, *arrays, node_plan, edge_plan, edge_gather, node_gather
            )
        return H._derived[cls]

    @functools.cached_property
    def edge_row(self) -> np.ndarray:
        """The row of ``edge_plan.major`` that holds each incidence, read-only."""
        row = self.edge_plan.major.argsort()
        row.setflags(write=False)
        return row

    @functools.cached_property
    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_edge_pairs` of ``inc_edge``, computed once and read-only."""
        pairs = _edge_pairs(self.inc_edge)
        for a in pairs:
            a.setflags(write=False)
        return pairs

    def phases(self, q: float) -> np.ndarray:
        """Per-incidence directional coefficient ``S_k`` (complex, unit modulus)."""
        return np.where(self.inc_is_tail, tail_coefficient(q), 1.0 + 0.0j)

    def weights(self, q: float) -> np.ndarray:
        """Per-incidence complex weight ``w_k = S_k delta_e^{-1/2}``, so ``Z_k = w_k M_k``."""
        return self.phases(q) / np.sqrt(self.delta[self.inc_edge])


def _edge_pairs(inc_edge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``(k, l)`` of every ordered pair of incidences of one hyperedge, ``k`` major;
    ``inc_edge`` is in canonical order, so each hyperedge's rows are contiguous."""
    first = np.searchsorted(inc_edge, inc_edge)
    size = np.searchsorted(inc_edge, inc_edge, side="right") - first
    left = np.repeat(np.arange(len(size)), size)
    return left, np.arange(len(left)) + np.repeat(first - np.cumsum(size) + size, size)


@dataclass(frozen=True)
class SheafConfig:
    q: float
    d: int = 1
    map_shape: str = "trivial"

    def __post_init__(self):
        _check_integer_fields(self)
        if not math.isfinite(self.q):
            raise ValueError("charge parameter q must be finite")
        if self.d < 1:
            raise ValueError("stalk dimension d must be >= 1")
        if self.map_shape not in MAP_SHAPES:
            raise ValueError(f"map_shape must be one of {MAP_SHAPES}")


class SheafAssignment:
    """Immutable real restriction maps over one hypergraph's incidences.

    ``structure`` is the :class:`IncidenceStructure` of the hypergraph the sheaf
    was built on, and ``maps`` the read-only ``(I, d, d)`` stack in its canonical
    order, the rows that assembly reads as they are.
    """

    def __init__(
        self,
        config: SheafConfig,
        maps: Mapping[tuple[int, int], np.ndarray],
        roles: Mapping[tuple[int, int], str],
    ):
        """From ``(u, e)``-keyed maps and roles (``"tail"`` or ``"head"``) in any key order, over
        the smallest hypergraph with exactly those incidences."""
        if set(maps) != set(roles):
            raise ValueError("maps and roles must cover the same incidences")
        keys = sorted(maps, key=lambda k: (k[1], roles[k] != "tail", k[0]))
        d = config.d
        members = [([], []) for _ in range(max((e for _, e in keys), default=-1) + 1)]  # (tail, head) per edge
        for k in keys:
            if roles[k] not in ("tail", "head"):
                raise ValueError(f"incidence {k} has role {roles[k]!r}, expected tail or head")
            if np.shape(maps[k]) != (d, d):
                raise ValueError(f"map for incidence {k} has shape {np.shape(maps[k])}, expected {(d, d)}")
            if min(k) < 0:
                raise ValueError(f"incidence {k} has a negative index")
            members[k[1]][roles[k] == "head"].append(k[0])
        H = DirectedHypergraph(max((u for u, _ in keys), default=-1) + 1, tuple(Hyperedge(*m) for m in members))
        self._store(IncidenceStructure.build(H), config, np.array([maps[k] for k in keys]).reshape(-1, d, d))

    @classmethod
    def over(cls, structure: IncidenceStructure, config: SheafConfig, maps) -> "SheafAssignment":
        """From an ``(I, d, d)`` stack in ``structure``'s canonical incidence order."""
        self = cls.__new__(cls)
        self._store(structure, config, maps)
        return self

    def _store(self, structure, config, maps) -> None:
        """Keep a read-only copy of the stack, validated once."""
        self.structure, self.config, d, shape = structure, config, config.d, config.map_shape
        self.maps = np.array(maps, dtype=float)
        if self.maps.shape != (len(structure.inc_node), d, d):
            raise ValueError(f"expected maps of shape {(len(structure.inc_node), d, d)}, got {self.maps.shape}")
        problems = {
            "has a non-finite map": ~np.isfinite(self.maps).all(axis=(1, 2)),
            "has a non-identity map in a trivial sheaf":
                (shape == "trivial") & (self.maps != np.eye(d)).any(axis=(1, 2)),
            "has a nonzero off-diagonal in a diagonal sheaf":
                (shape == "diagonal") & self.maps[:, ~np.eye(d, dtype=bool)].any(axis=1),
        }
        for problem, bad in problems.items():
            if bad.any():
                k = np.argmax(bad)  # the first flagged row
                raise ValueError(f"incidence {(int(structure.inc_node[k]), int(structure.inc_edge[k]))} {problem}")
        self.maps.setflags(write=False)

    @functools.cached_property
    def _rows(self) -> dict[tuple[int, int], int]:
        """Row of each incidence ``(u, e)``, built on the first keyed lookup."""
        s = self.structure
        return {key: k for k, key in enumerate(zip(s.inc_node.tolist(), s.inc_edge.tolist()))}

    def _row(self, u: int, e: int) -> int:
        try:
            return self._rows[(u, e)]
        except KeyError:
            raise ValueError(f"vertex {u} is not incident to hyperedge {e}") from None

    def map_for(self, u: int, e: int) -> np.ndarray:
        return self.maps[self._row(u, e)]

    def role_of(self, u: int, e: int) -> str:
        return "tail" if self.structure.inc_is_tail[self._row(u, e)] else "head"

    def coefficient(self, u: int, e: int) -> complex:
        """Directional scalar for a covered incidence (1 for heads)."""
        if self.role_of(u, e) == "tail":
            return tail_coefficient(self.config.q)
        return 1.0 + 0.0j


def directional_coefficient(H: DirectedHypergraph, u: int, e: int, q: float) -> complex:
    """1 if ``u`` heads hyperedge ``e``, ``exp(-2*pi*i*q)`` if it tails it, else 0."""
    if not (0 <= e < H.num_hyperedges):
        raise ValueError(f"hyperedge index {e} out of range")
    edge = H.hyperedges[e]
    if u in edge.head:
        return 1.0 + 0.0j
    if u in edge.tail:
        return tail_coefficient(q)
    return 0.0 + 0.0j


def build_fixed_sheaf(H: DirectedHypergraph, config: SheafConfig, rng_seed: int = 0) -> SheafAssignment:
    """Sample a non-learned sheaf: identity maps, or entries uniform on [-1, 1].

    Deterministic in ``rng_seed``; one draw fills the incidences in the
    hypergraph's canonical order (edge by edge, tails before heads).
    """
    structure = IncidenceStructure.build(H)
    count, d = len(structure.inc_node), config.d
    draw = np.random.default_rng(rng_seed).uniform
    if config.map_shape == "trivial":
        maps = np.broadcast_to(np.eye(d), (count, d, d))
    elif config.map_shape == "diagonal":
        maps = np.zeros((count, d, d))  # +0.0 off the diagonal, as np.diag leaves it
        maps[:, np.arange(d), np.arange(d)] = draw(-1.0, 1.0, size=(count, d))
    else:
        maps = draw(-1.0, 1.0, size=(count, d, d))
    return SheafAssignment.over(structure, config, maps)
