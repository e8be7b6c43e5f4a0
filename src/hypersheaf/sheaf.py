"""Per-incidence restriction maps with unit-modulus directional coefficients.

Every incidence ``(u, e)`` carries a real ``d x d`` map ``F``.  The complex
directed map is ``S * F`` where the scalar ``S`` is 1 on head incidences
and ``exp(-2*pi*i*q)`` on tail incidences; ``q = 0`` erases direction and
``q = 1/4`` turns tails into a ``-i`` phase.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .hypergraph import DirectedHypergraph, _check_integer_fields, _incidence_arrays

__all__ = [
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
    """Immutable real restriction maps, kept as read-only per-incidence arrays.

    Rows are in canonical incidence order, that of :meth:`DirectedHypergraph.incidences`
    (edge by edge, tails before heads, vertices ascending): ``inc_node``, ``inc_edge``,
    ``inc_is_tail`` and the ``(I, d, d)`` stack ``maps`` that assembly reads as it is.
    """

    def __init__(
        self,
        config: SheafConfig,
        maps: Mapping[tuple[int, int], np.ndarray],
        roles: Mapping[tuple[int, int], str],
    ):
        """From ``(u, e)``-keyed maps and roles (``"tail"`` or ``"head"``) in any key order."""
        if set(maps) != set(roles):
            raise ValueError("maps and roles must cover the same incidences")
        keys = sorted(maps, key=lambda k: (k[1], roles[k] != "tail", k[0]))
        d = config.d
        for k in keys:
            if roles[k] not in ("tail", "head"):
                raise ValueError(f"incidence {k} has role {roles[k]!r}, expected tail or head")
            if np.shape(maps[k]) != (d, d):
                raise ValueError(f"map for incidence {k} has shape {np.shape(maps[k])}, expected {(d, d)}")
        inc = np.array(keys, dtype=np.int64).reshape(-1, 2)
        stack = np.array([maps[k] for k in keys], dtype=float).reshape(-1, d, d)
        self._store(config, inc[:, 0], inc[:, 1], [roles[k] == "tail" for k in keys], stack)

    @classmethod
    def from_arrays(cls, config: SheafConfig, inc_node, inc_edge, inc_is_tail, maps) -> "SheafAssignment":
        """From per-incidence arrays already in canonical order."""
        self = cls.__new__(cls)
        self._store(config, inc_node, inc_edge, inc_is_tail, maps)
        return self

    def _store(self, config, inc_node, inc_edge, inc_is_tail, maps) -> None:
        """Keep read-only copies, validated once on the stack."""
        self.config, d, shape = config, config.d, config.map_shape
        self.inc_node, self.inc_edge = (np.array(a, dtype=np.int64) for a in (inc_node, inc_edge))
        self.inc_is_tail, self.maps = np.array(inc_is_tail, dtype=bool), np.array(maps, dtype=float)
        rows = self.maps.shape[:1]
        shapes = [a.shape for a in (self.inc_node, self.inc_edge, self.inc_is_tail, self.maps)]
        if shapes != [rows] * 3 + [rows + (d, d)]:
            raise ValueError(f"expected three (I,) incidence arrays and (I, {d}, {d}) maps, got {shapes}")
        # canonical order: rows strictly increasing in (edge, is head, vertex)
        order = (self.inc_edge, 1 - self.inc_is_tail, self.inc_node)
        de, dh, du = (np.diff(a, prepend=-1) for a in order)
        ascending = (de > 0) | (de == 0) & ((dh > 0) | (dh == 0) & (du > 0))
        problems = {
            "is repeated or out of canonical order": ~ascending,
            "has a non-finite map": ~np.isfinite(self.maps).all(axis=(1, 2)),
            "has a non-identity map in a trivial sheaf":
                (shape == "trivial") & (self.maps != np.eye(d)).any(axis=(1, 2)),
            "has a nonzero off-diagonal in a diagonal sheaf":
                (shape == "diagonal") & self.maps[:, ~np.eye(d, dtype=bool)].any(axis=1),
        }
        for problem, bad in problems.items():
            if bad.any():
                k = np.argmax(bad)  # the first flagged row
                raise ValueError(f"incidence {(int(self.inc_node[k]), int(self.inc_edge[k]))} {problem}")
        for arr in (self.inc_node, self.inc_edge, self.inc_is_tail, self.maps):
            arr.setflags(write=False)

    @functools.cached_property
    def _rows(self) -> dict[tuple[int, int], int]:
        """Row of each incidence ``(u, e)``, built on the first keyed lookup."""
        return {key: k for k, key in enumerate(zip(self.inc_node.tolist(), self.inc_edge.tolist()))}

    def _row(self, u: int, e: int) -> int:
        try:
            return self._rows[(u, e)]
        except KeyError:
            raise ValueError(f"vertex {u} is not incident to hyperedge {e}") from None

    def map_for(self, u: int, e: int) -> np.ndarray:
        return self.maps[self._row(u, e)]

    def role_of(self, u: int, e: int) -> str:
        return "tail" if self.inc_is_tail[self._row(u, e)] else "head"

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
    incidences = _incidence_arrays(H)
    count, d = len(incidences[0]), config.d
    draw = np.random.default_rng(rng_seed).uniform
    if config.map_shape == "trivial":
        maps = np.broadcast_to(np.eye(d), (count, d, d))
    elif config.map_shape == "diagonal":
        maps = np.zeros((count, d, d))  # +0.0 off the diagonal, as np.diag leaves it
        maps[:, np.arange(d), np.arange(d)] = draw(-1.0, 1.0, size=(count, d))
    else:
        maps = draw(-1.0, 1.0, size=(count, d, d))
    return SheafAssignment.from_arrays(config, *incidences, maps)
