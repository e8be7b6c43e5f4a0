"""Per-incidence restriction maps with unit-modulus directional coefficients.

Every incidence ``(u, e)`` carries a real ``d x d`` map ``F``.  The complex
directed map is ``S * F`` where the scalar ``S`` is 1 on head incidences
and ``exp(-2*pi*i*q)`` on tail incidences; ``q = 0`` erases direction and
``q = 1/4`` turns tails into a ``-i`` phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .hypergraph import DirectedHypergraph

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
        if not math.isfinite(self.q):
            raise ValueError("charge parameter q must be finite")
        if self.d < 1:
            raise ValueError("stalk dimension d must be >= 1")
        if self.map_shape not in MAP_SHAPES:
            raise ValueError(f"map_shape must be one of {MAP_SHAPES}")


class SheafAssignment:
    """Immutable map from incidences ``(u, e)`` to real restriction maps.

    ``roles`` records whether each incidence is a tail or a head, so the
    complex directed map can be produced without re-resolving membership.
    """

    def __init__(
        self,
        config: SheafConfig,
        maps: Mapping[tuple[int, int], np.ndarray],
        roles: Mapping[tuple[int, int], str],
    ):
        if set(maps) != set(roles):
            raise ValueError("maps and roles must cover the same incidences")
        self.config = config
        d = config.d
        frozen = {}
        for key, F in maps.items():
            arr = np.array(F, dtype=float)
            if arr.shape != (d, d):
                raise ValueError(f"map for incidence {key} has shape {arr.shape}, expected {(d, d)}")
            if config.map_shape == "trivial" and not np.array_equal(arr, np.eye(d)):
                raise ValueError(f"trivial sheaf requires identity maps, got {arr} at {key}")
            if config.map_shape == "diagonal" and np.any(arr != np.diag(np.diag(arr))):
                raise ValueError(f"diagonal sheaf has nonzero off-diagonal at {key}")
            arr.setflags(write=False)
            frozen[key] = arr
        self.maps = frozen
        self.roles = dict(roles)

    def map_for(self, u: int, e: int) -> np.ndarray:
        try:
            return self.maps[(u, e)]
        except KeyError:
            raise ValueError(f"vertex {u} is not incident to hyperedge {e}") from None

    def role_of(self, u: int, e: int) -> str:
        try:
            return self.roles[(u, e)]
        except KeyError:
            raise ValueError(f"vertex {u} is not incident to hyperedge {e}") from None

    def coefficient(self, u: int, e: int) -> complex:
        """Directional scalar for a covered incidence (1 for heads)."""
        if self.role_of(u, e) == "tail":
            return tail_coefficient(self.config.q)
        return 1.0 + 0.0j

    def validate_against(self, H: DirectedHypergraph) -> None:
        """Check the assignment covers exactly the incidences of ``H``."""
        self.check_roles({(u, j): role for u, j, role in H.incidences()})

    def check_roles(self, expected: Mapping[tuple[int, int], str]) -> None:
        """Check the assignment covers exactly ``expected``, a map from incidence to role."""
        if set(self.maps) != set(expected):
            extra = sorted(set(self.maps) - set(expected))
            missing = sorted(set(expected) - set(self.maps))
            raise ValueError(
                f"sheaf/hypergraph incidence mismatch: missing={missing[:4]} extra={extra[:4]}"
            )
        for key, role in expected.items():
            if self.roles[key] != role:
                raise ValueError(f"incidence {key} stored as {self.roles[key]}, hypergraph says {role}")


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

    Deterministic in ``rng_seed``; incidences are visited in the hypergraph's
    canonical order (edge by edge, tails before heads).
    """
    rng = np.random.default_rng(rng_seed)
    d = config.d
    maps: dict[tuple[int, int], np.ndarray] = {}
    roles: dict[tuple[int, int], str] = {}
    for u, e, role in H.incidences():
        if config.map_shape == "trivial":
            F = np.eye(d)
        elif config.map_shape == "diagonal":
            F = np.diag(rng.uniform(-1.0, 1.0, size=d))
        else:
            F = rng.uniform(-1.0, 1.0, size=(d, d))
        maps[(u, e)] = F
        roles[(u, e)] = role
    return SheafAssignment(config, maps, roles)
