"""The benchmark's four workloads.

Each workload builds its shared inputs in ``setup`` (timed as set-up), draws
the input of op ``i`` in ``make_input`` (untimed; deterministic in the seed
and ``i``), runs one op through the package's public entry points in ``op``
(timed) and checks the op's output against independent oracles in
``check`` (untimed).  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import tempfile
from pathlib import Path

import numpy as np

import hypersheaf as hs
from hypersheaf import model as hs_model
from hypersheaf import spectral as hs_spectral

RAYLEIGH_TOL = 1e-8
ROW_TOL = 1e-10
MAX_DRAWS = 20
DESIGN_SEED = 2510  # fixes the order of the verify workload's parameter design
# The suite's 1e-9 tolerances assume well-conditioned degree blocks: a vertex
# in a single hyperedge with a full map can get a block of condition ~1e9,
# where the two Dirichlet energy forms differ by ~5e-9 from rounding alone.
# Verify's instances are redrawn until every block is below this bound.
MAX_DEGREE_COND = 1e6


def _seed(*words: int) -> int:
    """A 31-bit seed derived from the run seed and a stream position."""
    return int(np.random.default_rng(list(words)).integers(0, 2**31))


def _round_trip(dataset, workdir: Path):
    """Write the dataset as text and read it back, as a user loading files would."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        prefix = Path(tmp) / "data"
        hs.write_dataset(dataset, prefix)
        return hs.read_dataset(prefix)


def _incidences(H) -> int:
    return sum(e.degree for e in H.hyperedges)


@dataclasses.dataclass(frozen=True)
class Train:
    """One ``train()`` of the reference config on the planted-direction set."""

    name: str
    full: bool
    n: int = 500
    intra: int = 30
    inter: int = 10
    epochs: int = 3
    tail_pct: float = 75.0

    def setup(self, seed: int, workdir: Path):
        cfg = hs.SyntheticConfig(
            n=self.n, classes=5, intra_per_class=self.intra, inter_per_pair=self.inter,
            seed=_seed(seed, 0),
        )
        return _round_trip(hs.generate_synthetic(cfg), workdir)

    def make_input(self, dataset, seed: int, i: int):
        config, budget = hs_model.synthetic_benchmark_config(seed=_seed(seed, 1, i))
        if self.full:
            config = dataclasses.replace(config, light_mode=False, map_shape="full")
        # patience >= budget: every op runs exactly `epochs` epochs
        budget = dataclasses.replace(budget, max_epochs=self.epochs, patience=self.epochs)
        return config, budget

    def op(self, dataset, inp):
        config, budget = inp
        return hs.train(dataset, config, budget)

    def check(self, dataset, inp, result) -> list[str]:
        failures = []
        losses = [row["train_loss"] for row in result.history]
        if len(losses) != inp[1].max_epochs:
            failures.append(f"ran {len(losses)} epochs, expected {inp[1].max_epochs}")
        if not all(np.isfinite(losses)):
            failures.append(f"non-finite training loss in {losses}")
        if not 0.0 <= result.test_acc <= 1.0:
            failures.append(f"test accuracy {result.test_acc} outside [0, 1]")
        return failures

    def incidences(self, dataset, inp) -> int:
        return _incidences(dataset.hypergraph)

    def quality(self, result) -> dict[str, float]:
        return {"test_acc": result.test_acc}


@dataclasses.dataclass
class AssembleInputs:
    seed: int
    dataset: object
    sheaf_config: object
    first_sheaf: object
    signal: np.ndarray


@dataclasses.dataclass(frozen=True)
class Assemble:
    """``build_laplacian`` (normalized) then ``apply_laplacian`` on one fixed hypergraph."""

    name: str = "assemble"
    n: int = 300
    h_min: int = 2
    h_max: int = 4
    intra: int = 36
    inter: int = 36
    d: int = 2
    columns: int = 16
    rows_checked: int = 2
    tail_pct: float = 75.0

    def setup(self, seed: int, workdir: Path) -> AssembleInputs:
        # The normalized operator is undefined on an isolated vertex, so the
        # planted-direction draw is conditioned on every vertex being covered.
        for attempt in range(MAX_DRAWS):
            cfg = hs.SyntheticConfig(
                n=self.n, classes=5, h_min=self.h_min, h_max=self.h_max,
                intra_per_class=self.intra, inter_per_pair=self.inter,
                seed=_seed(seed, 0, attempt),
            )
            dataset = hs.generate_synthetic(cfg)
            if np.all(hs.degree_features(dataset.hypergraph) > 0):
                break
        else:
            raise RuntimeError(f"no draw without isolated vertices in {MAX_DRAWS} tries")
        dataset = _round_trip(dataset, workdir)
        sheaf_config = hs.SheafConfig(q=0.1, d=self.d, map_shape="full")
        first = hs.build_fixed_sheaf(dataset.hypergraph, sheaf_config, rng_seed=_seed(seed, 1, 0))
        rng = np.random.default_rng(_seed(seed, 2))
        shape = (self.n * self.d, self.columns)
        signal = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return AssembleInputs(seed, dataset, sheaf_config, first, signal)

    def make_input(self, inputs: AssembleInputs, seed: int, i: int):
        if i == 0:
            return i, inputs.first_sheaf
        return i, hs.build_fixed_sheaf(
            inputs.dataset.hypergraph, inputs.sheaf_config, rng_seed=_seed(seed, 1, i)
        )

    def op(self, inputs: AssembleInputs, inp):
        _i, sheaf = inp
        bundle = hs.build_laplacian(inputs.dataset.hypergraph, sheaf, normalized=True)
        return bundle, hs.apply_laplacian(bundle, inputs.signal)

    def check(self, inputs: AssembleInputs, inp, output) -> list[str]:
        i, sheaf = inp
        bundle, Y = output
        H, X, d = inputs.dataset.hypergraph, inputs.signal, self.d
        failures = []
        # Rayleigh quotients of L_N lie in [0, 1]
        quotients = np.real(np.sum(X.conj() * Y, axis=0)) / np.sum(np.abs(X) ** 2, axis=0)
        if quotients.min() < -RAYLEIGH_TOL or quotients.max() > 1.0 + RAYLEIGH_TOL:
            failures.append(f"Rayleigh quotients span [{quotients.min()}, {quotients.max()}]")
        # sampled rows of L_N and of L_N X against entry-wise blocks
        D_V, _ = hs.build_degree_matrices(H, sheaf)
        rng = np.random.default_rng(_seed(inputs.seed, 3, i))
        for u in rng.choice(H.num_vertices, size=self.rows_checked, replace=False):
            u = int(u)
            blocks = _normalized_row(H, sheaf, D_V, u)
            expected = sum(blk @ X[v * d:(v + 1) * d] for v, blk in blocks.items())
            row_err = float(np.max(np.abs(Y[u * d:(u + 1) * d] - expected)))
            if row_err > ROW_TOL:
                failures.append(f"row {u} of L_N X off by {row_err:.3e}")
            stored = {v for (row, v) in bundle.L.entries if row == u}
            if stored - set(blocks):
                failures.append(f"row {u} of L_N stores blocks outside its neighbourhood")
            for v, blk in blocks.items():
                got = bundle.L.block(u, v)
                got = np.zeros_like(blk) if got is None else got
                err = float(np.max(np.abs(got - blk)))
                if err > ROW_TOL:
                    failures.append(f"block ({u}, {v}) of L_N off by {err:.3e}")
                    break
        return failures

    def incidences(self, inputs: AssembleInputs, inp) -> int:
        return _incidences(inputs.dataset.hypergraph)

    def quality(self, output) -> dict[str, float]:
        return {}


def _inverse_sqrt(block: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(block)
    return (V / np.sqrt(w)) @ V.T


def _normalized_row(H, sheaf, D_V, u: int) -> dict[int, np.ndarray]:
    """Blocks ``(u, v)`` of ``L_N = D_V^{-1/2} L D_V^{-1/2}`` from ``entrywise_block``.

    ``entrywise_block`` only sums over hyperedges containing ``u``, so it is
    evaluated on the sub-hypergraph of those hyperedges, with the sheaf maps
    carried over; that keeps the check cheap on large hypergraphs.
    """
    edges = [j for j, e in enumerate(H.hyperedges) if u in e.tail or u in e.head]
    sub = hs.DirectedHypergraph(H.num_vertices, tuple(H.hyperedges[j] for j in edges))
    maps, roles = {}, {}
    for k, j in enumerate(edges):
        for v in H.hyperedges[j].members:
            maps[(v, k)] = sheaf.map_for(v, j)
            roles[(v, k)] = sheaf.role_of(v, j)
    sub_sheaf = hs.SheafAssignment(sheaf.config, maps, roles)
    left = _inverse_sqrt(D_V[u])
    neighbours = sorted({v for j in edges for v in H.hyperedges[j].members})
    return {
        v: left @ hs.entrywise_block(sub, sub_sheaf, u, v) @ _inverse_sqrt(D_V[v])
        for v in neighbours
    }


@dataclasses.dataclass(frozen=True)
class Verify:
    """``verify_spectral_suite`` on instances drawn like the spectral acceptance criterion.

    The criterion draws ``n``, ``m``, ``d``, ``q`` and the map shape
    uniformly.  Op times spread over three decades with those parameters, so
    op ``i`` takes its parameters from a fixed design instead: every
    ``(n, d, shape, q)`` combination once, in a fixed shuffled order, with
    ``m`` cycling through its range.  The seed draws everything else (the
    hyperedges, their directions, the maps and the probe vector).  Runs with
    different seeds therefore do comparable work, and the parameters keep
    the criterion's marginal distribution.  A draw with a degree block of
    condition number above ``MAX_DEGREE_COND`` is redrawn (about 0.4% of
    draws).
    """

    name: str = "verify"
    n_range: tuple[int, int] = (4, 16)
    m_range: tuple[int, int] = (2, 12)
    d_choices: tuple[int, ...] = (1, 2, 3, 4)
    q_choices: tuple[float, ...] = (0.0, 0.05, 0.1, 0.25)
    map_shapes: tuple[str, ...] = ("trivial", "diagonal", "full")
    setup_instances: int = 64
    tail_pct: float = 95.0

    @functools.cached_property
    def design(self) -> list[tuple]:
        combos = list(itertools.product(
            range(self.n_range[0], self.n_range[1] + 1), self.d_choices, self.map_shapes, self.q_choices,
        ))
        order = np.random.default_rng(DESIGN_SEED).permutation(len(combos))
        m_lo, m_hi = self.m_range
        return [combos[k] + (m_lo + pos % (m_hi - m_lo + 1),) for pos, k in enumerate(order)]

    def _instance(self, seed: int, i: int):
        n, d, shape, q, m = self.design[i % len(self.design)]
        for attempt in range(MAX_DRAWS):
            words = (seed, 0, i) if attempt == 0 else (seed, 0, i, attempt)
            H, A = hs_spectral.random_instance(
                np.random.default_rng(_seed(*words)),
                n_range=(n, n), m_range=(m, m), d_choices=(d,), q_choices=(q,), map_shapes=(shape,),
            )
            D_V, _ = hs.build_degree_matrices(H, A)
            if np.linalg.cond(D_V).max() <= MAX_DEGREE_COND:
                return H, A
        raise RuntimeError(f"no well-conditioned draw for op {i} in {MAX_DRAWS} tries")

    def setup(self, seed: int, workdir: Path) -> list:
        return [self._instance(seed, i) for i in range(self.setup_instances)]

    def make_input(self, first: list, seed: int, i: int):
        H, A = first[i] if i < len(first) else self._instance(seed, i)
        return H, A, np.random.default_rng(_seed(seed, 1, i))

    def op(self, first, inp):
        H, A, rng = inp
        return hs.verify_spectral_suite(H, A, rng=rng)

    def check(self, first, inp, report) -> list[str]:
        return list(report.failures)

    def incidences(self, first, inp) -> int:
        return _incidences(inp[0])

    def quality(self, report) -> dict[str, float]:
        return {}


WORKLOADS = {
    w.name: w
    for w in (
        Train("train-light", full=False),
        Train("train-full", full=True),
        Assemble(),
        Verify(),
    )
}

# Small sizes for the benchmark's own smoke tests.
TINY = {
    "train-light": Train("train-light", full=False, n=50, intra=3, inter=1, epochs=2),
    "train-full": Train("train-full", full=True, n=50, intra=3, inter=1, epochs=2),
    "assemble": Assemble(n=50, intra=6, inter=6),
    "verify": Verify(n_range=(4, 6), d_choices=(1, 2), setup_instances=4),
}
