"""Sparse matrices of dense complex ``d x d`` blocks.

Assembly is coordinate-based: duplicate block coordinates are summed when
the matrix is finalized, which matches hyperedge-wise accumulation where
several hyperedges contribute to the same vertex pair.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["BlockComplexMatrix", "DENSE_EXPORT_CAP"]

DENSE_EXPORT_CAP = 4096  # guards dense eigensolver cost at desk scale


def _check_dense_cap(rows: int, cols: int) -> None:
    if max(rows, cols) > DENSE_EXPORT_CAP:
        raise ValueError(f"dense export of a {rows}x{cols} matrix exceeds the cap of "
                         f"{DENSE_EXPORT_CAP}; use apply_laplacian(bundle, x) for matrix-free evaluation")


class BlockComplexMatrix:
    """Immutable block-sparse complex matrix with ``block_dim x block_dim`` blocks."""

    def __init__(
        self,
        block_rows: int,
        block_cols: int,
        block_dim: int,
        items: Iterable[tuple[int, int, np.ndarray]] = (),
    ):
        self.block_rows = int(block_rows)
        self.block_cols = int(block_cols)
        self.block_dim = int(block_dim)
        entries: dict[tuple[int, int], np.ndarray] = {}
        d = self.block_dim
        for i, j, block in items:
            if not (0 <= i < self.block_rows and 0 <= j < self.block_cols):
                raise ValueError(f"block coordinate ({i}, {j}) out of range")
            arr = np.asarray(block, dtype=complex)
            if arr.shape != (d, d):
                raise ValueError(f"block at ({i}, {j}) has shape {arr.shape}, expected {(d, d)}")
            key = (int(i), int(j))
            if key in entries:
                entries[key] = entries[key] + arr
            else:
                entries[key] = arr.astype(complex, copy=True)
        for arr in entries.values():
            arr.setflags(write=False)
        self.entries = entries

    # --- shape ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Total (scalar) shape."""
        d = self.block_dim
        return (self.block_rows * d, self.block_cols * d)

    @property
    def num_blocks(self) -> int:
        return len(self.entries)

    def block(self, i: int, j: int) -> np.ndarray | None:
        return self.entries.get((i, j))

    # --- algebra ---------------------------------------------------------

    # No package caller is left; kept because the benchmark's span tracer
    # (perfbench/layertrace.py) names it as a target.
    def matmul(self, other: "BlockComplexMatrix") -> "BlockComplexMatrix":
        """Block-sparse product; cost scales with matching inner blocks."""
        if self.block_cols != other.block_rows or self.block_dim != other.block_dim:
            raise ValueError("incompatible block shapes for matmul")
        by_row: dict[int, list[tuple[int, np.ndarray]]] = {}
        for (k, j), arr in other.entries.items():
            by_row.setdefault(k, []).append((j, arr))
        items = []
        for (i, k), left in self.entries.items():
            for j, right in by_row.get(k, ()):
                items.append((i, j, left @ right))
        return BlockComplexMatrix(self.block_rows, other.block_cols, self.block_dim, items)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Multiply a dense vector/matrix with ``block_cols * block_dim`` rows."""
        rows, cols = self.shape
        arr = np.asarray(x, dtype=complex)
        if arr.shape[0] != cols:
            raise ValueError(f"operand has {arr.shape[0]} rows, expected {cols}")
        out = np.zeros((rows,) + arr.shape[1:], dtype=complex)
        d = self.block_dim
        for (i, j), blk in self.entries.items():
            out[i * d : (i + 1) * d] += blk @ arr[j * d : (j + 1) * d]
        return out

    # --- diagnostics and export -----------------------------------------

    def hermitian_defect(self) -> float:
        """``max |M - M^dagger|`` entry-wise; only defined for square matrices."""
        if self.block_rows != self.block_cols:
            raise ValueError("hermitian defect requires a square matrix")
        defect = 0.0
        for (i, j), arr in self.entries.items():
            other = self.entries.get((j, i))
            mirror = np.zeros_like(arr) if other is None else other.conj().T
            defect = max(defect, float(np.max(np.abs(arr - mirror))))
        return defect

    # No package caller is left either; kept because the span tracer names it too.
    def max_abs_imag(self) -> float:
        if not self.entries:
            return 0.0
        return max(float(np.max(np.abs(arr.imag))) for arr in self.entries.values())

    def to_dense(self) -> np.ndarray:
        rows, cols = self.shape
        _check_dense_cap(rows, cols)
        d = self.block_dim
        out = np.zeros((rows, cols), dtype=complex)
        for (i, j), arr in self.entries.items():
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = arr
        return out

