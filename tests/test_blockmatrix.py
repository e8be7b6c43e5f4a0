import numpy as np
import pytest

from hypersheaf.blockmatrix import BlockComplexMatrix


def random_block_matrix(rng, rows, cols, d, density=0.5):
    items = []
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                items.append((i, j, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    return BlockComplexMatrix(rows, cols, d, items)


def test_duplicate_coordinates_are_summed():
    a = np.ones((2, 2))
    M = BlockComplexMatrix(2, 2, 2, [(0, 1, a), (0, 1, 2 * a)])
    np.testing.assert_allclose(M.block(0, 1), 3 * a)
    assert M.num_blocks == 1


def test_shape_and_missing_block():
    M = BlockComplexMatrix(3, 2, 4, [])
    assert M.shape == (12, 8)
    assert M.block(0, 0) is None


def test_rejects_bad_blocks():
    with pytest.raises(ValueError, match="out of range"):
        BlockComplexMatrix(1, 1, 2, [(0, 3, np.eye(2))])
    with pytest.raises(ValueError, match="shape"):
        BlockComplexMatrix(1, 1, 2, [(0, 0, np.eye(3))])


def test_conjugate_transpose_matches_dense():
    rng = np.random.default_rng(0)
    M = random_block_matrix(rng, 3, 4, 2)
    np.testing.assert_allclose(M.conjugate_transpose().to_dense(), M.to_dense().conj().T)


def test_matmul_matches_dense():
    rng = np.random.default_rng(1)
    A = random_block_matrix(rng, 3, 4, 2)
    B = random_block_matrix(rng, 4, 5, 2)
    np.testing.assert_allclose(A.matmul(B).to_dense(), A.to_dense() @ B.to_dense(), atol=1e-12)


def test_apply_matches_dense():
    rng = np.random.default_rng(2)
    M = random_block_matrix(rng, 4, 3, 3)
    x = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
    np.testing.assert_allclose(M.apply(x), M.to_dense() @ x, atol=1e-12)
    v = rng.standard_normal(9)
    np.testing.assert_allclose(M.apply(v), M.to_dense() @ v, atol=1e-12)
    with pytest.raises(ValueError, match="rows"):
        M.apply(np.zeros(8))


def test_hermitian_defect():
    h = np.array([[1.0, 1j], [-1j, 2.0]])
    M = BlockComplexMatrix(1, 1, 2, [(0, 0, h)])
    assert M.hermitian_defect() == 0
    M2 = BlockComplexMatrix(1, 1, 2, [(0, 0, h + np.array([[0, 1e-3], [0, 0]]))])
    assert M2.hermitian_defect() == pytest.approx(1e-3)


def test_dense_export_cap():
    M = BlockComplexMatrix(5000, 5000, 1, [])
    with pytest.raises(ValueError, match="cap"):
        M.to_dense()


def test_blocks_are_immutable():
    M = BlockComplexMatrix(1, 1, 1, [(0, 0, np.array([[1.0]]))])
    with pytest.raises(ValueError):
        M.block(0, 0)[0, 0] = 5.0
