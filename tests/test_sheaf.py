import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypersheaf.hypergraph import DirectedHypergraph, Hyperedge
from hypersheaf.sheaf import (
    SheafConfig,
    build_fixed_sheaf,
    directional_coefficient,
)


def one_directed_edge():
    return DirectedHypergraph(3, (Hyperedge((0,), (1, 2)),))


def test_directional_coefficient_cases():
    H = one_directed_edge()
    assert directional_coefficient(H, 1, 0, 0.17) == 1
    assert directional_coefficient(H, 0, 0, 0.0) == pytest.approx(1)
    # a quarter charge turns tails into the -i phase
    assert directional_coefficient(H, 0, 0, 0.25) == pytest.approx(-1j)
    assert directional_coefficient(H, 2, 0, 0.1) == pytest.approx(1)
    A = build_fixed_sheaf(H, SheafConfig(q=0.25, d=1))
    assert A.coefficient(0, 0) == pytest.approx(-1j)
    assert A.coefficient(1, 0) == 1


def test_directional_coefficient_zero_off_edge():
    H = DirectedHypergraph(3, (Hyperedge((0, 1)),))
    assert directional_coefficient(H, 2, 0, 0.2) == 0
    with pytest.raises(ValueError):
        directional_coefficient(H, 0, 5, 0.2)


@given(q=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_coefficient_unit_modulus(q):
    H = one_directed_edge()
    for u in (0, 1):
        assert abs(directional_coefficient(H, u, 0, q)) == pytest.approx(1.0)


def test_trivial_sheaf_is_identity():
    H = one_directed_edge()
    A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=1))
    for (u, e), F in A.maps.items():
        assert np.array_equal(F, np.eye(1))


def test_diagonal_sheaf_has_zero_off_diagonals():
    H = one_directed_edge()
    A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=3, map_shape="diagonal"), rng_seed=3)
    for F in A.maps.values():
        assert np.array_equal(F, np.diag(np.diag(F)))


def test_fixed_sheaf_deterministic_in_seed():
    H = one_directed_edge()
    a = build_fixed_sheaf(H, SheafConfig(q=0.2, d=2, map_shape="full"), rng_seed=7)
    b = build_fixed_sheaf(H, SheafConfig(q=0.2, d=2, map_shape="full"), rng_seed=7)
    for key in a.maps:
        assert np.array_equal(a.maps[key], b.maps[key])
    c = build_fixed_sheaf(H, SheafConfig(q=0.2, d=2, map_shape="full"), rng_seed=8)
    assert any(not np.array_equal(a.maps[k], c.maps[k]) for k in a.maps)


def test_restriction_at_q0_is_the_plain_map():
    H = one_directed_edge()
    A = build_fixed_sheaf(H, SheafConfig(q=0.0, d=2, map_shape="full"), rng_seed=1)
    np.testing.assert_array_equal(A.coefficient(0, 0) * A.map_for(0, 0), A.map_for(0, 0))


def test_phases_cancel_in_gram_product():
    # conj(R)^T R equals F^T F exactly, which keeps the degree blocks real
    H = one_directed_edge()
    A = build_fixed_sheaf(H, SheafConfig(q=0.13, d=3, map_shape="full"), rng_seed=5)
    R = A.coefficient(0, 0) * A.map_for(0, 0)
    F = A.map_for(0, 0)
    np.testing.assert_allclose(np.conj(R).T @ R, F.T @ F, atol=1e-15)


def test_assignment_validates_coverage():
    H = one_directed_edge()
    A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=1))
    A.validate_against(H)
    bigger = DirectedHypergraph(3, (Hyperedge((0,), (1, 2)), Hyperedge((1, 2)),))
    with pytest.raises(ValueError, match="mismatch"):
        A.validate_against(bigger)
    with pytest.raises(ValueError, match="not incident"):
        A.coefficient(2, 1)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SheafConfig(q=float("nan"))
    with pytest.raises(ValueError):
        SheafConfig(q=0.1, d=0)
    with pytest.raises(ValueError):
        SheafConfig(q=0.1, d=1, map_shape="banana")
