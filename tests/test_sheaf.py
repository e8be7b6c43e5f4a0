import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypersheaf import laplacian
from hypersheaf.hypergraph import DirectedHypergraph, Hyperedge
from hypersheaf.laplacian import (
    DEGREE_EPS,
    apply_laplacian,
    build_degree_matrices,
    build_incidence,
    build_laplacian,
)
from hypersheaf.model import ModelConfig, diffusion_layer, init_state, predict_sheaf
from hypersheaf.sheaf import (
    IncidenceStructure,
    SheafAssignment,
    SheafConfig,
    build_fixed_sheaf,
    directional_coefficient,
)
from hypersheaf.spectral import parse_instance, random_hypergraph, random_instance, serialize_instance
from hypersheaf.theorems import _magnet_scaled_sheaf


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
    assert A.maps.shape == (3, 1, 1)
    assert np.array_equal(A.maps, np.broadcast_to(np.eye(1), A.maps.shape))


def test_diagonal_sheaf_has_zero_off_diagonals():
    H = one_directed_edge()
    A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=3, map_shape="diagonal"), rng_seed=3)
    assert A.maps.shape == (3, 3, 3)
    assert not A.maps[:, ~np.eye(3, dtype=bool)].any()


def test_fixed_sheaf_deterministic_in_seed():
    H = one_directed_edge()
    a = build_fixed_sheaf(H, SheafConfig(q=0.2, d=2, map_shape="full"), rng_seed=7)
    b = build_fixed_sheaf(H, SheafConfig(q=0.2, d=2, map_shape="full"), rng_seed=7)
    assert np.array_equal(a.maps, b.maps)
    c = build_fixed_sheaf(H, SheafConfig(q=0.2, d=2, map_shape="full"), rng_seed=8)
    assert not np.array_equal(a.maps, c.maps)


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
    build_laplacian(H, A)
    bigger = DirectedHypergraph(3, (Hyperedge((0,), (1, 2)), Hyperedge((1, 2)),))
    with pytest.raises(ValueError, match="mismatch"):
        build_laplacian(bigger, A)
    with pytest.raises(ValueError, match="not incident"):
        A.coefficient(2, 1)
    # the same incidences with tail and head swapped
    reversed_edge = DirectedHypergraph(3, (Hyperedge((1, 2), (0,)),))
    with pytest.raises(ValueError, match=r"incidence \(1, 0\) stored as head, hypergraph says tail"):
        build_laplacian(reversed_edge, A)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SheafConfig(q=float("nan"))
    with pytest.raises(ValueError):
        SheafConfig(q=0.1, d=0)
    with pytest.raises(ValueError):
        SheafConfig(q=0.1, d=1, map_shape="banana")


@pytest.mark.parametrize("value", [4.5, 2.0, True, "2"])
def test_config_stalk_dim_rejects_other_types(value):
    # a float d used to fail later, with a TypeError from inside numpy
    with pytest.raises(ValueError, match="d must be an integer"):
        SheafConfig(q=0.1, d=value)
    assert SheafConfig(q=0.1, d=np.int64(2)).d == 2


# --- the mapping constructor and the canonical stack --------------------------


def one_edge_maps(F0, F1, F2, roles=("tail", "head", "head")):
    """Mapping-constructor input for :func:`one_directed_edge`."""
    keys = [(0, 0), (1, 0), (2, 0)]
    return dict(zip(keys, (F0, F1, F2))), dict(zip(keys, roles))


@pytest.mark.parametrize("shape, maps, match", [
    ("full", (np.eye(2), np.eye(3), np.eye(2)), r"incidence \(1, 0\) has shape \(3, 3\), expected \(2, 2\)"),
    ("full", (np.eye(2), np.ones(2), np.eye(2)), r"incidence \(1, 0\) has shape \(2,\), expected"),
    ("trivial", (np.eye(2), np.eye(2), 2 * np.eye(2)), r"incidence \(2, 0\) has a non-identity map in a trivial sheaf"),
    ("diagonal", (np.eye(2), [[1.0, 0.5], [0.0, 1.0]], np.eye(2)), r"incidence \(1, 0\) has a nonzero off-diagonal in a diagonal sheaf"),
    ("full", (np.eye(2), np.eye(2), [[1.0, np.nan], [0.0, 1.0]]), r"incidence \(2, 0\) has a non-finite map"),
    ("diagonal", (np.eye(2), np.diag([1.0, np.inf]), np.eye(2)), r"incidence \(1, 0\) has a non-finite map"),
], ids=["shape", "rank", "trivial", "diagonal", "nan", "inf"])
def test_constructor_rejects_a_bad_map(shape, maps, match):
    with pytest.raises(ValueError, match=match):
        SheafAssignment(SheafConfig(q=0.1, d=2, map_shape=shape), *one_edge_maps(*maps))


def test_constructor_rejects_mismatched_keys_and_bad_roles():
    config = SheafConfig(q=0.1, d=1)
    maps, roles = one_edge_maps(*[np.eye(1)] * 3)
    with pytest.raises(ValueError, match="maps and roles must cover the same incidences"):
        SheafAssignment(config, maps, {**roles, (0, 1): "head"})
    with pytest.raises(ValueError, match=r"incidence \(1, 0\) has role 'sideways'"):
        SheafAssignment(config, *one_edge_maps(*[np.eye(1)] * 3, roles=("tail", "sideways", "head")))
    with pytest.raises(ValueError, match=r"incidence \(-1, 0\) has a negative index"):
        SheafAssignment(config, {(-1, 0): np.eye(1), (1, 0): np.eye(1)}, {(-1, 0): "tail", (1, 0): "head"})


def test_mapping_constructor_builds_the_smallest_hypergraph_with_those_incidences():
    # hyperedge 1 carries no incidence and stays empty; n and m end at the last vertex and hyperedge used
    maps, roles = one_edge_maps(*[np.eye(1)] * 3)
    maps[(1, 2)], roles[(1, 2)] = np.eye(1), "tail"
    s = SheafAssignment(SheafConfig(q=0.1, d=1), maps, roles).structure
    t = IncidenceStructure.build(DirectedHypergraph(3, (Hyperedge((0,), (1, 2)), Hyperedge(()), Hyperedge((1,)))))
    assert (s.n, s.m) == (t.n, t.m) == (3, 3)
    for name in ("inc_node", "inc_edge", "inc_is_tail", "delta"):
        assert getattr(s, name).tobytes() == getattr(t, name).tobytes(), name


def test_non_finite_map_never_reaches_assembly():
    H = one_directed_edge()
    A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=1, map_shape="full"))
    maps = np.array(A.maps)
    maps[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"incidence \(1, 0\) has a non-finite map"):
        SheafAssignment.over(A.structure, A.config, maps)


def test_stack_constructor_requires_one_map_per_incidence():
    A = build_fixed_sheaf(one_directed_edge(), SheafConfig(q=0.1, d=1))
    with pytest.raises(ValueError, match=r"expected maps of shape \(3, 1, 1\), got \(2, 1, 1\)"):
        SheafAssignment.over(A.structure, A.config, A.maps[:2])
    with pytest.raises(ValueError, match=r"expected maps of shape \(3, 1, 1\), got \(3, 2, 2\)"):
        SheafAssignment.over(A.structure, A.config, np.ones((3, 2, 2)))


def test_stored_arrays_are_read_only():
    A = build_fixed_sheaf(one_directed_edge(), SheafConfig(q=0.1, d=2, map_shape="full"))
    s = A.structure
    for arr in (s.inc_node, s.inc_edge, s.inc_is_tail, A.maps):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    with pytest.raises(ValueError):
        A.map_for(0, 0)[0, 0] = 2.0


def test_shuffled_mapping_gives_the_canonical_stack_and_operator():
    rng = np.random.default_rng(11)
    H = random_hypergraph(rng, (8, 12), (5, 8), 0.6)
    A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=2, map_shape="full"), rng_seed=4)
    keys = [(u, e) for u, e, _ in H.incidences()]
    shuffled = [keys[k] for k in rng.permutation(len(keys))]
    B = SheafAssignment(
        A.config, {k: np.array(A.map_for(*k)) for k in shuffled}, {k: A.role_of(*k) for k in shuffled}
    )
    assert B.structure is not A.structure
    for name in ("inc_node", "inc_edge", "inc_is_tail"):
        assert getattr(B.structure, name).tobytes() == getattr(A.structure, name).tobytes(), name
    assert B.maps.tobytes() == A.maps.tobytes()
    for kwargs in ({}, {"normalized": True, "jitter": DEGREE_EPS}):
        assert build_laplacian(H, B, **kwargs).M.tobytes() == build_laplacian(H, A, **kwargs).M.tobytes()


def reference_sheaf_maps(H, config, rng_seed):
    """``build_fixed_sheaf``'s maps drawn one incidence at a time, in canonical order."""
    rng = np.random.default_rng(rng_seed)
    d, maps = config.d, []
    for _ in H.incidences():
        if config.map_shape == "trivial":
            maps.append(np.eye(d))
        elif config.map_shape == "diagonal":
            maps.append(np.diag(rng.uniform(-1.0, 1.0, size=d)))
        else:
            maps.append(rng.uniform(-1.0, 1.0, size=(d, d)))
    return np.array(maps).reshape(-1, d, d)


@pytest.mark.parametrize("shape", ["trivial", "diagonal", "full"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fixed_sheaf_matches_a_draw_one_incidence_at_a_time(shape, d):
    rng = np.random.default_rng(d)
    for H in (one_directed_edge(), *(random_hypergraph(rng, (3, 20), (1, 12), 0.6) for _ in range(5))):
        config = SheafConfig(q=0.1, d=d, map_shape=shape)
        A = build_fixed_sheaf(H, config, rng_seed=17)
        # bytes, so a -0.0 off-diagonal (which np.diag never writes) shows
        assert A.maps.tobytes() == reference_sheaf_maps(H, config, 17).tobytes()
        s = A.structure
        assert [(u, e, "tail" if t else "head") for u, e, t in
                zip(s.inc_node.tolist(), s.inc_edge.tolist(), s.inc_is_tail.tolist())] == list(H.incidences())


def test_production_paths_never_look_maps_up_one_incidence_at_a_time(monkeypatch):
    def lookup(*args):
        raise AssertionError("a production path read the sheaf one incidence at a time")

    for name in ("map_for", "role_of", "coefficient"):
        monkeypatch.setattr(SheafAssignment, name, lookup)
    H = random_hypergraph(np.random.default_rng(2), (8, 12), (5, 8), 0.6)
    n, d, f = H.num_vertices, 2, 3
    X = np.random.default_rng(3).standard_normal((n * d, f)) + 0j
    for shape in ("trivial", "diagonal", "full"):
        A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=d, map_shape=shape), rng_seed=5)
        for bundle in (build_laplacian(H, A), build_laplacian(H, A, normalized=True, jitter=DEGREE_EPS)):
            apply_laplacian(bundle, X)
            bundle.L
        build_degree_matrices(H, A)
        build_incidence(H, A)
        diffusion_layer(X, H, A, np.eye(d), np.eye(f))
        if shape != "trivial":
            config = ModelConfig(num_layers=1, stalk_dim=d, hidden_width=f, map_shape=shape)
            params = init_state(config, input_width=1, num_classes=2).params
            phi = {k.split("_", 1)[1]: v for k, v in params.items() if k.startswith("phi0_")}
            build_laplacian(H, predict_sheaf(X, H, phi, config))


def test_every_sheaf_constructor_holds_its_hypergraphs_structure(monkeypatch):
    # a sheaf built over IncidenceStructure.build(H) is checked against H by identity alone
    def compare(*args):
        raise AssertionError("incidence arrays compared")

    rng = np.random.default_rng(12)
    H, A = random_instance(rng, n_range=(6, 10))
    n, d, f = H.num_vertices, 2, 3
    config = ModelConfig(num_layers=1, stalk_dim=d, hidden_width=f, map_shape="full")
    phi = {k.split("_", 1)[1]: v for k, v in init_state(config, 1, 2).params.items() if k.startswith("phi0_")}
    X = rng.standard_normal((n * d, f)) + 1j * rng.standard_normal((n * d, f))
    H2, A2 = parse_instance(serialize_instance(H, A))
    sheaves = {
        "random_instance": (H, A),
        "build_fixed_sheaf": (H, build_fixed_sheaf(H, SheafConfig(q=0.1, d=3, map_shape="diagonal"), rng_seed=1)),
        "parse_instance": (H2, A2),
        "_magnet_scaled_sheaf": (H, _magnet_scaled_sheaf(H, 0.1)),
        "predict_sheaf": (H, predict_sheaf(X, H, phi, config)),
    }
    monkeypatch.setattr(laplacian, "_check_same_incidences", compare)
    for name, (G, B) in sheaves.items():
        assert B.structure is IncidenceStructure.build(G), name
        for kwargs in ({}, {"normalized": True, "jitter": DEGREE_EPS}):
            build_laplacian(G, B, **kwargs)
    # a sheaf over an equal but distinct hypergraph is compared, and so is a keyed one
    keyed = SheafAssignment(A.config, {k[:2]: A.map_for(*k[:2]) for k in H.incidences()},
                            {k[:2]: k[2] for k in H.incidences()})
    for B in (A2, keyed):
        with pytest.raises(AssertionError, match="incidence arrays compared"):
            build_laplacian(H, B)
