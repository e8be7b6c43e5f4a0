import numpy as np
import pytest

from hypersheaf.blockmatrix import BlockComplexMatrix
from hypersheaf.hypergraph import DirectedHypergraph, Hyperedge
from hypersheaf.jacobi import jacobi_eigh
from hypersheaf.laplacian import build_laplacian
from hypersheaf.reference import reference_laplacian
from hypersheaf import spectral
from hypersheaf.sheaf import SheafAssignment, SheafConfig, build_fixed_sheaf
from hypersheaf.spectral import (
    CHECK_NAMES,
    dirichlet_energy,
    hermitian_eigenvalues,
    random_instance,
    real_embedding,
    spectrum_report,
    verify_spectral_suite,
)
from hypersheaf.theorems import counterexample_hypergraph


def random_hermitian(rng, k):
    A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return 0.5 * (A + A.conj().T)


def test_jacobi_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    for k in (1, 2, 5, 12, 30):
        A = rng.standard_normal((k, k))
        A = 0.5 * (A + A.T)
        np.testing.assert_allclose(jacobi_eigh(A), np.linalg.eigvalsh(A), atol=1e-10)


def test_jacobi_vectors_reconstruct_matrix():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((8, 8))
    A = 0.5 * (A + A.T)
    w, V = jacobi_eigh(A, compute_vectors=True)
    np.testing.assert_allclose(V @ np.diag(w) @ V.T, A, atol=1e-10)
    np.testing.assert_allclose(V.T @ V, np.eye(8), atol=1e-12)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigenvalues_identity():
    np.testing.assert_allclose(hermitian_eigenvalues(np.eye(3)), [1, 1, 1])


def test_hermitian_eigenvalues_pauli_matrix():
    M = np.array([[0.0, -1j], [1j, 0.0]])
    np.testing.assert_allclose(hermitian_eigenvalues(M), [-1.0, 1.0], atol=1e-12)


def test_hermitian_eigenvalues_counterexample_spectrum():
    # independent closed form: eigenvectors (1,0,0,-1), (0,1,-1,0), (1,a,a,1)
    # give {1/3, 4/3, (1 +- sqrt(17))/6} for the flipped-sign operator
    H = counterexample_hypergraph()
    sheaf = build_fixed_sheaf(H, SheafConfig(q=0.0, d=1))
    M = reference_laplacian("duta_linear", hypergraph=H, sheaf=sheaf)
    expected = sorted([(1 - np.sqrt(17)) / 6, 1 / 3, (1 + np.sqrt(17)) / 6, 4 / 3])
    np.testing.assert_allclose(hermitian_eigenvalues(M), expected, atol=1e-9)


def test_hermitian_eigenvalues_match_numpy_on_random_matrices():
    rng = np.random.default_rng(2)
    for k in (2, 7, 15):
        M = random_hermitian(rng, k)
        np.testing.assert_allclose(hermitian_eigenvalues(M), np.linalg.eigvalsh(M), atol=1e-9)


def test_embedded_spectrum_pairs_exactly():
    rng = np.random.default_rng(3)
    M = random_hermitian(rng, 9)
    doubled = jacobi_eigh(real_embedding(M))
    assert np.max(np.abs(doubled[::2] - doubled[1::2])) < 1e-9


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(4)
    M = random_hermitian(rng, 11)
    eigs = hermitian_eigenvalues(M)
    assert eigs.sum() == pytest.approx(np.trace(M).real, rel=1e-8)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_spectrum_report_fields():
    rep = spectrum_report(np.diag([3.0, -1.0, 2.0]))
    assert rep.min_eig == pytest.approx(-1.0)
    assert rep.max_eig == pytest.approx(3.0)
    assert not rep.is_psd_at(1e-8)
    assert rep.hermitian_defect == 0.0


def build_normalized(seed, **kwargs):
    rng = np.random.default_rng(seed)
    H, A = random_instance(rng, **kwargs)
    return H, A, build_laplacian(H, A, normalized=True)


def test_dirichlet_zero_signal():
    H, A, bundle = build_normalized(0)
    rep = dirichlet_energy(H, A, bundle, np.zeros(bundle.n * bundle.d))
    assert rep.quadratic_form == 0.0
    assert rep.sum_form == 0.0


def test_dirichlet_two_forms_agree():
    rng = np.random.default_rng(5)
    for trial in range(40):
        H, A = random_instance(rng, n_range=(4, 10), d_choices=(1, 2, 3))
        bundle = build_laplacian(H, A, normalized=True)
        x = rng.standard_normal(bundle.n * bundle.d) + 1j * rng.standard_normal(bundle.n * bundle.d)
        rep = dirichlet_energy(H, A, bundle, x)
        assert rep.relative_gap <= 1e-9
        assert rep.quadratic_form >= -1e-9


def test_verify_suite_passes_on_random_instances(monkeypatch):
    # the suite takes its spectrum from LAPACK, never from the Jacobi solver
    def no_jacobi(*args, **kwargs):
        raise AssertionError("verify_spectral_suite called jacobi_eigh")

    monkeypatch.setattr(spectral, "jacobi_eigh", no_jacobi)
    rng = np.random.default_rng(6)
    for _ in range(25):
        H, A = random_instance(rng)
        rep = verify_spectral_suite(H, A, rng=rng)
        assert rep.passed, rep.failures
        assert rep.max_eig <= 1 + 1e-8
        assert rep.min_eig >= -1e-8
        # oracle: LAPACK on the complex matrix itself, not on the real embedding
        eigs = np.linalg.eigvalsh(build_laplacian(H, A, normalized=True).L.to_dense())
        assert abs(rep.min_eig - eigs[0]) <= 1e-12
        assert abs(rep.max_eig - eigs[-1]) <= 1e-12
        assert rep.pairing_gap <= spectral.PAIRING_TOL


def scaled_by_one_and_a_half(blocks, n, d):
    return [(i, j, 1.5 * blk) for i, j, blk in blocks]


def shifted_by_minus_half(blocks, n, d):
    return blocks + [(u, u, -0.5 * np.eye(d)) for u in range(n)]  # duplicate blocks sum


@pytest.mark.parametrize(
    "mutate, broken", [(scaled_by_one_and_a_half, "bound"), (shifted_by_minus_half, "psd")]
)
def test_verify_suite_catches_a_wrong_spectrum(monkeypatch, mutate, broken):
    # only the cached L is altered; Z, and with it the Dirichlet forms, stay intact
    def mutated_build(H, A, **kw):
        bundle = build_laplacian(H, A, **kw)
        blocks = [(i, j, blk) for (i, j), blk in bundle.L.entries.items()]
        n, d = bundle.n, bundle.d
        bundle.__dict__["L"] = BlockComplexMatrix(n, n, d, mutate(blocks, n, d))
        return bundle

    rng = np.random.default_rng(12)
    for _ in range(4):
        H, A = random_instance(rng)
        intact = verify_spectral_suite(H, A, rng=np.random.default_rng(0))
        assert intact.passed and intact.max_eig > 1 / 1.5
        with monkeypatch.context() as m:
            m.setattr(spectral, "build_laplacian", mutated_build)
            rep = verify_spectral_suite(H, A, rng=np.random.default_rng(0))
        applicable = [name for name in CHECK_NAMES if name != "realness" or A.config.q == 0.0]
        assert rep.checks == {name: name != broken for name in applicable}, rep.failures
        assert len(rep.failures) == 1 and rep.failures[0].startswith(f"{broken}: "), rep.failures


def near_singular_instance():
    """A draw whose degree blocks reach condition number 3.5e9."""
    rng = np.random.default_rng(1357497524)
    return random_instance(
        rng, n_range=(11, 11), m_range=(4, 4), d_choices=(4,), q_choices=(0.0,), map_shapes=("full",)
    )


def test_dirichlet_tolerance_scales_with_degree_conditioning():
    H, A = near_singular_instance()
    cond = np.linalg.cond(build_laplacian(H, A, normalized=True).D_V).max()
    assert cond > 1e9
    rep = verify_spectral_suite(H, A)
    assert rep.passed, rep.failures
    assert rep.checks == dict.fromkeys(CHECK_NAMES, True)  # realness applies at q = 0
    # the rounding gap exceeds the flat floor; the scaled bound covers it
    assert 1e-9 < rep.dirichlet_gap <= np.finfo(float).eps * cond


def test_dirichlet_check_still_catches_a_dropped_phase(monkeypatch):
    # the operator is built without its directional phases while the sum
    # form keeps them; the scaled tolerance must not hide that
    H, A = near_singular_instance()
    charged = SheafAssignment(SheafConfig(q=0.25, d=4, map_shape="full"), A.maps, A.roles)
    monkeypatch.setattr(spectral, "build_laplacian", lambda H, _A, **kw: build_laplacian(H, A, **kw))
    rep = verify_spectral_suite(H, charged)
    gaps = [f for f in rep.failures if f.startswith("dirichlet: energy form gap")]
    assert gaps and "tolerance" in gaps[0], rep.failures
    assert rep.checks == {name: name != "dirichlet" for name in CHECK_NAMES if name != "realness"}


def test_verify_suite_serializes_failures():
    # a handcrafted failing check: feed the suite a hypergraph with an
    # isolated vertex in strict mode and confirm the error carries context
    H = DirectedHypergraph(3, (Hyperedge((0, 1)),))
    A = build_fixed_sheaf(H, SheafConfig(q=0.1, d=1))
    with pytest.raises(ValueError, match="vertex 2"):
        verify_spectral_suite(H, A)
