"""Acceptance suite: every criterion at its stated tolerance and runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Criterion 1 is split in two: the reference matrix
reproduces exactly, but the published eigenvalue multiset for that matrix
is internally inconsistent with the matrix itself (see the spectrum test's
docstring), so the as-stated eigenvalue assertion fails honestly.
"""

import time

import numpy as np

from hypersheaf import autodiff as ad
from hypersheaf.cli import main as cli_main
from hypersheaf.data import SyntheticConfig, generate_synthetic
from hypersheaf.laplacian import build_laplacian
from hypersheaf.model import (
    DEGREE_EPS,
    IncidenceStructure,
    ModelConfig,
    Tape,
    _forward_tape,
    diffusion_layer,
    init_state,
    loss_and_gradients,
    synthetic_benchmark_config,
    train,
)
from hypersheaf.spectral import random_instance, verify_spectral_suite
from hypersheaf.theorems import (
    COUNTEREXAMPLE_MATRIX,
    check_counterexample,
    run_all_theorem_checks,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


# --- criterion 1: counterexample reproduction ---------------------------------


def test_criterion_1_counterexample_matrix_and_non_psd():
    t0 = time.monotonic()
    rep = check_counterexample()
    elapsed = time.monotonic() - t0
    exact = sorted([(1 - np.sqrt(17)) / 6, 1 / 3, (1 + np.sqrt(17)) / 6, 4 / 3])
    matrix_ok = rep.matrix_deviation == 0.0
    spectrum_ok = np.allclose(rep.eigenvalues, exact, atol=1e-9)
    ok = matrix_ok and spectrum_ok and rep.min_eig < 0 and elapsed < 1.0
    report(
        "1 (matrix)",
        ok,
        f"reference matrix deviation {rep.matrix_deviation:.1e}, spectrum "
        f"{np.round(rep.eigenvalues, 6).tolist()}, min {rep.min_eig:.4f} < 0, {elapsed:.3f}s",
    )
    np.testing.assert_array_equal(rep.matrix, COUNTEREXAMPLE_MATRIX)
    np.testing.assert_allclose(rep.eigenvalues, exact, atol=1e-9)
    assert rep.min_eig < -1e-9  # not positive semidefinite
    assert elapsed < 1.0


def test_criterion_1_published_eigenvalues_as_stated():
    """The published eigenvalue multiset {-2, 2/3, 4/3, 2} is asserted verbatim.

    It cannot hold for the published matrix: (1, 0, 0, -1) is an eigenvector
    of that matrix with eigenvalue 1/3, and 1/3 is not in the published set.
    The matrix's true spectrum is {(1 - sqrt(17))/6, 1/3, (1 + sqrt(17))/6,
    4/3}; the two published artifacts are mutually inconsistent.  The
    assertion is kept as stated and fails; the substantive claim (a negative
    eigenvalue, hence no positive semidefiniteness) is verified above.
    """
    rep = check_counterexample()
    stated = sorted([-2.0, 2 / 3, 4 / 3, 2.0])
    matches = np.allclose(rep.eigenvalues, stated, atol=1e-9)
    report(
        "1 (spectrum as stated)",
        matches,
        f"computed {np.round(rep.eigenvalues, 6).tolist()} vs stated {np.round(stated, 6).tolist()}",
    )
    np.testing.assert_allclose(rep.eigenvalues, stated, atol=1e-9)


# --- criterion 2: spectral theorem suite ----------------------------------------


def test_criterion_2_spectral_suite_500_instances():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(500):
        H, A = random_instance(
            rng,
            n_range=(4, 16),
            m_range=(2, 12),
            d_choices=(1, 2, 3, 4),
            q_choices=(0.0, 0.05, 0.1, 0.25),
            map_shapes=("trivial", "diagonal", "full"),
        )
        rep = verify_spectral_suite(H, A, rng=rng)
        if not rep.passed:
            failures.append((trial, rep.failures))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120
    report("2", ok, f"500 instances, {len(failures)} failures, {elapsed:.1f}s (< 120s)")
    assert not failures, failures[:3]
    assert elapsed < 120


# --- criterion 3: generalization theorems ---------------------------------------


def test_criterion_3_generalization_theorems():
    t0 = time.monotonic()
    results = run_all_theorem_checks(trials=50, seed=42)
    elapsed = time.monotonic() - t0
    worst = max(r.max_deviation for r in results)
    ok = all(r.passed for r in results) and elapsed < 60
    report(
        "3",
        ok,
        f"4 suites x 50 instances, worst deviation {worst:.3e} (tol 1e-10), {elapsed:.1f}s (< 60s)",
    )
    for r in results:
        assert r.passed, r.summary()
        assert r.max_deviation <= 1e-10
    assert elapsed < 60


# --- criterion 4: gradient correctness -------------------------------------------


def _gradcheck_instance(seed: int, config: ModelConfig) -> None:
    cfg = SyntheticConfig(
        n=10, classes=2, h_min=2, h_max=3, intra_per_class=3, inter_per_pair=4, seed=seed
    )
    ds = generate_synthetic(cfg)
    structure = IncidenceStructure.build(ds.hypergraph)
    state = init_state(config, ds.features.shape[1], 2)
    noise = np.random.default_rng(seed + 1000)
    for value in state.params.values():
        value += 0.01 * noise.standard_normal(value.shape)

    fixed = None
    if config.light_mode:
        _, aux, _ = _forward_tape(Tape(), ds.features, structure, state, config, collect_aux=True)
        fixed = aux.map_values

    def build_loss(params):
        state.params.update(params)
        loss, grads, _ = loss_and_gradients(
            ds.features, structure, ds.labels, ds.masks[0], state, config,
            training=False, fixed_maps=fixed,
        )
        return loss, grads

    ad.finite_difference_check(
        build_loss, state.params, n_probes=32, rng=np.random.default_rng(seed)
    )
    if config.light_mode:
        _, grads, _ = loss_and_gradients(
            ds.features, structure, ds.labels, ds.masks[0], state, config, training=False
        )
        for name in state.phi_names():
            assert np.all(grads[name] == 0.0), f"{name} gradient not exactly zero"


def test_criterion_4_gradient_correctness():
    t0 = time.monotonic()
    shapes = ("diagonal", "full", "diagonal")
    for instance, shape in enumerate(shapes):
        full_cfg = ModelConfig(
            num_layers=2, stalk_dim=2, hidden_width=3, seed=instance,
            map_shape=shape, light_mode=False,
        )
        _gradcheck_instance(instance, full_cfg)
        light_cfg = ModelConfig(
            num_layers=2, stalk_dim=2, hidden_width=3, seed=instance,
            map_shape=shape, light_mode=True,
        )
        _gradcheck_instance(instance, light_cfg)
    elapsed = time.monotonic() - t0
    ok = elapsed < 120
    report(
        "4",
        ok,
        f"32 probes per parameter group, 3 instances, full and light modes, {elapsed:.1f}s (< 120s)",
    )
    assert elapsed < 120


# --- criterion 5: synthetic classification ----------------------------------------


def test_criterion_5_synthetic_classification():
    t0 = time.monotonic()
    means = {}
    best_q_positive = -1.0
    for inter in (10, 30, 50):
        ds = generate_synthetic(
            SyntheticConfig(
                n=500, classes=5, h_min=3, h_max=10,
                intra_per_class=30, inter_per_pair=inter, seed=0,
            )
        )
        accs = []
        for seed in range(5):
            config, budget = synthetic_benchmark_config(seed=seed, q=0.1)
            accs.append(train(ds, config, budget).test_acc)
        means[inter] = float(np.mean(accs))
        if inter == 30:
            best_q_positive = max(accs)

    ds30 = generate_synthetic(
        SyntheticConfig(
            n=500, classes=5, h_min=3, h_max=10,
            intra_per_class=30, inter_per_pair=30, seed=0,
        )
    )
    config0, budget0 = synthetic_benchmark_config(seed=0, q=0.0)
    ablation = train(ds30, config0, budget0).test_acc
    gap = best_q_positive - ablation
    elapsed = time.monotonic() - t0
    ok = all(m >= 0.90 for m in means.values()) and gap >= 0.15 and elapsed < 1800
    report(
        "5",
        ok,
        f"mean test acc {means}, q=0 ablation {ablation:.3f} "
        f"(gap {gap * 100:.1f} points, need >= 15), {elapsed:.0f}s (< 1800s)",
    )
    for inter, mean in means.items():
        assert mean >= 0.90, f"mean accuracy {mean} < 0.90 at inter-class density {inter}"
    assert gap >= 0.15
    assert elapsed < 1800


# --- criterion 6: determinism ---------------------------------------------------


def test_criterion_6_manifest_replay_is_bit_identical(tmp_path):
    from hypersheaf.cli import manifest_argv

    prefix = tmp_path / "det"
    assert cli_main([
        "gen-synthetic", "--n", "30", "--classes", "3", "--hmin", "2", "--hmax", "4",
        "--intra", "3", "--inter", "3", "--seed", "11", "--out", str(prefix),
    ]) == 0
    argv = [
        "train", "--data", str(prefix), "--layers", "2", "--stalk-dim", "2",
        "--hidden", "4", "--epochs", "6", "--patience", "10", "--seed", "3",
        "--light", "--residual",
        "--metrics-out", str(tmp_path / "a.csv"), "--manifest", str(tmp_path / "a.manifest"),
    ]
    assert cli_main(argv) == 0
    replay = manifest_argv(tmp_path / "a.manifest")
    replay[replay.index(str(tmp_path / "a.csv"))] = str(tmp_path / "b.csv")
    replay[replay.index(str(tmp_path / "a.manifest"))] = str(tmp_path / "b.manifest")
    assert cli_main(replay) == 0
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # regeneration of the dataset itself is also bit-stable
    prefix2 = tmp_path / "det2"
    assert cli_main([
        "gen-synthetic", "--n", "30", "--classes", "3", "--hmin", "2", "--hmax", "4",
        "--intra", "3", "--inter", "3", "--seed", "11", "--out", str(prefix2),
    ]) == 0
    same_data = (tmp_path / "det.hg").read_bytes() == (tmp_path / "det2.hg").read_bytes()
    report("6", identical and same_data, "manifest replay reproduced metrics and data byte for byte")
    assert identical
    assert same_data


# --- criterion 7: diffusion reduction ---------------------------------------------


def test_criterion_7_identity_layer_reduction():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        H, A = random_instance(rng, n_range=(4, 9), m_range=(2, 6), d_choices=(1, 2, 3))
        d = A.config.d
        n = H.num_vertices
        X = rng.standard_normal((n * d, 2)) + 1j * rng.standard_normal((n * d, 2))
        out = diffusion_layer(X, H, A, np.eye(d), np.eye(2))
        bundle = build_laplacian(H, A, normalized=True, jitter=DEGREE_EPS)
        expected = X - bundle.L.to_dense() @ X
        worst = max(worst, float(np.max(np.abs(out - expected))))
    ok = worst < 1e-10
    report("7", ok, f"identity-weight layer vs (I - L_N)X: worst deviation {worst:.3e} (tol 1e-10)")
    assert worst < 1e-10
