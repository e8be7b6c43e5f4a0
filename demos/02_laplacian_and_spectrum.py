"""Assembling the complex Hermitian Laplacian and checking its spectrum.

The charge parameter q places direction information on the unit circle:
tail incidences carry exp(-2*pi*i*q), heads carry 1.  At q = 0 the operator
is real and direction-blind; at q = 1/4 opposite roles contribute pure
imaginary entries with a net-flow sign.  The normalized operator is
Hermitian and PSD with spectrum inside [0, 1] for every sheaf.
"""

import numpy as np

from hypersheaf import (
    DirectedHypergraph,
    Hyperedge,
    SheafConfig,
    build_fixed_sheaf,
    build_laplacian,
    dirichlet_energy,
    hermitian_eigenvalues,
    spectrum_report,
    verify_spectral_suite,
)

H = DirectedHypergraph(
    4,
    (
        Hyperedge(tail=(0,), head=(1, 2)),
        Hyperedge(tail=(1, 2), head=(3,)),
        Hyperedge((0, 3)),
    ),
)

for q in (0.0, 0.1, 0.25):
    sheaf = build_fixed_sheaf(H, SheafConfig(q=q, d=1, map_shape="trivial"))
    bundle = build_laplacian(H, sheaf, normalized=True)
    L = bundle.dense()
    eigs = hermitian_eigenvalues(L)
    print(f"q={q:4}: max |Im L| = {np.max(np.abs(L.imag)):.2e}, "
          f"spectrum in [{eigs[0]:+.4f}, {eigs[-1]:.4f}]")

# a random full sheaf keeps every guarantee: Hermitian, PSD, bounded by 1
sheaf = build_fixed_sheaf(H, SheafConfig(q=0.2, d=3, map_shape="full"), rng_seed=42)
bundle = build_laplacian(H, sheaf, normalized=True)
rep = spectrum_report(bundle.dense())
print(f"\nrandom full sheaf (d=3): hermitian defect {rep.hermitian_defect:.2e}, "
      f"eigenvalues in [{rep.min_eig:+.2e}, {rep.max_eig:.6f}]")
assert rep.is_psd_at(1e-8) and rep.max_eig <= 1 + 1e-8

# the Dirichlet energy has two independent forms that must agree
rng = np.random.default_rng(0)
x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
energy = dirichlet_energy(H, sheaf, bundle, x)
print(f"Dirichlet energy: quadratic form {energy.quadratic_form:.6f}, "
      f"hyperedge sum {energy.sum_form:.6f}, gap {energy.relative_gap:.2e}")

# the full randomized check battery on one instance
check = verify_spectral_suite(H, sheaf)
print(f"spectral suite on this instance: {'all checks pass' if check.passed else check.failures}")
