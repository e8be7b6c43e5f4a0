"""Central finite differences against a tape's analytic gradients: the oracle of the gradient tests,
with the scalar loss they differentiate."""

import numpy as np

from hypersheaf import autodiff as ad


def parts_loss(y: ad.Tensor, w_re, w_im, *, square_imag: bool = False) -> ad.Tensor:
    """``sum(w_re Re y) + sum(w_im Im y)``, with ``(Im y)^2`` for ``square_imag``, as one scalar
    tape node; its backward hands ``y`` the tape's gradient ``dL/dRe y + i dL/dIm y``."""
    re, im = y.value.real, y.value.imag
    value = np.sum(w_re * re) + np.sum(w_im * (im * im if square_imag else im))
    slope = np.broadcast_to(w_re + 1j * (w_im * (2.0 * im if square_imag else 1.0)), y.shape)

    def backward(g):
        y.accumulate(g * slope)

    return ad.record(y.tape, np.asarray(value), (y,), backward)


def finite_difference_check(
    build_loss,
    params: dict[str, np.ndarray],
    *,
    n_probes: int = 32,
    step: float = 1e-4,
    rng: np.random.Generator | None = None,
    rel_tol: float = 1e-4,
    abs_floor: float = 1e-8,
) -> dict[str, float]:
    """Compare analytic gradients with central finite differences.

    ``build_loss(params) -> (loss_value, grads_dict)`` must be deterministic.
    Probes ``n_probes`` random coordinates per parameter array and returns
    the worst relative error per parameter name; raises ``AssertionError``
    on any probe beyond ``rel_tol`` (with an ``abs_floor`` for vanishing
    gradients).
    """
    rng = rng or np.random.default_rng(0)
    _, grads = build_loss(params)
    worst: dict[str, float] = {}
    for name, array in params.items():
        an = grads[name]
        flat = array.reshape(-1)
        n = min(n_probes, flat.size)
        coords = rng.choice(flat.size, size=n, replace=False)
        worst[name] = 0.0
        for c in coords:
            an_c = an.reshape(-1)[c]
            # a rectifier kink inside the probe window breaks the central
            # difference; shrinking the step moves the window off the kink,
            # while a genuinely wrong gradient fails at every step
            best_rel, best_err, fd = np.inf, np.inf, np.nan
            for h in (step, step / 8.0, step / 64.0):
                orig = flat[c]
                flat[c] = orig + h
                up, _ = build_loss(params)
                flat[c] = orig - h
                down, _ = build_loss(params)
                flat[c] = orig
                fd = (up - down) / (2.0 * h)
                err = abs(fd - an_c)
                denom = max(abs(fd), abs(an_c))
                rel = err / denom if denom > 0 else 0.0
                if err <= abs_floor or rel <= rel_tol:
                    best_rel, best_err = (0.0 if err <= abs_floor else rel), err
                    break
                if rel < best_rel:
                    best_rel, best_err = rel, err
            worst[name] = max(worst[name], best_rel)
            if best_err > abs_floor and best_rel > rel_tol:
                raise AssertionError(
                    f"gradient mismatch at {name}[{c}]: analytic {an_c:.6e} vs "
                    f"finite difference {fd:.6e} (rel {best_rel:.3e})"
                )
    return worst
