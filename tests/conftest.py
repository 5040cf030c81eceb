import cmath

import numpy as np
import pytest

from resunfold.algebra import CSeries, CSeriesMat2
from resunfold.system import GaugeTransform, ParametricSystem


def model_system(mu, eps, order=24):
    """(x^2 - eps) d/dx - [[0, 1], [mu + x, 0]]."""
    A = CSeriesMat2(CSeries.zero(order), CSeries.one(order),
                    CSeries([mu, 1.0], order), CSeries.zero(order))
    return ParametricSystem(-eps, 0.0, A)


def random_series(rng, scale, degree, order=24):
    c = scale * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    return CSeries(c, order)


def random_system(rng, order=24, coeff_scale=0.3, root_scale=0.2):
    """Random system with h-roots inside |z| < root_scale."""
    roots = root_scale * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) * 0.7
    h1 = -(roots[0] + roots[1])
    h0 = roots[0] * roots[1]
    A = CSeriesMat2(*(random_series(rng, coeff_scale, 4, order) for _ in range(4)))
    return ParametricSystem(h0, h1, A)


def random_gauge(rng, scale=0.05, degree=3, order=24, lower_triangular=False):
    one = CSeries.one(order)
    if lower_triangular:
        rows = [[one * (1.0 + scale * rng.standard_normal()), CSeries.zero(order)],
                [random_series(rng, scale, degree, order),
                 one + random_series(rng, scale, degree, order)]]
    else:
        rows = [[one + random_series(rng, scale, degree, order),
                 random_series(rng, scale, degree, order)],
                [random_series(rng, scale, degree, order),
                 one + random_series(rng, scale, degree, order)]]
    return GaugeTransform.from_rows(rows, order)


def stability_sweep(mu_path, eps: complex) -> np.ndarray:
    """Re(sqrt(eps)/s2) along a mu path with s2 continued, not principal.

    Principal square roots jump sheets exactly on the sigma_I ray, which
    would mask the stability flip; here each s2 is the root closest to the
    previous one.  This follows s2 in floating point, which the library's
    sheet bookkeeping never does, so it lives with the tests.
    """
    se = cmath.sqrt(eps)
    out = np.empty(len(mu_path), dtype=float)
    s2_prev = None
    for k, mu in enumerate(mu_path):
        s2 = cmath.sqrt(complex(mu) - se)
        if s2_prev is not None and abs(-s2 - s2_prev) < abs(s2 - s2_prev):
            s2 = -s2
        out[k] = (se / s2).real
        s2_prev = s2
    return out


def mat_diff(a: CSeriesMat2, b: CSeriesMat2) -> float:
    return (a - b).max_abs()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
