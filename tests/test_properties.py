"""Property tests over random systems and gauges (hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from resunfold.algebra import CSeries, CSeriesMat2  # noqa: E402
from resunfold.invariants import extract_formal  # noqa: E402
from resunfold.monodromy import gamma_numeric  # noqa: E402
from resunfold.system import GaugeTransform, ParametricSystem, gauge_apply  # noqa: E402

K = 24


def unit_disc(radius):
    return st.complex_numbers(max_magnitude=radius, allow_nan=False, allow_infinity=False)


def polys(count, degree, radius):
    """``count`` coefficient lists of length degree + 1 in |c| <= radius."""
    poly = st.lists(unit_disc(radius), min_size=degree + 1, max_size=degree + 1)
    return st.lists(poly, min_size=count, max_size=count)


@settings(max_examples=25, deadline=None, database=None)
@given(a=polys(4, 4, 0.25), roots=st.lists(unit_disc(0.1), min_size=2, max_size=2),
       t=polys(4, 3, 0.03))
def test_gauge_invariance_of_invariants(a, roots, t):
    """(h, lambda, alpha, gamma) of a degree-4 system and of its image under
    a degree-3 gauge near the identity agree."""
    r1, r2 = roots
    system = ParametricSystem(r1 * r2, -(r1 + r2), CSeriesMat2(*(CSeries(c, K) for c in a)))
    one = CSeries.one(K)
    t11, t12, t21, t22 = (CSeries(c, K) for c in t)
    T = GaugeTransform.from_rows([[one + t11, t12], [t21, one + t22]], K)
    image = gauge_apply(T, system)

    Fa, Fb = extract_formal(system), extract_formal(image)
    assert max(Fa.gaps(Fb).values()) < 1e-12
    ga = gamma_numeric(system, Fa, tol=1e-9, validity_radius=1.0)
    gb = gamma_numeric(image, Fb, tol=1e-9, validity_radius=1.0)
    assert abs(ga.gamma - gb.gamma) <= ga.est_error + gb.est_error + 1e-12 * max(1.0, abs(ga.gamma))
