import pytest

from conftest import mat_diff, model_system, random_gauge, random_system
from resunfold.algebra import CSeries, CSeriesMat2
from resunfold.invariants import NonGeneric, extract_formal
from resunfold.system import (
    GaugeTransform,
    ParametricSystem,
    SingularGauge,
    gauge_apply,
)


def test_identity_gauge_is_noop(rng):
    s = random_system(rng)
    out = gauge_apply(GaugeTransform.identity(s.order), s)
    assert mat_diff(out.A, s.A) < 1e-14


def test_constant_scalar_gauge_is_noop(rng):
    s = random_system(rng)
    c = 2.0 - 0.7j
    T = GaugeTransform.from_rows([[[c], [0]], [[0], [c]]], s.order)
    out = gauge_apply(T, s)
    assert mat_diff(out.A, s.A) < 1e-13


def test_gauge_roundtrip(rng):
    s = random_system(rng, coeff_scale=0.2)
    T = random_gauge(rng, scale=0.03)
    back = gauge_apply(GaugeTransform(T.T.inverse()), gauge_apply(T, s))
    assert mat_diff(back.A, s.A) < 1e-10


def test_gauge_composition_law(rng):
    s = random_system(rng)
    T1 = random_gauge(rng, scale=0.05)
    T2 = random_gauge(rng, scale=0.05)
    lhs = gauge_apply(T2, gauge_apply(T1, s))
    rhs = gauge_apply(GaugeTransform(T1.T @ T2.T), s)
    assert mat_diff(lhs.A, rhs.A) < 1e-11


def test_gauge_preserves_h(rng):
    s = random_system(rng)
    out = gauge_apply(random_gauge(rng), s)
    assert out.h0 == s.h0 and out.h1 == s.h1


def test_singular_gauge_rejected():
    with pytest.raises(SingularGauge):
        GaugeTransform.from_rows([[[1], [1]], [[1], [1]]], 8)


# at an unfolding base (h = z^2) alpha1 is the slope -d/dz det(A - lambda0 I)
# at z = 0, and genericity asks it to be nonzero


def test_genericity_model():
    F = extract_formal(model_system(0.0, 0.0))
    F.require_generic()
    assert abs(F.alpha1 - 1.0) < 1e-14


def test_genericity_constant_jordan_nongeneric():
    K = 16
    A = CSeriesMat2(CSeries.zero(K), CSeries.one(K),
                    CSeries.zero(K), CSeries.zero(K))
    F = extract_formal(ParametricSystem(0.0, 0.0, A))
    assert abs(F.alpha1) < 1e-14
    with pytest.raises(NonGeneric):
        F.require_generic()


def test_genericity_slope_value(rng):
    for _ in range(10):
        c = complex(rng.standard_normal(), rng.standard_normal())
        K = 16
        A = CSeriesMat2(CSeries.zero(K), CSeries.one(K),
                        CSeries([0.0, c], K), CSeries.zero(K))
        F = extract_formal(ParametricSystem(0.0, 0.0, A))
        assert abs(F.alpha1 - c) < 1e-13
        F.require_generic()


def test_descriptor_roundtrip(tmp_path, rng):
    s = random_system(rng)
    path = tmp_path / "sys.json"
    s.save(path)
    back = ParametricSystem.load(path)
    assert back.h0 == s.h0 and back.h1 == s.h1
    assert mat_diff(back.A, s.A) == 0.0


def test_descriptor_rejects_garbage(tmp_path):
    with pytest.raises(ValueError):
        ParametricSystem.from_descriptor({"order": 4, "h": [0, 0]})
