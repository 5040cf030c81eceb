"""Parametric systems h(z) d/dz - A(z), gauge transformations, and the
genericity test for unfolding bases.

A system lives at a single evaluated parameter point: family behaviour is
exercised by mapping over explicit parameter grids.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

import numpy as np

from .algebra import CSeries, CSeriesMat2


class SingularGauge(ValueError):
    """Gauge matrix with non-invertible constant term."""


class NotAnUnfoldingBase(ValueError):
    """System at parameter 0 is not a resonant Jordan-type unfolding base."""


@dataclass(frozen=True)
class ParametricSystem:
    """The operator h(z) d/dz - A(z) with h(z) = z^2 + h1 z + h0 monic."""

    h0: complex
    h1: complex
    A: CSeriesMat2

    @property
    def order(self) -> int:
        return self.A.order

    def h_series(self, order: int | None = None) -> CSeries:
        return CSeries([self.h0, self.h1, 1.0], order or self.order)

    def h_at(self, z):
        return (z + self.h1) * z + self.h0

    def h_roots(self) -> tuple[complex, complex]:
        d = cmath.sqrt(self.h1 * self.h1 - 4.0 * self.h0)
        return (-self.h1 + d) / 2.0, (-self.h1 - d) / 2.0

    # -- JSON descriptor ----------------------------------------------------

    def to_descriptor(self) -> dict:
        def ser(s: CSeries):
            return [[c.real, c.imag] for c in s.coeffs]

        return {
            "schema_version": 1,
            "order": self.order,
            "h": [self.h0.real, self.h0.imag, self.h1.real, self.h1.imag],
            "A": [[ser(self.A.a11), ser(self.A.a12)],
                  [ser(self.A.a21), ser(self.A.a22)]],
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> "ParametricSystem":
        """Parse a descriptor; ValueError unless ``order >= 2`` and every
        coefficient of h and A is finite."""
        try:
            order = int(d["order"])
            if order < 2:
                raise ValueError(f"order must be >= 2, got {order}")
            h = d["h"]
            h0 = complex(h[0], h[1])
            h1 = complex(h[2], h[3])
            rows = d["A"]

            def des(entry):
                return CSeries([complex(re, im) for re, im in entry], order)

            A = CSeriesMat2(des(rows[0][0]), des(rows[0][1]),
                            des(rows[1][0]), des(rows[1][1]))
            coeffs = [h0, h1, *(c for row in A.entries() for e in row for c in e.coeffs)]
            if not all(cmath.isfinite(c) for c in coeffs):
                raise ValueError("h and A must have finite coefficients")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValueError(f"bad system descriptor: {exc}") from exc
        return cls(h0, h1, A)

    @classmethod
    def load(cls, path) -> "ParametricSystem":
        with open(path) as fh:
            return cls.from_descriptor(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_descriptor(), fh, indent=1)


@dataclass(frozen=True)
class GaugeTransform:
    """Invertible series matrix T(z); det T(0) must be nonzero."""

    T: CSeriesMat2

    def __post_init__(self):
        d = self.T.det().coeffs[0]
        t0 = self.T.constant_term()
        if abs(d) <= 1e-12 * max(1.0, float(np.max(np.abs(t0))) ** 2):
            raise SingularGauge("det T(0) == 0")

    @classmethod
    def from_rows(cls, rows, order: int) -> "GaugeTransform":
        return cls(CSeriesMat2.from_rows(rows, order))

    @classmethod
    def identity(cls, order: int) -> "GaugeTransform":
        return cls(CSeriesMat2.identity(order))

    def compose(self, other: "GaugeTransform") -> "GaugeTransform":
        return GaugeTransform(self.T @ other.T)

    def inverse(self) -> "GaugeTransform":
        return GaugeTransform(self.T.inverse())


def gauge_apply(T: GaugeTransform, system: ParametricSystem) -> ParametricSystem:
    """Transformed system with A' = T^{-1} A T - h T^{-1} T'.

    h is untouched.  Satisfies the composition law
    gauge_apply(T2, gauge_apply(T1, s)) == gauge_apply(T1 @ T2, s) mod z^K.
    """
    order = min(T.T.order, system.order)
    t = CSeriesMat2(*(e.trunc(order) for row in T.T.entries() for e in row))
    tinv = t.inverse()
    h = system.h_series(order)
    a = CSeriesMat2(*(e.trunc(order) for row in system.A.entries() for e in row))
    a_new = (tinv @ a @ t) - (tinv @ t.deriv()).scale(h)
    return ParametricSystem(system.h0, system.h1, a_new)


def genericity_check(system: ParametricSystem, tol: float = 1e-8):
    """Slope test at an unfolding base (parameter 0).

    Requires h = z^2 and A(0) similar to a resonant Jordan block; returns
    ``(is_generic, slope)`` where slope = -d/dz det(A(z) - lambda0 I) at
    z = 0 and genericity means ``|slope| > tol``.
    """
    if abs(system.h0) > 1e-10 or abs(system.h1) > 1e-10:
        raise NotAnUnfoldingBase("h must equal z^2 at the base parameter")
    a0 = system.A.constant_term()
    lam0 = (a0[0, 0] + a0[1, 1]) / 2.0
    scale = max(1.0, float(np.max(np.abs(a0))))
    disc = (a0[0, 0] - a0[1, 1]) ** 2 + 4.0 * a0[0, 1] * a0[1, 0]
    if abs(disc) > 1e-8 * scale * scale:
        raise NotAnUnfoldingBase("A(0) must have a double eigenvalue")
    if float(np.max(np.abs(a0 - lam0 * np.eye(2)))) <= 1e-12 * scale:
        raise NotAnUnfoldingBase("A(0) must not be scalar")
    lam_series = CSeries.constant(lam0, system.order)
    shifted = CSeriesMat2(system.A.a11 - lam_series, system.A.a12,
                          system.A.a21, system.A.a22 - lam_series)
    d = shifted.det()
    slope = -d.coeffs[1] if d.order > 1 else 0.0
    return bool(abs(slope) > tol), slope
