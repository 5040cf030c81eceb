"""Parametric systems h(z) d/dz - A(z), gauge transformations, and the
JSON descriptor format.

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


class BadDescriptor(ValueError):
    """A system descriptor that cannot be read or fails validation."""


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
        c = self.A.coeffs
        return {
            "schema_version": 1,
            "order": self.order,
            "h": [self.h0.real, self.h0.imag, self.h1.real, self.h1.imag],
            "A": np.stack([c.real, c.imag], axis=-1).transpose(1, 2, 0, 3).tolist(),
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> "ParametricSystem":
        """Parse a descriptor; BadDescriptor unless ``order >= 2``, the four
        entries of A are coefficient lists of one length, and every
        coefficient of h and A is finite."""
        try:
            order = int(d["order"])
            if order < 2:
                raise ValueError(f"order must be >= 2, got {order}")
            h = d["h"]
            h0 = complex(h[0], h[1])
            h1 = complex(h[2], h[3])
            a = np.array(d["A"], dtype=float)
            if a.ndim != 4 or a.shape[:2] != (2, 2) or a.shape[3] != 2:
                raise ValueError(f"A must have shape (2, 2, n, 2), got {a.shape}")
            coeffs = np.zeros((order, 2, 2), dtype=complex)
            n = min(order, a.shape[2])
            coeffs[:n] = (a[..., 0] + 1j * a[..., 1]).transpose(2, 0, 1)[:n]
            if not (cmath.isfinite(h0) and cmath.isfinite(h1) and np.isfinite(coeffs).all()):
                raise ValueError("h and A must have finite coefficients")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BadDescriptor(f"bad system descriptor: {exc}") from exc
        return cls(h0, h1, CSeriesMat2.from_coeffs(coeffs))

    @classmethod
    def load(cls, path) -> "ParametricSystem":
        """Read a descriptor file; BadDescriptor when it cannot be read or parsed."""
        try:
            with open(path) as fh:
                d = json.load(fh)
        except (OSError, ValueError) as exc:
            raise BadDescriptor(f"bad system descriptor: {exc}") from exc
        return cls.from_descriptor(d)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_descriptor(), fh, indent=1)


@dataclass(frozen=True)
class GaugeTransform:
    """Invertible series matrix T(z); det T(0) must be nonzero."""

    T: CSeriesMat2

    def __post_init__(self):
        d = self.T.det().coeffs[0]
        t0 = self.T.coeffs[0]
        if abs(d) <= 1e-12 * max(1.0, float(np.max(np.abs(t0))) ** 2):
            raise SingularGauge("det T(0) == 0")

    @classmethod
    def from_rows(cls, rows, order: int) -> "GaugeTransform":
        return cls(CSeriesMat2.from_rows(rows, order))

    @classmethod
    def identity(cls, order: int) -> "GaugeTransform":
        return cls(CSeriesMat2.identity(order))


def gauge_apply(T: GaugeTransform, system: ParametricSystem) -> ParametricSystem:
    """Transformed system with A' = T^{-1} A T - h T^{-1} T'.

    h is untouched.  Satisfies the composition law
    gauge_apply(T2, gauge_apply(T1, s)) == gauge_apply(T1 @ T2, s) mod z^K.
    """
    order = min(T.T.order, system.order)
    t = CSeriesMat2.from_coeffs(T.T.coeffs[:order])
    tinv = t.inverse()
    h = system.h_series(order)
    a_new = (tinv @ system.A @ t) - (tinv @ t.deriv()).scale(h)
    return ParametricSystem(system.h0, system.h1, a_new)

