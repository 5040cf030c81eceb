"""Truncated complex power series, 2x2 series matrices, branch-tracked
logarithms, and the complex log-gamma function.

All arithmetic is plain double precision.  A :class:`CSeries` of order K
stores the coefficients of ``z^0 .. z^(K-1)`` and every operation is exact
modulo ``z^K``; binary operations coerce both operands to the smaller of
the two orders.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


class DivisionByNonUnit(ArithmeticError):
    """Series division requires an invertible (nonzero) constant term."""


class PoleAtNonPositiveInteger(ArithmeticError):
    """log_gamma evaluated at a pole of the gamma function."""


class ZeroModulus(ArithmeticError):
    """Branch-tracked operation on the branch point itself."""


# ---------------------------------------------------------------------------
# scalar series


class CSeries:
    """Complex power series truncated at a fixed order.

    ``coeffs[l]`` is the coefficient of ``z^l``; terms with ``l >= order``
    are discarded by every operation.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
        if order is not None:
            if order < 1:
                raise ValueError("order must be >= 1")
            if len(c) < order:
                c = np.concatenate([c, np.zeros(order - len(c), dtype=complex)])
            else:
                c = c[:order].copy()
        self.coeffs = c
        self.coeffs.flags.writeable = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CSeries":
        return cls(np.zeros(order, dtype=complex))

    @classmethod
    def one(cls, order: int) -> "CSeries":
        c = np.zeros(order, dtype=complex)
        c[0] = 1.0
        return cls(c)

    @classmethod
    def variable(cls, order: int) -> "CSeries":
        c = np.zeros(order, dtype=complex)
        if order > 1:
            c[1] = 1.0
        return cls(c)

    @classmethod
    def constant(cls, value: complex, order: int) -> "CSeries":
        c = np.zeros(order, dtype=complex)
        c[0] = value
        return cls(c)

    # -- basics ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def trunc(self, order: int) -> "CSeries":
        return CSeries(self.coeffs, order)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        return f"CSeries({np.array2string(self.coeffs, precision=6)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return bool(np.array_equal(self.coeffs[:n], other.coeffs[:n]))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if len(self.coeffs) else 0.0

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "CSeries":
        if isinstance(other, CSeries):
            return other
        return CSeries.constant(complex(other), self.order)

    def __add__(self, other) -> "CSeries":
        b = self._coerce(other)
        n = min(self.order, b.order)
        return CSeries(self.coeffs[:n] + b.coeffs[:n])

    __radd__ = __add__

    def __sub__(self, other) -> "CSeries":
        b = self._coerce(other)
        n = min(self.order, b.order)
        return CSeries(self.coeffs[:n] - b.coeffs[:n])

    def __rsub__(self, other) -> "CSeries":
        return self._coerce(other) - self

    def __neg__(self) -> "CSeries":
        return CSeries(-self.coeffs)

    def __mul__(self, other) -> "CSeries":
        if isinstance(other, CSeries):
            n = min(self.order, other.order)
            return CSeries(np.convolve(self.coeffs[:n], other.coeffs[:n])[:n])
        return CSeries(self.coeffs * complex(other))

    __rmul__ = __mul__

    def reciprocal(self) -> "CSeries":
        """Multiplicative inverse modulo z^K; constant term must be nonzero."""
        b = self.coeffs
        if b[0] == 0:
            raise DivisionByNonUnit("series has no invertible constant term")
        n = self.order
        r = np.zeros(n, dtype=complex)
        r[0] = 1.0 / b[0]
        for l in range(1, n):
            r[l] = -np.dot(b[1 : l + 1], r[l - 1 :: -1][:l]) / b[0]
        return CSeries(r)

    def __truediv__(self, other) -> "CSeries":
        if isinstance(other, CSeries):
            return self * other.reciprocal()
        return CSeries(self.coeffs / complex(other))

    def __rtruediv__(self, other) -> "CSeries":
        return self._coerce(other) * self.reciprocal()

    def compose(self, inner: "CSeries") -> "CSeries":
        """self(inner(z)) modulo z^K; inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("compose requires inner.coeffs[0] == 0")
        n = min(self.order, inner.order)
        g = inner.trunc(n)
        acc = CSeries.constant(self.coeffs[n - 1], n)
        for l in range(n - 2, -1, -1):
            acc = acc * g + self.coeffs[l]
        return acc

    def affine_substitute(self, shift: complex, scale: complex) -> "CSeries":
        """Re-expand around a new origin: returns f(shift + scale*x).

        Exact for polynomial data of degree < order; for genuinely
        truncated series the discarded tail contaminates all coefficients
        by O(sum of tail at the new center).
        """
        return CSeries(pascal_shift(self.coeffs, shift, scale))

    # -- calculus ----------------------------------------------------------

    def deriv(self) -> "CSeries":
        n = self.order
        c = np.zeros(n, dtype=complex)
        if n > 1:
            c[: n - 1] = self.coeffs[1:] * np.arange(1, n)
        return CSeries(c)

    def exp(self) -> "CSeries":
        """Series exponential; works for any constant term."""
        n = self.order
        g = self.coeffs
        e = np.zeros(n, dtype=complex)
        e[0] = cmath.exp(g[0])
        # e' = g' e  =>  (l+1) e_{l+1} = sum_{j=0..l} (j+1) g_{j+1} e_{l-j}
        for l in range(n - 1):
            j = np.arange(0, l + 1)
            e[l + 1] = np.dot((j + 1) * g[j + 1], e[l - j]) / (l + 1)
        return CSeries(e)

    def eval(self, z):
        """Horner evaluation at a point or ndarray of points."""
        acc = self.coeffs[-1] * (np.ones_like(z) if isinstance(z, np.ndarray) else 1.0)
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc

    def divmod_quadratic(self, h0: complex, h1: complex):
        """Polynomial division by the monic quadratic z^2 + h1 z + h0.

        Treats the truncated series as a polynomial of degree order-1 and
        divides from the top coefficient down, which is numerically stable
        when the roots of h lie inside the unit disc.  Returns
        (quotient: CSeries of the same order, (rem0, rem1)).
        """
        n = self.order
        c = self.coeffs
        q = np.zeros(n, dtype=complex)
        for j in range(n - 3, -1, -1):
            q[j] = c[j + 2] - h1 * q[j + 1] - (h0 * q[j + 2] if j + 2 < n else 0.0)
        r1 = c[1] - h1 * q[0] - (h0 * q[1] if n > 1 else 0.0)
        r0 = c[0] - h0 * q[0]
        return CSeries(q), (r0, r1)


# ---------------------------------------------------------------------------
# 2x2 matrices of series


def binomials(n: int) -> np.ndarray:
    """C(j, k) at [k, j] for j, k < n (zero for k > j)."""
    return np.array([[math.comb(j, k) for j in range(n)] for k in range(n)], dtype=float)


def trim(coeffs: np.ndarray) -> np.ndarray:
    """The leading part of ``coeffs`` up to its last nonzero entry along
    axis 0 (at least one entry)."""
    nonzero = np.flatnonzero(coeffs.reshape(len(coeffs), -1).any(axis=1))
    return coeffs[:nonzero[-1] + 1 if nonzero.size else 1]


def pascal_shift(coeffs: np.ndarray, shift: complex, scale: complex = 1.0,
                 binom: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of f(shift + scale*x) from those of f along axis 0.

    The x^k coefficient is scale^k sum_j C(j, k) shift^(j-k) c_j, one
    matrix product with the Pascal matrix of the polynomial part (the
    zeros past the last nonzero coefficient stay zero, and the binomials
    stay finite doubles while that part has degree < 1000); ``binom`` is
    ``binomials(n)``, n >= its length, when the caller keeps it.
    """
    c = trim(coeffs)
    n = len(c)
    k = np.arange(n)
    binom = binomials(n) if binom is None else binom[:n, :n]
    pascal = binom * (complex(shift) ** k)[np.clip(k - k[:, None], 0, None)]
    pascal *= (complex(scale) ** k)[:, None]
    out = np.zeros(coeffs.shape, dtype=complex)
    out[:n] = (pascal @ c.reshape(n, -1)).reshape(c.shape)
    return out


class CSeriesMat2:
    """2x2 matrix of series sharing one truncation order K.

    ``coeffs`` has shape (K, 2, 2): ``coeffs[l]`` is the matrix coefficient
    of ``z^l``.  Binary operations truncate both operands to the smaller
    order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, a11: CSeries, a12: CSeries, a21: CSeries, a22: CSeries):
        order = min(a11.order, a12.order, a21.order, a22.order)
        c = np.array([e.coeffs[:order] for e in (a11, a12, a21, a22)])
        self.coeffs = c.T.reshape(order, 2, 2)
        self.coeffs.flags.writeable = False

    @classmethod
    def from_coeffs(cls, coeffs) -> "CSeriesMat2":
        """Wrap a copy of a (K, 2, 2) coefficient stack, K >= 1."""
        c = np.array(coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[1:] != (2, 2) or len(c) < 1:
            raise ValueError(f"need a (K, 2, 2) coefficient stack, got shape {c.shape}")
        m = cls.__new__(cls)
        m.coeffs = c
        c.flags.writeable = False
        return m

    @classmethod
    def from_rows(cls, rows, order: int) -> "CSeriesMat2":
        """rows: 2x2 nested structure of coefficient lists / CSeries / scalars."""
        (r11, r12), (r21, r22) = rows
        return cls(*(CSeries(e.coeffs if isinstance(e, CSeries) else e, order)
                     for e in (r11, r12, r21, r22)))

    @classmethod
    def identity(cls, order: int) -> "CSeriesMat2":
        c = np.zeros((order, 2, 2), dtype=complex)
        c[0] = np.eye(2)
        return cls.from_coeffs(c)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "CSeriesMat2") -> "CSeriesMat2":
        n = min(self.order, other.order)
        return CSeriesMat2.from_coeffs(self.coeffs[:n] + other.coeffs[:n])

    def __sub__(self, other) -> "CSeriesMat2":
        """Difference with a series matrix, or with ``other * I`` for a CSeries."""
        n = min(self.order, other.order)
        if isinstance(other, CSeries):
            c = self.coeffs[:n].copy()
            c[:, 0, 0] -= other.coeffs[:n]
            c[:, 1, 1] -= other.coeffs[:n]
            return CSeriesMat2.from_coeffs(c)
        return CSeriesMat2.from_coeffs(self.coeffs[:n] - other.coeffs[:n])

    def __neg__(self) -> "CSeriesMat2":
        return CSeriesMat2.from_coeffs(-self.coeffs)

    def __matmul__(self, other: "CSeriesMat2") -> "CSeriesMat2":
        n = min(self.order, other.order)
        a, b = self.coeffs[:n], other.coeffs[:n]
        c = np.empty((n, 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                c[:, i, j] = (np.convolve(a[:, i, 0], b[:, 0, j])[:n]
                              + np.convolve(a[:, i, 1], b[:, 1, j])[:n])
        return CSeriesMat2.from_coeffs(c)

    def scale(self, f) -> "CSeriesMat2":
        """Multiply every entry by a scalar or a CSeries."""
        if not isinstance(f, CSeries):
            return CSeriesMat2.from_coeffs(self.coeffs * complex(f))
        n = min(self.order, f.order)
        c = np.empty((n, 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                c[:, i, j] = np.convolve(self.coeffs[:n, i, j], f.coeffs[:n])[:n]
        return CSeriesMat2.from_coeffs(c)

    def det(self) -> CSeries:
        c, n = self.coeffs, self.order
        return CSeries(np.convolve(c[:, 0, 0], c[:, 1, 1])[:n]
                       - np.convolve(c[:, 0, 1], c[:, 1, 0])[:n])

    def trace(self) -> CSeries:
        return CSeries(self.coeffs[:, 0, 0] + self.coeffs[:, 1, 1])

    def inverse(self) -> "CSeriesMat2":
        c = self.coeffs
        adj = np.stack([c[:, 1, 1], -c[:, 0, 1], -c[:, 1, 0], c[:, 0, 0]], axis=1)
        return CSeriesMat2.from_coeffs(adj.reshape(-1, 2, 2)).scale(self.det().reciprocal())

    def deriv(self) -> "CSeriesMat2":
        c = np.zeros_like(self.coeffs)
        c[:-1] = self.coeffs[1:] * np.arange(1, self.order)[:, None, None]
        return CSeriesMat2.from_coeffs(c)

    def eval(self, z) -> np.ndarray:
        """Horner evaluation at a point or ndarray of points; shape (..., 2, 2)."""
        z = np.asarray(z)[..., None, None]
        acc = self.coeffs[-1] * np.ones_like(z)
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def affine_substitute(self, shift: complex, scale: complex) -> "CSeriesMat2":
        """Entrywise re-expansion f(shift + scale*x), as CSeries.affine_substitute."""
        return CSeriesMat2.from_coeffs(pascal_shift(self.coeffs, shift, scale))


# ---------------------------------------------------------------------------
# branch-tracked logarithm representation


@dataclass(frozen=True)
class BranchedLog:
    """A nonzero complex number with an unconstrained argument.

    ``arg`` is not reduced modulo 2*pi, which is what encodes the sheet of
    a ramified quantity.  ``project()`` recovers the underlying complex
    number.
    """

    modulus: float
    arg: float

    @classmethod
    def from_complex(cls, w: complex, turns: int = 0) -> "BranchedLog":
        w = complex(w)
        return cls(abs(w), cmath.phase(w) + 2.0 * math.pi * turns)

    def project(self) -> complex:
        return self.modulus * cmath.exp(1j * self.arg)

    def shifted(self, delta_arg: float) -> "BranchedLog":
        return BranchedLog(self.modulus, self.arg + delta_arg)

    def sqrt(self) -> "BranchedLog":
        return ramified_sqrt(self)

    def log(self) -> complex:
        if self.modulus == 0.0:
            raise ZeroModulus("log of the branch point")
        return complex(math.log(self.modulus), self.arg)


def ramified_sqrt(x: BranchedLog) -> BranchedLog:
    """Sheet-tracking square root: halves the argument.

    For arg = 0 and positive modulus this is the standard square root; an
    argument of 2*pi projects onto the negative root.
    """
    if x.modulus == 0.0:
        raise ZeroModulus("square root at the branch point")
    return BranchedLog(math.sqrt(x.modulus), 0.5 * x.arg)


# ---------------------------------------------------------------------------
# log-gamma (Lanczos, g = 607/128, 15 terms, plus reflection)

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _log_gamma_right(z: complex) -> complex:
    """Lanczos approximation, valid for Re z >= 0.5."""
    zm1 = z - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(s)


def _log_sin_pi_upper(z: complex) -> complex:
    """Branch of log sin(pi z) that is continuous for Im z > 0 and agrees
    with the real logarithm on (0, 1)."""
    # sin(pi z) = -e^{-i pi z} (1 - e^{2 pi i z}) / (2i);  |e^{2 pi i z}| < 1
    return (-math.log(2.0) + 1j * math.pi * (0.5 - z)
            + cmath.log(1.0 - cmath.exp(2j * math.pi * z)))


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Lanczos approximation with reflection for Re z < 0.5.  Relative error
    is below 1e-12 for |z| <= 100 (and improves for larger |z|).  Raises
    :class:`PoleAtNonPositiveInteger` at the poles z = 0, -1, -2, ...
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and abs(z.real - round(z.real)) < 1e-12:
        raise PoleAtNonPositiveInteger(f"gamma pole at z = {z}")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if z.real >= 0.5:
        return _log_gamma_right(z)
    # reflection: log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z),
    # with the log sin branch chosen to keep the principal determination
    return _LOG_PI - _log_sin_pi_upper(z) - _log_gamma_right(1.0 - z)


def gamma_fn(z: complex) -> complex:
    """Gamma(z) via exp(log_gamma); convenience for identity tests."""
    return cmath.exp(log_gamma(z))
