"""Legendre special functions for sphere eigenmodes.

Provides the Legendre polynomials P_k, their exact values at the origin,
the fully normalized associated functions N_l^k (so that
u = N_l^k(cos theta) e^{i k phi} is L2-normalized on the unit sphere),
the oscillatory main term of the large-degree asymptotics away from the
poles, and the turning colatitudes bounding the classically allowed
band of a mode with angular momentum k.

N_l^k is evaluated by the normalized three-term recurrence in the degree
at fixed order, with mantissa/exponent rescaling so that the
exponentially small forbidden-region values stay representable without
overflow on the sectoral seed (tested up to l = 6400). The coefficients
are precomputed per call, and the rescale test runs only every m steps,
with m derived from the worst-case growth of one step; since scaling by
a power of two is exact, the result is bit-identical to testing after
every step. Everything here needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, fsum, log, log2
from typing import Optional

import numpy as np

__all__ = [
    "HarmonicIndex",
    "legendre_P",
    "legendre_P0",
    "assoc_legendre_norm",
    "szego_main_term",
    "turning_points",
]

_LOG4PI = np.log(4.0 * np.pi)
_LN2 = np.log(2.0)
# rescaling threshold for the normalized recurrence
_BIG = 2.0**512
_BIGI = 2.0**-512


@dataclass(frozen=True)
class HarmonicIndex:
    """Sphere mode u = N_l^k(t) e^{i k phi}: degree l, order k, and h.

    The eigenvalue of the mode is l(l+1) and h = 1/sqrt(l(l+1)), so the
    first quantum energy h^2 l(l+1) is exactly 1. h is None for l = 0.
    It offers k, h, eigenvalue and value(t, phi), as an eigensolved
    JointEigenfunction does.
    """

    l: int
    k: int

    def __post_init__(self):
        if self.l < 0 or not 0 <= self.k <= self.l:
            raise ValueError(f"need 0 <= k <= l, got l={self.l} k={self.k}")

    @property
    def h(self) -> Optional[float]:
        if self.l == 0:
            return None
        return 1.0 / np.sqrt(self.l * (self.l + 1.0))

    @property
    def eigenvalue(self) -> float:
        return float(self.l * (self.l + 1))

    def value(self, t, phi):
        """u(t, phi), complex; vectorized over broadcastable inputs."""
        return assoc_legendre_norm(self.l, self.k, t) * np.exp(1j * self.k * np.asarray(phi))


def legendre_P(k: int, x):
    """Legendre polynomial P_k by the ascending three-term recurrence.

    (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}; vectorized in x, |x| <= 1.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValueError("legendre_P requires |x| <= 1")
    if k == 0:
        return np.ones_like(x)
    prev = np.ones_like(x)
    cur = x.copy()
    for j in range(1, k):
        prev, cur = cur, ((2.0 * j + 1.0) * x * cur - j * prev) / (j + 1.0)
    return cur


def _log_central_binomial(m: int) -> float:
    """log(C(2m, m) / 4^m), the sum of log(1 - 1/(2j)) over j = 1..m.

    C(2m, m) / 4^m = prod_{j<=m} (2j-1)/(2j). Every term of the sum is
    negative, so nothing cancels, and fsum rounds the sum once: the
    result is within 6e-16 absolute for m <= 4000, where the log-gamma
    form lgamma(2m+1) - 2 lgamma(m+1) - 2m log 2 subtracts numbers of
    size m log m and loses ~1e-11.
    """
    return fsum(np.log1p(-0.5 / np.arange(1.0, m + 1.0)).tolist())


def legendre_P0(k: int) -> float:
    """Exact P_k(0): zero for odd k, (-1)^{k/2} (k-1)!!/k!! for even k.

    The double-factorial ratio is C(k, k/2) / 2^k, computed in log space
    so large k does not overflow.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k % 2 == 1:
        return 0.0
    sign = -1.0 if (k // 2) % 2 else 1.0
    return sign * exp(_log_central_binomial(k // 2))


def _sectoral_seed(k: int, x: np.ndarray):
    """N_k^k(x) as a mantissa and an int64 exponent of 2.

    N_k^k = sqrt((2k+1) C(2k, k) / (4^k 4 pi)) (1-x^2)^{k/2}, summed in
    log space; it is zero at |x| = 1 for k > 0 and constant for k = 0.
    """
    logseed = np.full_like(x, 0.5 * (log(2 * k + 1) + _log_central_binomial(k) - _LOG4PI))
    if k > 0:
        with np.errstate(divide="ignore"):
            logseed += 0.5 * k * np.log1p(-np.minimum(x * x, 1.0))
    finite = np.isfinite(logseed)
    e = np.where(finite, np.floor(logseed / _LN2), 0.0).astype(np.int64)
    mant = np.where(finite, np.exp(logseed - e * _LN2), 0.0)
    return mant, e


def _raise_degree(l: int, k: int, x: np.ndarray, cur: np.ndarray, e: np.ndarray):
    """N_l^k(x) from the seed N_k^k(x) = ldexp(cur, e).

    See assoc_legendre_norm for the recurrence and the rescale interval.
    """
    n = l - k
    if n == 0:
        return np.ldexp(cur, e)
    j = np.arange(k + 1.0, l + 1.0)
    a = np.sqrt((4.0 * j * j - 1.0) / (j * j - k * k))
    b = -np.sqrt((2.0 * j + 1.0) / (2.0 * j - 3.0) * ((j - 1.0) ** 2 - k * k) / (j * j - k * k))
    m = int(200.0 / log2(a[0] + 2.0))
    a, b = a.tolist(), b.tolist()

    def rescale():
        peak = np.maximum(np.abs(cur), np.abs(prev))
        shift = np.where(peak > _BIG, 512, 0) - np.where((peak < _BIGI) & (peak > 0.0), 512, 0)
        if shift.any():
            np.ldexp(cur, -shift, out=cur)
            np.ldexp(prev, -shift, out=prev)
            np.add(e, shift, out=e)

    # the first step has no N_{k-1} term
    prev, cur, e = cur.copy(), a[0] * x * cur, e.copy()
    new, bp = np.empty_like(cur), np.empty_like(cur)
    for s in range(1, n):
        np.multiply(x, a[s], out=new)
        new *= cur
        np.multiply(prev, b[s], out=bp)
        new += bp
        prev, cur, new = cur, new, prev
        if (s + 1) % m == 0:
            rescale()
    rescale()
    return np.ldexp(cur, e)


def assoc_legendre_norm(l: int, k: int, x):
    """Fully normalized associated Legendre function N_l^k(x).

    Normalized so that 2 pi * int_{-1}^{1} N_l^k(x)^2 dx = 1, i.e. the
    sphere function N_l^k(cos theta) e^{i k phi} has unit L2 norm. No
    Condon-Shortley factor. Tested against independent oracles and for
    overflow up to l = 6400.

    Forward recurrence in the degree at fixed order,

        N_j = a_j x N_{j-1} + b_j N_{j-2},
        a_j = sqrt((4j^2-1)/(j^2-k^2)),
        b_j = -sqrt((2j+1)/(2j-3) * ((j-1)^2-k^2)/(j^2-k^2)),

    seeded with the sectoral value in log space. Each x carries a
    mantissa and an int64 exponent of 2, so forbidden-region values far
    below the double floor still recombine correctly via ldexp.

    The coefficients are exact integers combined in a fixed order, so
    they are the same doubles whether computed one at a time or as an
    array. The mantissa pair (N_{j-1}, N_j) is rescaled by 2^-512 when
    its larger magnitude exceeds 2^512, and by 2^512 when it is nonzero
    and below 2^-512, after every m-th step and after the last one, with

        m = floor(200 / log2(a_{k+1} + 2)).

    This keeps every mantissa normal. For k >= 1, a_j decreases in j;
    for k = 0 it stays below 2; and 1/2 <= |b_j| < 2. One step therefore
    grows the pair by at most a_j + |b_j| <= a_{k+1} + 2, so m steps from
    below 2^512 stay below 2^712. A step shrinks it by at most
    (1 + a_j) / |b_j| <= 2 (a_{k+1} + 2), so m <= 105 steps from above
    2^-512 stay above 2^-817. Multiplying by a power of two commutes
    exactly with products and sums of normal numbers, and a term that
    lands among the subnormals (next to a zero of N_j) sits below half an
    ulp of the other term in both scalings, so N_l^k is bit-identical to
    rescaling after every step.
    """
    if not 0 <= k <= l:
        raise ValueError(f"need 0 <= k <= l, got l={l} k={k}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValueError("assoc_legendre_norm requires |x| <= 1")
    out = _raise_degree(l, k, x, *_sectoral_seed(k, x))
    return float(out[0]) if scalar else out


def szego_main_term(k: int, theta):
    """Main oscillatory term of P_k(cos theta) away from the poles.

        sqrt(2/(pi k sin theta)) cos((k + 1/2) theta - pi/4)

    with remainder O(k^{-3/2}) uniformly on sin theta >= 0.1; values of
    theta closer to the poles are rejected.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.sin(theta)
    if np.any(s < 0.1):
        raise ValueError("szego_main_term requires sin(theta) >= 0.1")
    out = np.sqrt(2.0 / (np.pi * k * s)) * np.cos((k + 0.5) * theta - 0.25 * np.pi)
    return float(out) if out.ndim == 0 else out


def turning_points(idx: HarmonicIndex) -> tuple[float, float]:
    """Turning colatitudes (theta0, theta1) of the mode (l, k).

    The classically allowed band is where xi_t^2 = 1 - k^2 h^2/sin^2 theta
    stays nonnegative: theta0 = arcsin(k h), theta1 = pi - theta0.
    """
    if idx.k < 1:
        raise ValueError("turning points need k >= 1")
    s = idx.k * idx.h
    if s > 1.0:
        raise ValueError(f"no allowed region: k*h = {s} > 1")
    theta0 = float(np.arcsin(s))
    return theta0, np.pi - theta0
