"""Legendre special functions for sphere eigenmodes.

Provides the Legendre polynomials P_k, their exact values at the origin,
the fully normalized associated functions N_l^k (so that
u = N_l^k(cos theta) e^{i k phi} is L2-normalized on the unit sphere),
the oscillatory main term of the large-degree asymptotics away from the
poles, and the turning colatitudes bounding the classically allowed
band of a mode with angular momentum k.

N_l^k is evaluated by the normalized three-term recurrence in the degree
at fixed order, with mantissa/exponent rescaling so that the
exponentially small forbidden-region values stay representable up to
l = 4000 without overflow on the sectoral seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log
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
    """Sphere mode indices: degree l, order k, and the small parameter h.

    The eigenvalue of the mode is l(l+1) and h = 1/sqrt(l(l+1)), so the
    first quantum energy h^2 l(l+1) is exactly 1. h is None for l = 0.
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


def legendre_P0(k: int) -> float:
    """Exact P_k(0): zero for odd k, (-1)^{k/2} (k-1)!!/k!! for even k.

    The double-factorial ratio is k!/(2^k ((k/2)!)^2), computed in
    log-space so large k does not overflow.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k % 2 == 1:
        return 0.0
    sign = -1.0 if (k // 2) % 2 else 1.0
    return sign * exp(lgamma(k + 1) - k * log(2.0) - 2.0 * lgamma(k / 2 + 1))


def assoc_legendre_norm(l: int, k: int, x):
    """Fully normalized associated Legendre function N_l^k(x).

    Normalized so that 2 pi * int_{-1}^{1} N_l^k(x)^2 dx = 1, i.e. the
    sphere function N_l^k(cos theta) e^{i k phi} has unit L2 norm. No
    Condon-Shortley factor.

    Forward recurrence in the degree at fixed order,

        N_j = a_j x N_{j-1} + b_j N_{j-2},
        a_j = sqrt((4j^2-1)/(j^2-k^2)),
        b_j = -sqrt((2j+1)/(2j-3) * ((j-1)^2-k^2)/(j^2-k^2)),

    seeded with the sectoral value in log space. Each x carries a
    mantissa and an int64 exponent of 2, rescaled whenever the mantissa
    leaves [2^-512, 2^512], so forbidden-region values that are far below
    the double floor still recombine correctly via ldexp.
    """
    if not 0 <= k <= l:
        raise ValueError(f"need 0 <= k <= l, got l={l} k={k}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValueError("assoc_legendre_norm requires |x| <= 1")

    from scipy.special import gammaln

    # sectoral seed: N_k^k = sqrt((2k+1)! / (2^{2k} (k!)^2 4pi)) (1-x^2)^{k/2}
    with np.errstate(divide="ignore"):
        logs2 = np.where(np.abs(x) < 1.0, np.log1p(-x * x), -np.inf)
    logseed = (
        0.5 * (gammaln(2 * k + 2) - 2 * k * _LN2 - 2 * gammaln(k + 1) - _LOG4PI)
        + 0.5 * k * logs2
    )
    chunks = np.where(np.isfinite(logseed), np.floor(logseed / _LN2), 0.0).astype(np.int64)
    mant = np.where(np.isfinite(logseed), np.exp(logseed - chunks * _LN2), 0.0)
    e = chunks.copy()

    if l == k:
        out = np.ldexp(mant, e)
        return float(out[0]) if scalar else out

    prev = np.zeros_like(mant)
    cur = mant
    for j in range(k + 1, l + 1):
        a = np.sqrt((4.0 * j * j - 1.0) / (j * j - k * k))
        if j == k + 1:
            new = a * x * cur
        else:
            b = -np.sqrt(
                (2.0 * j + 1.0) / (2.0 * j - 3.0) * ((j - 1.0) ** 2 - k * k) / (j * j - k * k)
            )
            new = a * x * cur + b * prev
        prev, cur = cur, new
        big = np.abs(cur) > _BIG
        if np.any(big):
            cur = np.where(big, cur * _BIGI, cur)
            prev = np.where(big, prev * _BIGI, prev)
            e = np.where(big, e + 512, e)
        small = (np.abs(cur) < _BIGI) & (np.abs(cur) > 0) & (np.abs(prev) < _BIGI)
        if np.any(small):
            cur = np.where(small, cur * _BIG, cur)
            prev = np.where(small, prev * _BIG, prev)
            e = np.where(small, e - 512, e)
    out = np.ldexp(cur, e)
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
