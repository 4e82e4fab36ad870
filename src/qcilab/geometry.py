"""Surfaces of revolution and their geodesic arcs.

A surface is described by a profile function f on [-1, 1] with f(-1) =
f(1) = 0 and f > 0 in between, generating the metric

    g = dt^2 + f(t)^2 dphi^2.

Profiles are restricted to the family f^2(t) = (1 - t^2) * q(t) with q a
positive low-degree polynomial, which guarantees the boundary zeros
analytically and keeps the Morse check (a single non-degenerate interior
maximum of f^2 at t = t0) cheap.

Two geodesic arc kinds are supported: the latitude circle at t0 (the only
latitude that is a geodesic) and longitude arcs at fixed phi. Both are
produced with unit-speed parametrizations: arc length element f(t0) dphi
on the latitude, dt on longitudes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProfileError",
    "GeodesicError",
    "ProfileFunction",
    "Geodesic",
    "make_profile",
    "latitude_arc",
    "longitude_arc",
]

PROFILE_KINDS = ("sphere", "polynomial-perturbed")

# t0 closer to 0 than this is snapped to exactly 0
_T0_TOL = 1e-12
# grid on which q must be strictly positive
_Q_GRID_POINTS = 20001


class ProfileError(ValueError):
    """Raised when coefficients do not define an admissible profile."""


class GeodesicError(ValueError):
    """Raised for invalid arc requests (range, placement)."""


@dataclass(frozen=True)
class ProfileFunction:
    """Profile f of a surface of revolution, f^2(t) = (1 - t^2) q(t).

    Attributes
    ----------
    kind : str
        "sphere" (q = 1) or "polynomial-perturbed".
    coefficients : tuple of float
        Coefficients of q, lowest degree first; empty means q = 1.
    t0 : float
        Location of the unique interior maximum of f^2.
    """

    kind: str
    coefficients: tuple[float, ...]
    t0: float

    # -- polynomial pieces -------------------------------------------------

    def _q(self, t, order=0):
        """q(t), or its derivative of the given order."""
        c = self.coefficients if self.coefficients else (1.0,)
        if order:
            c = np.polynomial.polynomial.polyder(c, order)
        return np.polynomial.polynomial.polyval(t, c)

    # -- f^2 and derivatives ----------------------------------------------

    def sq(self, t):
        """f^2(t); accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        return (1.0 - t * t) * self._q(t)

    def sq_prime(self, t):
        """(f^2)'(t)."""
        t = np.asarray(t, dtype=float)
        return -2.0 * t * self._q(t) + (1.0 - t * t) * self._q(t, 1)

    def sq_second(self, t):
        """(f^2)''(t)."""
        t = np.asarray(t, dtype=float)
        return (
            -2.0 * self._q(t)
            - 4.0 * t * self._q(t, 1)
            + (1.0 - t * t) * self._q(t, 2)
        )

    # -- f and its derivatives ----------------------------------------------

    def value(self, t):
        """f(t) = sqrt((1 - t^2) q(t)); t may be scalar or array."""
        return np.sqrt(self.sq(t))

    def derivative(self, t):
        """f'(t) = (f^2)'(t) / (2 f(t)); valid on the open interval."""
        return self.sq_prime(t) / (2.0 * self.value(t))

    def second_derivative(self, t):
        """f''(t) = ((f^2)''(t) - 2 f'(t)^2) / (2 f(t)); valid on the open interval."""
        f = self.value(t)
        fp = self.sq_prime(t) / (2.0 * f)
        return (self.sq_second(t) - 2.0 * fp * fp) / (2.0 * f)

    # -- serialization -----------------------------------------------------

    def as_json(self) -> dict:
        return {"kind": self.kind, "coefficients": list(self.coefficients)}

    def canonical_text(self) -> str:
        """Stable serialized form, used for cache keys."""
        return json.dumps(self.as_json(), sort_keys=True, separators=(",", ":"))


def make_profile(kind: str, coefficients: list[float]) -> ProfileFunction:
    """Validate coefficients and construct a ProfileFunction.

    Parameters
    ----------
    kind : str
        "sphere" or "polynomial-perturbed".
    coefficients : list of float
        Coefficients of q (lowest degree first). Must be empty for
        "sphere". q must be strictly positive on [-1, 1].

    Returns
    -------
    ProfileFunction
        With t0 the unique interior root of the polynomial (f^2)',
        polished by one Newton step and snapped to exactly 0 when it
        lies within 1e-12 of it.

    Raises
    ------
    ProfileError
        If q is not positive, f^2 overflows or has more than one interior
        critical point, or the maximum is degenerate (Morse violation).
    """
    if kind not in PROFILE_KINDS:
        raise ProfileError(f"unknown profile kind {kind!r}")
    coeffs = tuple(float(c) for c in coefficients)
    if kind == "sphere" and coeffs:
        raise ProfileError("sphere profile takes no coefficients")
    if not all(np.isfinite(coeffs)):
        raise ProfileError("non-finite coefficient")

    probe = ProfileFunction(kind=kind, coefficients=coeffs, t0=0.0)
    try:
        with np.errstate(over="raise", invalid="raise"):
            if np.min(probe._q(np.linspace(-1.0, 1.0, _Q_GRID_POINTS))) <= 0.0:
                raise ProfileError("q(t) must be strictly positive on [-1, 1]")

            # The interior critical points of f^2 are the real roots of the
            # polynomial (f^2)' in (-1, 1). Exactly one may remain once
            # coincident roots are collapsed, and that one is t0.
            poly = np.polynomial.Polynomial
            roots = (poly([1.0, 0.0, -1.0]) * poly(coeffs or (1.0,))).deriv().roots()
            interior = [
                r.real
                for r in np.atleast_1d(roots)
                if abs(r.imag) < 1e-9 and -1.0 + 1e-12 < r.real < 1.0 - 1e-12
            ]
            # collapse numerically coincident roots before counting
            interior.sort()
            distinct = [r for i, r in enumerate(interior) if i == 0 or r - interior[i - 1] > 1e-9]
            if len(distinct) != 1:
                raise ProfileError(
                    f"f^2 must have exactly one interior critical point, found {len(distinct)}"
                )
            t0 = float(distinct[0])
            curvature = probe.sq_second(t0)
            if curvature >= -1e-10:
                raise ProfileError("degenerate maximum of f^2 (Morse violation)")
            # roots() solves a companion-matrix eigenproblem; one Newton step
            # polishes its root to working precision
            t0 = float(t0 - probe.sq_prime(t0) / curvature)
    except FloatingPointError as exc:
        raise ProfileError(f"f^2 overflows in floating point: {exc}") from None
    if abs(t0) < _T0_TOL:
        t0 = 0.0

    return ProfileFunction(kind=kind, coefficients=coeffs, t0=t0)


@dataclass(frozen=True)
class Geodesic:
    """Unit-speed geodesic arc on a surface of revolution.

    Attributes
    ----------
    kind : str
        "equator-latitude" (the circle at t0) or "longitude".
    fixed_coordinate : float
        t0 for latitude arcs, phi0 for longitude arcs.
    param_range : (float, float)
        Closed interval [a, b] of the arc-length parameter tau. Latitude
        arcs run over [0, length]; longitude arcs are parametrized by
        tau = t directly.
    surface : ProfileFunction
    start : float
        phi at tau = 0 for latitude arcs; equals param_range[0] for
        longitude arcs.
    length : float
    """

    kind: str
    fixed_coordinate: float
    param_range: tuple[float, float]
    surface: ProfileFunction
    start: float
    length: float

    def point(self, tau, checked: bool = True):
        """Coordinates (t, phi) at parameter tau; vectorized in tau."""
        a, b = self.param_range
        tau = np.asarray(tau, dtype=float)
        if checked:
            slack = 1e-12 * max(1.0, abs(a), abs(b))
            if np.any(tau < a - slack) or np.any(tau > b + slack):
                raise GeodesicError(f"parameter outside [{a}, {b}]")
        if self.kind == "equator-latitude":
            t = np.full_like(tau, self.fixed_coordinate)
            phi = self.start + tau / self.surface.value(self.fixed_coordinate)
        else:
            t = tau
            phi = np.full_like(tau, self.fixed_coordinate)
        return t, phi

    def tangent(self):
        """Constant unit tangent (dt/dtau, dphi/dtau) in the (t, phi) chart."""
        if self.kind == "equator-latitude":
            return (0.0, 1.0 / self.surface.value(self.fixed_coordinate))
        return (1.0, 0.0)


def latitude_arc(profile: ProfileFunction, phi_range: tuple[float, float]) -> Geodesic:
    """Latitude arc at the Morse maximum t0 over phi in [alpha, beta].

    The circle at t0 is the only latitude that is a geodesic, so arcs are
    accepted there only. Length is f(t0) * (beta - alpha).
    """
    alpha, beta = float(phi_range[0]), float(phi_range[1])
    if not beta > alpha:
        raise GeodesicError("empty phi range: need alpha < beta")
    if beta - alpha >= 2.0 * np.pi:
        raise GeodesicError("phi range must be shorter than a full circle")
    length = float(profile.value(profile.t0) * (beta - alpha))
    return Geodesic(
        kind="equator-latitude",
        fixed_coordinate=profile.t0,
        param_range=(0.0, length),
        surface=profile,
        start=alpha,
        length=length,
    )


def longitude_arc(
    profile: ProfileFunction, t_range: tuple[float, float], phi0: float
) -> Geodesic:
    """Longitude arc phi = phi0, t in [a, b], unit speed in t.

    The range must stay strictly inside (-1, 1); the chart degenerates at
    the poles.
    """
    a, b = float(t_range[0]), float(t_range[1])
    if not a < b:
        raise GeodesicError("empty t range: need a < b")
    if a <= -1.0 or b >= 1.0:
        raise GeodesicError("t range must stay strictly inside (-1, 1)")
    return Geodesic(
        kind="longitude",
        fixed_coordinate=float(phi0),
        param_range=(a, b),
        surface=profile,
        start=a,
        length=b - a,
    )
