"""Oscillation-resolved quadrature of eigenfunction restrictions to arcs.

The integrand u(t, phi) restricted to a geodesic arc oscillates on the
scale of the semiclassical wavelength 2 pi h, so the arc is cut into
panels no longer than a fixed fraction of that wavelength and each panel
receives a fixed-order Gauss-Legendre rule. Panel sums are accumulated
with pairwise summation, keeping results deterministic across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import ceil

import numpy as np

from .geometry import Geodesic

__all__ = [
    "QuadratureSpec",
    "PanelCountError",
    "integrate_restriction",
    "integrate_adaptive",
]


class PanelCountError(ValueError):
    """Needed panel count exceeds the configured cap."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Panelized Gauss-Legendre parameters.

    Panels are sized to 2 pi h / panels_per_wavelength so each one sees
    a bounded phase increment regardless of h.
    """

    nodes_per_panel: int = 12
    panels_per_wavelength: float = 4.0
    max_panels: int = 10**6

    def __post_init__(self):
        if self.nodes_per_panel < 4:
            raise ValueError("nodes_per_panel must be at least 4")
        if self.panels_per_wavelength < 2.0:
            raise ValueError("panels_per_wavelength must be at least 2")
        if self.max_panels < 1:
            raise ValueError("max_panels must be positive")

    def as_json(self) -> dict:
        return {
            "nodes_per_panel": self.nodes_per_panel,
            "panels_per_wavelength": self.panels_per_wavelength,
            "max_panels": self.max_panels,
        }

    @staticmethod
    def from_json(obj: dict) -> "QuadratureSpec":
        return QuadratureSpec(
            nodes_per_panel=int(obj["nodes_per_panel"]),
            panels_per_wavelength=float(obj["panels_per_wavelength"]),
            max_panels=int(obj["max_panels"]),
        )


@lru_cache(maxsize=32)
def _rule(n: int):
    return np.polynomial.legendre.leggauss(n)


def integrate_restriction(u, geod: Geodesic, spec: QuadratureSpec, h: float) -> complex:
    """Integral of u over the arc against the arc-length measure.

    Parameters
    ----------
    u : callable or eigenfunction
        Evaluator u(t, phi) accepting arrays; objects exposing a
        .value(t, phi) method are unwrapped.
    geod : Geodesic
        Unit-speed arc, so ds = dtau.
    spec : QuadratureSpec
    h : float
        Semiclassical parameter setting the wavelength 2 pi h.

    Returns
    -------
    complex

    Raises
    ------
    PanelCountError
        When resolving the oscillation needs more than max_panels panels.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")
    ev = u.value if hasattr(u, "value") else u
    a, b = geod.param_range
    length = b - a
    panel_len = 2.0 * np.pi * h / spec.panels_per_wavelength
    n_panels = max(1, ceil(length / panel_len))
    if n_panels > spec.max_panels:
        raise PanelCountError(
            f"needs {n_panels} panels > cap {spec.max_panels} (h = {h} too small)"
        )

    x, w = _rule(spec.nodes_per_panel)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    taus = centers[:, None] + half * x[None, :]

    t, phi = geod.point(taus.ravel(), checked=False)
    vals = np.asarray(ev(t, phi)).reshape(n_panels, spec.nodes_per_panel)
    panel_sums = half * (vals @ w)
    return complex(np.sum(panel_sums))


def integrate_adaptive(u, geod: Geodesic, spec: QuadratureSpec, h: float):
    """Integral with a doubling-based error estimate.

    Runs the rule at the requested density and at doubled panel density;
    returns (finer value, absolute difference).
    """
    coarse = integrate_restriction(u, geod, spec, h)
    fine = integrate_restriction(
        u, geod, replace(spec, panels_per_wavelength=2.0 * spec.panels_per_wavelength), h
    )
    return fine, abs(fine - coarse)
