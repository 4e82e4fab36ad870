"""Transversality test deciding whether a geodesic arc is admissible.

For a pair of commuting symbols (p1, p2) and an arc gamma, the test
samples the set C_gamma = {(x(tau), xi) : p1 = E1} fiber by fiber,
retains the energy band |p2 - E2| < epsilon, and estimates

    inf |d/dtau p2|

over the band by central differences taken at fixed fiber angle sigma.
The arc is admissible when this infimum clears a positive threshold and
p1 is of real principal type on the sampled set (nonvanishing
xi-gradient). A vanishing infimum is exactly what disqualifies latitude
arcs through the profile maximum, where the angular momentum is frozen
along the flow.

Every fiber is sampled along one family of rays, the metric-coframe
directions at equally spaced angles sigma:

    xi_t = r cos(sigma),   xi_phi = r f(t) sin(sigma).

For the built-in metric Hamiltonian the radius is the closed form
r = sqrt(E1), so the fiber is an ellipse; for user-supplied symbols r is
root-found along the same rays. Fixed sigma therefore means the same
phase point whichever way the symbol was given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Geodesic
from .symbol_dsl import MomentMap

__all__ = [
    "FiberError",
    "EnergyPair",
    "AdmissibilityReport",
    "fiber_points",
    "check_principal_type",
    "check_admissible",
]

# residual tolerance for fiber points, |p1 - E1|
_FIBER_TOL = 1e-10
# radial scan for DSL level sets
_SCAN_RADII = np.geomspace(1e-8, 1e3, 221)
# |grad_xi p1| must exceed this for real principal type
_PRINCIPAL_TOL = 1e-6
# fiber points per block of the walk along the arc
_BLOCK = 1 << 14


class FiberError(ValueError):
    """No fiber point found: the level set p1 = E1 misses every ray."""


@dataclass(frozen=True)
class EnergyPair:
    """Target energies (E1, E2) and the band half-width epsilon.

    epsilon = None selects the default 0.05 x (range of p2 over the
    sampled C_gamma).
    """

    E1: float
    E2: float
    epsilon: Optional[float] = None

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the transversality test on one arc.

    min_derivative is the estimated inf of |d p2 / d tau| over the
    sampled energy band (None when the band is empty); witness locates
    the minimizing phase point.
    """

    verdict: str  # admissible | not-admissible | empty-band
    min_derivative: Optional[float]
    witness: Optional[dict]
    principal_type_ok: bool
    grid: tuple[int, int]
    threshold: float
    epsilon: float

    def as_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "min_derivative": self.min_derivative,
            "witness": self.witness,
            "principal_type_ok": self.principal_type_ok,
            "grid": list(self.grid),
            "threshold": self.threshold,
            "epsilon": self.epsilon,
        }


# -- fiber sampling ----------------------------------------------------------


def _dsl_fiber_radii(map_: MomentMap, t: float, phi: float, E1: float, cs, sn, seed):
    """Radii r with p1(t, phi, r cs, r sn) = E1 along the rays (cs, sn).

    Newton iteration from a seed when one is supplied (a neighbouring
    fiber's radii), otherwise a geometric bracket scan followed by
    bisection and a Newton polish. Rays that never cross the level set
    come back NaN; tangential touches are refined by local minimization
    of the residual.
    """

    def g(r):
        return map_.p1(t, phi, r * cs, r * sn) - E1

    def g_at(r, mask):
        out = np.full_like(r, np.nan)
        out[mask] = map_.p1(t, phi, r[mask] * cs[mask], r[mask] * sn[mask]) - E1
        return out

    n = len(cs)
    radii = np.full(n, np.nan)

    if seed is not None:
        r = np.where(np.isfinite(seed) & (seed > 0), seed, np.nan)
        live = np.isfinite(r)
        for _ in range(12):
            if not live.any():
                break
            gv = g_at(r, live)
            step = 1e-6 * np.maximum(1.0, np.abs(r))
            dg = (g_at(r + step, live) - g_at(r - step, live)) / (2.0 * step)
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = gv / dg
            delta = np.where(np.isfinite(delta), delta, 0.0)
            r = np.where(live, np.maximum(r - delta, 1e-12), r)
        gv = g_at(r, live)
        ok = live & (np.abs(gv) <= _FIBER_TOL)
        radii[ok] = r[ok]
        if ok.all():
            return radii

    todo = ~np.isfinite(radii)
    if todo.any():
        # scan along all unresolved rays at once: rows are radii
        grid = _SCAN_RADII
        vals = np.empty((len(grid), n))
        vals[:] = np.nan
        idx = np.nonzero(todo)[0]
        for i, r0 in enumerate(grid):
            vals[i, idx] = g(np.full(n, r0))[idx]
        sign = np.sign(vals)
        flip = (sign[:-1, :] * sign[1:, :] <= 0) & np.isfinite(vals[:-1, :]) & np.isfinite(vals[1:, :])
        for j in idx:
            rows = np.nonzero(flip[:, j])[0]
            if len(rows):
                lo, hi = grid[rows[0]], grid[rows[0] + 1]
                radii[j] = _bisect_ray(map_, t, phi, E1, cs[j], sn[j], lo, hi)
            else:
                radii[j] = _tangent_ray(map_, t, phi, E1, cs[j], sn[j], vals[:, j])
    return radii


def _bisect_ray(map_, t, phi, E1, c, s, lo, hi):
    def g(r):
        return map_.p1(t, phi, r * c, r * s) - E1

    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) <= _FIBER_TOL:
            return mid
        if glo * gm < 0:
            hi = mid
        else:
            lo, glo = mid, gm
        if hi - lo < 1e-15 * max(1.0, hi):
            break
    r = 0.5 * (lo + hi)
    return r if abs(g(r)) <= _FIBER_TOL else np.nan


def _tangent_ray(map_, t, phi, E1, c, s, scan_vals):
    """Ray with no sign change: refine the residual minimum locally."""

    def absg(r):
        return abs(map_.p1(t, phi, r * c, r * s) - E1)

    finite = np.isfinite(scan_vals)
    if not finite.any():
        return np.nan
    j = int(np.nanargmin(np.abs(scan_vals)))
    lo = _SCAN_RADII[max(j - 1, 0)]
    hi = _SCAN_RADII[min(j + 1, len(_SCAN_RADII) - 1)]
    for _ in range(5):
        rs = np.linspace(lo, hi, 101)
        vals = np.array([absg(r) for r in rs])
        i = int(np.argmin(vals))
        lo = rs[max(i - 1, 0)]
        hi = rs[min(i + 1, len(rs) - 1)]
    r = 0.5 * (lo + hi)
    return r if absg(r) <= _FIBER_TOL else np.nan


def _angles(n: int):
    return 2.0 * np.pi * np.arange(n) / n


def _fibers(map_: MomentMap, ts, phis, E1: float, sigmas, seeds=None, prev=None):
    """Fibers over the base points (ts[i], phis[i]) along the coframe rays.

    Returns (xi_t, xi_phi, radii), each of shape (len(ts), len(sigmas));
    NaN entries mark rays that miss the level set (possible only for DSL
    maps). The built-in p1 has the closed-form radius sqrt(E1). DSL rows
    are Newton-seeded from seeds[i] when seeds is given, otherwise from
    the previous row (prev for the first), so a walk along the arc
    reuses each fiber for the next.
    """
    cs, sn = np.cos(sigmas), np.sin(sigmas)
    f = map_.surface.value(ts)[:, None]
    if map_.is_builtin_p1:
        if E1 < 0.0:
            raise FiberError(f"empty fiber: p1 >= 0 everywhere but E1 = {E1}")
        radii = np.full((len(ts), len(sigmas)), np.sqrt(E1))
    else:
        radii = np.empty((len(ts), len(sigmas)))
        for i in range(len(ts)):
            seed = prev if seeds is None else seeds[i]
            prev = _dsl_fiber_radii(map_, float(ts[i]), float(phis[i]), E1, cs, f[i] * sn, seed)
            if not np.isfinite(prev).any():
                raise FiberError(
                    f"empty fiber: level set p1 = {E1} not met along any of {len(sigmas)} rays"
                )
            radii[i] = prev
    return radii * cs, radii * f * sn, radii


def _arc_fibers(map_: MomentMap, geod: Geodesic, E1: float, taus, sigmas):
    """Walk the arc in blocks of rows, yielding the fibers over geod(taus).

    Yields (rows, t, phi, xi_t, xi_phi, radii) with rows a slice of taus;
    a block holds about _BLOCK points, which bounds the memory of every
    step that follows. DSL seeds chain from row to row across blocks.
    """
    step = max(1, _BLOCK // len(sigmas))
    last = None
    for start in range(0, len(taus), step):
        rows = slice(start, start + step)
        t, phi = geod.point(taus[rows], checked=False)
        xi_t, xi_phi, radii = _fibers(map_, t, phi, E1, sigmas, prev=last)
        last = radii[-1]
        yield rows, t, phi, xi_t, xi_phi, radii


def fiber_points(map_: MomentMap, x, E1: float, n: int):
    """Sample the fiber {xi : p1(x, xi) = E1} over base point x = (t, phi).

    Parameters
    ----------
    map_ : MomentMap
    x : (float, float)
        Base point (t, phi) with t interior.
    E1 : float
    n : int
        Number of fiber angles, n >= 4.

    Returns
    -------
    list of (xi_t, xi_phi)
        The points r (cos sigma, f(t) sin sigma) at n equally spaced
        angles sigma, with r = sqrt(E1) for the built-in symbol and
        root-found (|p1 - E1| <= 1e-10) for DSL symbols. Rays that do
        not cross the level set are omitted.

    Raises
    ------
    FiberError
        When no ray crosses the level set.
    """
    if n < 4:
        raise ValueError("need at least 4 fiber angles")
    t, phi = np.array([float(x[0])]), np.array([float(x[1])])
    xi_t, xi_phi, _ = _fibers(map_, t, phi, E1, _angles(n))
    keep = np.isfinite(xi_t[0]) & np.isfinite(xi_phi[0])
    return [(float(a), float(b)) for a, b in zip(xi_t[0][keep], xi_phi[0][keep])]


# -- principal type -----------------------------------------------------------


def _principal_ok(map_: MomentMap, t, phi, xi_t, xi_phi) -> bool:
    """True iff |grad_xi p1| > 1e-6 at every finite sampled point.

    t and phi hold one base point per row of the (n_tau, n_fiber) fiber
    arrays. The gradient is taken by central differences with step
    1e-6 max(1, |xi|).
    """
    alive = np.isfinite(xi_t)
    t = np.broadcast_to(t[:, None], xi_t.shape)[alive]
    phi = np.broadcast_to(phi[:, None], xi_t.shape)[alive]
    xi_t, xi_phi = xi_t[alive], xi_phi[alive]
    st = 1e-6 * np.maximum(1.0, np.abs(xi_t))
    sp = 1e-6 * np.maximum(1.0, np.abs(xi_phi))
    d_t = (map_.p1(t, phi, xi_t + st, xi_phi) - map_.p1(t, phi, xi_t - st, xi_phi)) / (2.0 * st)
    d_p = (map_.p1(t, phi, xi_t, xi_phi + sp) - map_.p1(t, phi, xi_t, xi_phi - sp)) / (2.0 * sp)
    return bool(np.all(np.hypot(d_t, d_p) > _PRINCIPAL_TOL))


def check_principal_type(map_: MomentMap, geod: Geodesic, E1: float, grid=(128, 128)) -> bool:
    """True iff |grad_xi p1| > 1e-6 at every sampled point of C_gamma."""
    taus = np.linspace(geod.param_range[0], geod.param_range[1], int(grid[0]))
    blocks = _arc_fibers(map_, geod, E1, taus, _angles(int(grid[1])))
    return all(_principal_ok(map_, t, phi, xt, xp) for _, t, phi, xt, xp, _ in blocks)


def _p2(map_: MomentMap, t, phi, xi_t, xi_phi):
    """p2 on fiber arrays, with one base point (t[i], phi[i]) per row."""
    shape = xi_t.shape
    t, phi = (np.broadcast_to(v[:, None], shape) for v in (t, phi))
    return np.broadcast_to(map_.p2(t, phi, xi_t, xi_phi), shape)


# -- the admissibility verdict -------------------------------------------------


def check_admissible(
    map_: MomentMap,
    geod: Geodesic,
    energies: EnergyPair,
    grid: tuple[int, int] = (128, 128),
    threshold: Optional[float] = None,
) -> AdmissibilityReport:
    """Sample C_gamma and decide admissibility of the arc.

    Parameters
    ----------
    map_ : MomentMap
    geod : Geodesic
    energies : EnergyPair
        E1, E2 and optional band half-width epsilon.
    grid : (int, int)
        (n_tau, n_fiber) sample counts, each >= 32.
    threshold : float, optional
        Absolute verdict threshold on inf |d p2/d tau|. Default is
        1e-3 x max |p2| over the sampled C_gamma.

    Returns
    -------
    AdmissibilityReport
        verdict "admissible" iff the band is non-empty, p1 is of real
        principal type on C_gamma, and the minimum |d p2/d tau| over the
        band exceeds the threshold. An empty band is its own verdict.
    """
    n_tau, n_fiber = int(grid[0]), int(grid[1])
    if n_tau < 32 or n_fiber < 32:
        raise ValueError("grid counts must be at least 32 each")
    if threshold is not None and not threshold > 0.0:
        raise ValueError("threshold must be positive")

    a, b = geod.param_range
    taus = np.linspace(a, b, n_tau)
    sigmas = _angles(n_fiber)
    E1 = energies.E1

    def p2_near(at, radii):
        """p2 on the fibers over geod(at), Newton-seeded from radii."""
        t, phi = geod.point(at, checked=False)
        xi_t, xi_phi, _ = _fibers(map_, t, phi, E1, sigmas, seeds=radii)
        return _p2(map_, t, phi, xi_t, xi_phi)

    # one walk along the arc: the fibers at each tau, and at tau -+ delta
    # seeded from them; base points and covectors are kept for the witness
    t_m, phi_m = np.empty(n_tau), np.empty(n_tau)
    xt, xp = np.empty((n_tau, n_fiber)), np.empty((n_tau, n_fiber))
    p2_mid, deriv = np.empty((n_tau, n_fiber)), np.empty((n_tau, n_fiber))
    principal_ok = True
    for rows, t, phi, xi_t, xi_phi, radii in _arc_fibers(map_, geod, E1, taus, sigmas):
        tau = taus[rows]
        delta = 1e-6 * np.maximum(1.0, np.abs(tau))
        lo, hi = p2_near(tau - delta, radii), p2_near(tau + delta, radii)
        deriv[rows] = (hi - lo) / (2.0 * delta[:, None])
        p2_mid[rows] = _p2(map_, t, phi, xi_t, xi_phi)
        principal_ok = principal_ok and _principal_ok(map_, t, phi, xi_t, xi_phi)
        t_m[rows], phi_m[rows], xt[rows], xp[rows] = t, phi, xi_t, xi_phi

    alive = np.isfinite(p2_mid)
    if not alive.any():
        raise FiberError("empty fiber along the whole arc")

    scale = float(np.nanmax(np.abs(p2_mid)))
    if energies.epsilon is not None:
        eps = float(energies.epsilon)
    else:
        eps = 0.05 * float(np.nanmax(p2_mid) - np.nanmin(p2_mid))
        if eps <= 0.0:
            eps = 0.05 * max(scale, 1.0)
    thr = float(threshold) if threshold is not None else 1e-3 * (scale if scale > 0.0 else 1.0)

    band = alive & (np.abs(p2_mid - energies.E2) < eps) & np.isfinite(deriv)

    if not band.any():
        return AdmissibilityReport(
            verdict="empty-band",
            min_derivative=None,
            witness=None,
            principal_type_ok=principal_ok,
            grid=(n_tau, n_fiber),
            threshold=thr,
            epsilon=eps,
        )

    absd = np.where(band, np.abs(deriv), np.inf)
    flat = int(np.argmin(absd))
    i, j = np.unravel_index(flat, absd.shape)
    min_der = float(absd[i, j])
    witness = {
        "tau": float(taus[i]),
        "sigma": float(sigmas[j]),
        "t": float(t_m[i]),
        "phi": float(phi_m[i]),
        "xi_t": float(xt[i, j]),
        "xi_phi": float(xp[i, j]),
        "p2": float(p2_mid[i, j]),
        "derivative": float(deriv[i, j]),
    }
    verdict = "admissible" if (min_der > thr and principal_ok) else "not-admissible"
    return AdmissibilityReport(
        verdict=verdict,
        min_derivative=min_der,
        witness=witness,
        principal_type_ok=principal_ok,
        grid=(n_tau, n_fiber),
        threshold=thr,
        epsilon=eps,
    )
