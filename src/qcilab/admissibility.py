"""Transversality test deciding whether a geodesic arc is admissible.

For a pair of commuting symbols (p1, p2) and an arc gamma, the test
samples the set C_gamma = {(x(tau), xi) : p1 = E1} fiber by fiber,
retains the energy band |p2 - E2| < epsilon, and takes

    inf |d/dtau p2|

over the band, the derivative taken at fixed fiber angle sigma. The arc
is admissible when this infimum clears a positive threshold and p1 is of
real principal type on the sampled set (nonvanishing xi-gradient). A
vanishing infimum is exactly what disqualifies latitude arcs through the
profile maximum, where the angular momentum is frozen along the flow.
Every derivative is exact, from the symbols' partials (MomentMap.partials).

Every fiber is sampled along one family of rays, the metric-coframe
directions at equally spaced angles sigma:

    xi_t = r cos(sigma),   xi_phi = r f(t) sin(sigma).

For the built-in metric Hamiltonian the radius is the closed form
r = sqrt(E1), so the fiber is an ellipse; for user-supplied symbols r is
root-found along the same rays. Fixed sigma therefore means the same
phase point whichever way the symbol was given.

User-supplied radii are root-found a block of rows at a time, every ray
of the block in the same numpy calls: Newton steps seeded from the fiber
one row up, and where Newton misses, a geometric scan followed by
bisection, or by a local refinement when the level set only touches the
ray. The block solve gives the radii of the plain row-by-row walk bit for
bit, so the block size bounds memory and never changes a report.
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
_XI = ("xi_t", "xi_phi")


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


class _Rays:
    """Rays r -> (r c, r s) over base points (t, phi), flat, one entry each."""

    def __init__(self, map_: MomentMap, E1: float, t, phi, c, s):
        self.map_, self.E1 = map_, E1
        self.t, self.phi, self.c, self.s = t, phi, c, s

    def __len__(self):
        return len(self.c)

    def __getitem__(self, idx) -> "_Rays":
        return _Rays(self.map_, self.E1, self.t[idx], self.phi[idx], self.c[idx], self.s[idx])

    def residual(self, r):
        """p1 - E1 at radii r, whose last axis runs over the rays.

        Read-only when p1 does not depend on xi: it is broadcast to r.
        """
        xi_t, xi_phi = r * self.c, r * self.s
        return np.broadcast_to(self.map_.p1(self.t, self.phi, xi_t, xi_phi) - self.E1, xi_t.shape)


def _newton(rays: _Rays, seed):
    """Radii after 12 Newton steps from seed, NaN unless |p1 - E1| <= _FIBER_TOL.

    Slopes are exact; a zero slope leaves a ray where it stands. Rays
    with no usable seed (NaN or <= 0) come back NaN. A ray whose step
    lands where it stands, or where it stood one step before, would
    repeat itself to the 12th step, so it leaves the iteration with the
    radius and residual of that step.
    """
    r = np.where(np.isfinite(seed) & (seed > 0), seed, np.nan)
    resid = np.full(len(r), np.nan)
    live = np.flatnonzero(np.isfinite(r))
    sub, here = rays[live], r[live]
    back, g_back = here, resid[live]
    for k in range(12):
        if not live.size:
            break
        g = sub.residual(here)
        d_t, d_p = sub.map_.partials("p1", sub.t, sub.phi, here * sub.c, here * sub.s, over=_XI)
        with np.errstate(divide="ignore", invalid="ignore"):
            dr = g / (sub.c * d_t + sub.s * d_p)
        there = np.maximum(here - np.where(np.isfinite(dr), dr, 0.0), 1e-12)
        fixed = there == here
        # in a 2-cycle the 12th step lands on `here` if 12 - k is even
        cycle = ~fixed & (there == back)
        to_back = cycle & (k % 2 == 1)
        done = fixed | cycle
        r[live[done]] = np.where(to_back, back, here)[done]
        resid[live[done]] = np.where(to_back, g_back, g)[done]
        go = ~done
        live, sub = live[go], sub[go]
        back, g_back, here = here[go], g[go], there[go]
    if live.size:
        r[live] = here
        resid[live] = sub.residual(here)
    return np.where(np.abs(resid) <= _FIBER_TOL, r, np.nan)


def _solve(rays: _Rays, seed):
    """Newton from seed; rays it leaves NaN go to the radial scan."""
    radii = _newton(rays, seed)
    miss = np.flatnonzero(np.isnan(radii))
    if miss.size:
        radii[miss] = _scan(rays[miss])
    return radii


def _chunks(n_rays: int, n_samples: int):
    """Slices of n_rays rays, n_samples radii per ray making about _BLOCK points a slice."""
    width = max(1, _BLOCK // n_samples)
    return [slice(a, a + width) for a in range(0, n_rays, width)]


def _scan(rays: _Rays):
    """Radii of the level set along each ray, found from the geometric scan.

    A ray whose residual changes sign between two scan radii is bisected
    on the first such bracket. A ray with no sign change is refined
    around its smallest finite residual (a tangential touch). Rays that
    never reach the level set come back NaN.
    """
    bracket = np.full(len(rays), -1)  # first sign change, -1 for none
    nearest = np.full(len(rays), -1)  # smallest finite |residual|, -1 for none
    for cols in _chunks(len(rays), len(_SCAN_RADII)):
        vals = rays[cols].residual(_SCAN_RADII[:, None])
        finite = np.isfinite(vals)
        sign = np.sign(vals)
        flip = (sign[:-1] * sign[1:] <= 0) & finite[:-1] & finite[1:]
        bracket[cols] = np.where(flip.any(axis=0), np.argmax(flip, axis=0), -1)
        near = np.argmin(np.where(finite, np.abs(vals), np.inf), axis=0)
        nearest[cols] = np.where(finite.any(axis=0), near, -1)
    radii = np.full(len(rays), np.nan)
    crossed = np.flatnonzero(bracket >= 0)
    if crossed.size:
        k = bracket[crossed]
        radii[crossed] = _bisect(rays[crossed], _SCAN_RADII[k], _SCAN_RADII[k + 1])
    touch = np.flatnonzero((bracket < 0) & (nearest >= 0))
    for cols in _chunks(len(touch), 101):
        radii[touch[cols]] = _tangent(rays[touch[cols]], nearest[touch[cols]])
    return radii


def _bisect(rays: _Rays, lo, hi):
    """Bisect each ray's bracket [lo, hi] of p1 - E1, all rays at once.

    A ray stops at the first midpoint within _FIBER_TOL of the level set.
    Otherwise it stops once its bracket is narrower than 1e-15 max(1, hi),
    or after 200 halvings, and keeps its last midpoint if that meets the
    tolerance (NaN if not). Each evaluation halves every live bracket once.
    """
    radii = np.full(len(rays), np.nan)
    g_lo = rays.residual(lo).copy()
    live = np.arange(len(rays))
    for _ in range(200):
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        g_mid = rays[live].residual(mid)
        hit = np.abs(g_mid) <= _FIBER_TOL
        radii[live[hit]] = mid[hit]
        below = g_lo[live] * g_mid < 0
        hi[live] = np.where(below, mid, hi[live])
        lo[live] = np.where(below, lo[live], mid)
        g_lo[live] = np.where(below, g_lo[live], g_mid)
        narrow = hi[live] - lo[live] < 1e-15 * np.maximum(1.0, hi[live])
        live = live[~hit & ~narrow]
    rest = np.flatnonzero(np.isnan(radii))
    if rest.size:
        r = 0.5 * (lo[rest] + hi[rest])
        radii[rest] = np.where(np.abs(rays[rest].residual(r)) <= _FIBER_TOL, r, np.nan)
    return radii


def _tangent(rays: _Rays, nearest):
    """Rays with no sign change: refine the residual minimum locally.

    Each ray starts from the scan radii either side of _SCAN_RADII[nearest]
    and narrows that window five times over 101 even samples, all rays in
    one evaluation per round.
    """
    cols = np.arange(len(rays))
    top = len(_SCAN_RADII) - 1
    lo = _SCAN_RADII[np.maximum(nearest - 1, 0)]
    hi = _SCAN_RADII[np.minimum(nearest + 1, top)]
    ramp = np.arange(101.0)[:, None]
    for _ in range(5):
        # np.linspace(lo, hi, 101), column by column
        rs = ramp * ((hi - lo) / 100) + lo
        rs[-1] = hi
        i = np.argmin(np.abs(rays.residual(rs)), axis=0)
        lo, hi = rs[np.maximum(i - 1, 0), cols], rs[np.minimum(i + 1, 100), cols]
    r = 0.5 * (lo + hi)
    return np.where(np.abs(rays.residual(r)) <= _FIBER_TOL, r, np.nan)


def _walk(rays: _Rays, prev, n: int):
    """Radii of consecutive fibers of n rays, each seeded from the one before.

    The result is the row-by-row walk exactly: every ray is solved by
    _solve seeded from the same ray one fiber up, from prev for the first
    fiber; with prev None the first fiber comes from the scan alone. All
    fibers are first solved at once by Newton from prev. Then every ray
    whose value is not _solve of its final ray above (Newton missed, or
    its seed differs) is solved again from that ray, all of them at once,
    round after round until no radius moves.
    """
    first = prev is None
    if first:
        prev = _solve(rays[:n], np.full(n, np.nan))
        rays = rays[n:]
    seed = np.tile(prev, len(rays) // n)
    walk = np.concatenate([prev, _newton(rays, seed)])
    # walk[k] sits below walk[k - n]
    todo = n + np.flatnonzero(np.isnan(walk[n:]) | ~_same(walk[:-n], seed))
    while todo.size:
        old = walk[todo]
        walk[todo] = _solve(rays[todo - n], walk[todo - n])
        todo = todo[~_same(walk[todo], old)] + n
        todo = todo[todo < len(walk)]
    return walk if first else walk[n:]


def _same(a, b):
    """Elementwise a == b, with NaN equal to NaN."""
    return (a == b) | (np.isnan(a) & np.isnan(b))


def _angles(n: int):
    return 2.0 * np.pi * np.arange(n) / n


def _fibers(map_: MomentMap, ts, phis, E1: float, sigmas, prev=None):
    """Fibers over the base points (ts[i], phis[i]) along the coframe rays.

    Returns (xi_t, xi_phi, radii), each of shape (len(ts), len(sigmas));
    NaN entries mark rays that miss the level set (possible only for DSL
    maps). The built-in p1 has the closed-form radius sqrt(E1).

    DSL rows are solved together, as one batch of rays, and walked
    (_walk): each row seeded from the row before, the first from prev, the
    last fiber of the previous block; the first row of an arc (prev None)
    comes from the scan, as do rays Newton cannot place. A row whose rays
    all miss raises FiberError, so every row holds a finite point.
    """
    cs, sn = np.cos(sigmas), np.sin(sigmas)
    f = map_.surface.value(ts)[:, None]
    shape = (len(ts), len(sigmas))
    if map_.is_builtin_p1:
        if E1 < 0.0:
            raise FiberError(f"empty fiber: p1 >= 0 everywhere but E1 = {E1}")
        radii = np.full(shape, np.sqrt(E1))
    else:
        n = len(sigmas)
        t, phi = np.repeat(ts, n), np.repeat(phis, n)
        rays = _Rays(map_, E1, t, phi, np.tile(cs, len(ts)), (f * sn).ravel())
        radii = _walk(rays, prev, n).reshape(shape)
        if not np.isfinite(radii).any(axis=1).all():
            raise FiberError(
                f"empty fiber: level set p1 = {E1} not met along any of {len(sigmas)} rays"
            )
    return radii * cs, radii * f * sn, radii


def _arc_fibers(map_: MomentMap, geod: Geodesic, E1: float, taus, sigmas):
    """Walk the arc in blocks of rows, yielding the fibers over geod(taus).

    Yields (rows, t, phi, xi_t, xi_phi, radii) with rows a slice of taus;
    a block holds about _BLOCK points, which bounds the memory of every
    step that follows. DSL walks chain from row to row across blocks.
    """
    step = max(1, _BLOCK // len(sigmas))
    last = None
    for start in range(0, len(taus), step):
        rows = slice(start, start + step)
        t, phi = geod.point(taus[rows], checked=False)
        xi_t, xi_phi, radii = _fibers(map_, t, phi, E1, sigmas, prev=last)
        last = radii[-1]
        yield rows, t, phi, xi_t, xi_phi, radii


# -- principal type and rates -------------------------------------------------


def _principal_ok(xi_t, d_t, d_p) -> bool:
    """True iff |grad_xi p1| = |(d_t, d_p)| > 1e-6 at every finite point of xi_t."""
    grad2 = np.broadcast_to(d_t * d_t + d_p * d_p, xi_t.shape)
    return bool(np.all(grad2[np.isfinite(xi_t)] > _PRINCIPAL_TOL**2))


def check_principal_type(map_: MomentMap, geod: Geodesic, E1: float, grid=(128, 128)) -> bool:
    """True iff |grad_xi p1| > 1e-6 at every sampled point of C_gamma."""
    taus = np.linspace(geod.param_range[0], geod.param_range[1], int(grid[0]))
    blocks = _arc_fibers(map_, geod, E1, taus, _angles(int(grid[1])))
    return all(
        _principal_ok(xt, *map_.partials("p1", t[:, None], phi[:, None], xt, xp, over=_XI))
        for _, t, phi, xt, xp, _ in blocks
    )


def _rates(map_: MomentMap, geod: Geodesic, t, phi, xi_t, xi_phi, radii, sigmas):
    """(d p2 / d tau at fixed sigma, principal type of p1), one base point a row.

    The radius r(tau) of each ray solves p1 = E1, so r' = -d_tau p1 / d_r p1,
    with d_tau taken at fixed r. Then d p2 / d tau = d_tau p2 + d_r p2 r'.
    Where d_tau p1 is exactly 0, r' is 0, even if d_r p1 vanishes too.
    """
    t, phi = t[:, None], phi[:, None]
    sn = np.sin(sigmas)
    c, s = np.cos(sigmas), map_.surface.value(t) * sn
    # at fixed r, tau moves (t, phi) along the arc and, as t moves, turns
    # the coframe: xi_phi = r f(t) sin(sigma)
    speed = {v: d for v, d in zip(("t", "phi"), geod.tangent()) if d}
    if "t" in speed:
        speed["xi_phi"] = radii * (map_.surface.derivative(t) * (speed["t"] * sn))
    names = tuple(dict.fromkeys(_XI + tuple(speed)))

    def along(slot):
        """(d_tau at fixed r, d_r, partials) of one symbol."""
        d = dict(zip(names, map_.partials(slot, t, phi, xi_t, xi_phi, over=names)))
        return sum(d[v] * speed[v] for v in speed), c * d["xi_t"] + s * d["xi_phi"], d

    with np.errstate(all="ignore"):
        tau1, r1, d1 = along("p1")
        tau2, r2, _ = along("p2")
        ratio = np.divide(tau1, r1, out=np.zeros(xi_t.shape), where=tau1 != 0.0)
        return tau2 - r2 * ratio, _principal_ok(xi_t, d1["xi_t"], d1["xi_phi"])


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

    Raises
    ------
    FiberError
        When the level set p1 = E1 misses every ray of some fiber.
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

    # one walk along the arc; base points and covectors are kept for the witness
    t_m, phi_m = np.empty(n_tau), np.empty(n_tau)
    xt, xp = np.empty((n_tau, n_fiber)), np.empty((n_tau, n_fiber))
    p2_mid, deriv = np.empty((n_tau, n_fiber)), np.empty((n_tau, n_fiber))
    principal_ok = True
    for rows, t, phi, xi_t, xi_phi, radii in _arc_fibers(map_, geod, E1, taus, sigmas):
        deriv[rows], ok = _rates(map_, geod, t, phi, xi_t, xi_phi, radii, sigmas)
        principal_ok = principal_ok and ok
        p2_mid[rows] = map_.p2(t[:, None], phi[:, None], xi_t, xi_phi)
        t_m[rows], phi_m[rows], xt[rows], xp[rows] = t, phi, xi_t, xi_phi

    scale = float(np.nanmax(np.abs(p2_mid)))
    if energies.epsilon is not None:
        eps = float(energies.epsilon)
    else:
        eps = 0.05 * float(np.nanmax(p2_mid) - np.nanmin(p2_mid))
        if eps <= 0.0:
            eps = 0.05 * max(scale, 1.0)
    thr = float(threshold) if threshold is not None else 1e-3 * (scale if scale > 0.0 else 1.0)

    # NaN p2 (a ray that missed) and NaN derivatives fall outside the band
    band = (np.abs(p2_mid - energies.E2) < eps) & np.isfinite(deriv)
    verdict, min_der, witness = "empty-band", None, None
    if band.any():
        absd = np.where(band, np.abs(deriv), np.inf)
        i, j = np.unravel_index(int(np.argmin(absd)), absd.shape)
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
