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

User-supplied radii are root-found a block of rows at a time, every ray
of the block in the same numpy calls: Newton steps seeded from the fiber
one row up (the fibers at tau -+ delta from the fiber at tau), and where
Newton misses, a geometric scan followed by bisection, or by a local
refinement when the level set only touches the ray. The block solve
gives the radii of the plain row-by-row walk bit for bit, so the block
size bounds memory and never changes a report.
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

    Slopes are central differences. Rays with no usable seed (NaN or
    <= 0) come back NaN. A ray whose step lands where it stands, or where
    it stood one step before, would repeat itself to the 12th step, so it
    leaves the iteration with the radius and residual of that step.
    """
    r = np.where(np.isfinite(seed) & (seed > 0), seed, np.nan)
    resid = np.full(len(r), np.nan)
    live = np.flatnonzero(np.isfinite(r))
    sub, here = rays[live], r[live]
    back, g_back = here, resid[live]
    for k in range(12):
        if not live.size:
            break
        step = 1e-6 * np.maximum(1.0, np.abs(here))
        g, g_hi, g_lo = sub.residual(np.stack([here, here + step, here - step]))
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = g / ((g_hi - g_lo) / (2.0 * step))
        there = np.maximum(here - np.where(np.isfinite(delta), delta, 0.0), 1e-12)
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
    tolerance (NaN if not). Each evaluation looks three halvings ahead:
    it holds the 7 midpoints those halvings can reach.
    """
    radii = np.full(len(rays), np.nan)
    g_lo = rays.residual(lo).copy()
    live = np.arange(len(rays))
    halvings = 0
    while live.size and halvings < 200:
        # the midpoints the next three halvings can reach: level d holds
        # 2^d brackets, and bracket j splits into 2j (its lower half) and
        # 2j + 1 (its upper half)
        a, b, mids = lo[live][None], hi[live][None], []
        for _ in range(3):
            m = 0.5 * (a + b)
            mids.append(m)
            a = np.stack([a, m], axis=1).reshape(-1, len(live))
            b = np.stack([m, b], axis=1).reshape(-1, len(live))
        g_mids = np.split(rays[live].residual(np.concatenate(mids)), [1, 3])
        j, going = np.zeros(len(live), dtype=int), np.ones(len(live), dtype=bool)
        for d in range(min(3, 200 - halvings)):
            i = np.flatnonzero(going)
            k = live[i]
            mid, g_mid = mids[d][j[i], i], g_mids[d][j[i], i]
            hit = np.abs(g_mid) <= _FIBER_TOL
            radii[k[hit]] = mid[hit]
            below = g_lo[k] * g_mid < 0
            hi[k] = np.where(below, mid, hi[k])
            lo[k] = np.where(below, lo[k], mid)
            g_lo[k] = np.where(below, g_lo[k], g_mid)
            narrow = hi[k] - lo[k] < 1e-15 * np.maximum(1.0, hi[k])
            going[i] = ~hit & ~narrow
            j[i] = 2 * j[i] + ~below
            halvings += 1
        live = live[going]
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


def _fibers(map_: MomentMap, ts, phis, E1: float, sigmas, seeds=None, prev=None):
    """Fibers over the base points (ts[i], phis[i]) along the coframe rays.

    Returns (xi_t, xi_phi, radii), each of shape (len(ts), len(sigmas));
    NaN entries mark rays that miss the level set (possible only for DSL
    maps). The built-in p1 has the closed-form radius sqrt(E1).

    DSL rows are solved together, as one batch of rays. With seeds, row i
    is Newton-seeded from seeds[i] (the fibers at tau -+ delta from those
    at tau). Without, the rows are walked (_walk): each seeded from the row
    before, the first from prev, the last fiber of the previous block; the
    first row of an arc (prev None) comes from the scan. Rays Newton
    cannot place go to the scan either way.
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
        if seeds is not None:
            radii = _solve(rays, np.ravel(seeds)).reshape(shape)
        else:
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
