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

User-supplied radii follow the plain row-by-row walk: each ray is solved
by Newton seeded from the same ray one fiber up. Where Newton misses, a
geometric scan brackets the level set and Newton runs inside the
bracket, with bisection where it leaves it, or a local refinement when
the level set only touches the ray. Each radius then moves to the float
of least |p1 - E1| within two floats either side (_canonical), so that
landings a few floats apart mostly give one radius. The walk is solved
a block of rows at a time (_walk): one pass seeded from the fiber before
the block, every ray of the block in the same numpy calls, with the base
point as one column entry a row, so that f(t) is evaluated once a row;
then rounds that solve again, from the row above, the few rays whose
radius one row up is not a seed they were already solved from. The
result is the walk's bit for bit, so the block size bounds memory and
never changes a report.

The verdict is reduced a block at a time (_Band), so no array spans the
whole arc: the band's edge, the least rate and its witness are kept as
the blocks pass.
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
_BLOCK = 1 << 15
# a canonical radius has the least |p1 - E1| within _ULPS floats either
# side; a radius not there after _MOVES moves is not certified
_ULPS = 2
_MOVES = 4
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
    """Rays r -> (r c, r s) over base points (t, phi).

    c and s hold one entry a ray. t and phi broadcast against them: flat,
    one entry a ray, or one column entry per row of a block of fibers, so
    that a symbol evaluates f(t) once a row. Indexing selects along the
    first axis; flat(idx) picks rays by flat index, one entry each.
    """

    def __init__(self, map_: MomentMap, E1: float, t, phi, c, s):
        self.map_, self.E1 = map_, E1
        self.t, self.phi, self.c, self.s = t, phi, c, s

    def __len__(self):
        return len(self.s)

    def __getitem__(self, idx) -> "_Rays":
        return _Rays(self.map_, self.E1, self.t[idx], self.phi[idx], self.c[idx], self.s[idx])

    def flat(self, idx) -> "_Rays":
        at = np.unravel_index(idx, self.s.shape)
        t, phi, c, s = (np.broadcast_to(a, self.s.shape)[at] for a in (self.t, self.phi, self.c, self.s))
        return _Rays(self.map_, self.E1, t, phi, c, s)

    def residual(self, r):
        """p1 - E1 at radii r, whose trailing axes run over the rays.

        Read-only when p1 does not depend on xi: it is broadcast to r.
        """
        xi_t, xi_phi = r * self.c, r * self.s
        return np.broadcast_to(self.map_.p1(self.t, self.phi, xi_t, xi_phi) - self.E1, xi_t.shape)


def _any_ray(mask):
    """Per entry of the first axis (a ray, or a row of rays), whether any ray is set."""
    return mask.any(axis=tuple(range(1, mask.ndim)))


def _newton(rays: _Rays, seed):
    """(radii, landed): up to 12 Newton steps from seed.

    Radii are NaN unless |p1 - E1| <= _FIBER_TOL. Slopes are exact; a
    zero slope leaves a ray where it stands. Rays with no usable seed (NaN
    or <= 0) come back NaN. A ray whose step is at most _ULPS floats has
    landed: it leaves with the radius and residual it stepped from, so
    Newton seeded from a radius that landed lands there again at once.
    Rows of a block are stepped while any of their rays is; a ray that has
    left stays where it stood, so every ray takes the steps it would take
    alone.
    """
    r = np.where(np.isfinite(seed) & (seed > 0), seed, np.nan)
    resid = np.full(r.shape, np.nan)
    landed = np.zeros(r.shape, dtype=bool)
    on = np.isfinite(r)
    live = np.flatnonzero(_any_ray(on))
    sub, here, on = rays[live], r[live], on[live]
    for _ in range(12):
        if not live.size:
            break
        g = sub.residual(here)
        d_t, d_p = sub.map_.partials("p1", sub.t, sub.phi, here * sub.c, here * sub.s, over=_XI)
        with np.errstate(divide="ignore", invalid="ignore"):
            dr = g / (sub.c * d_t + sub.s * d_p)
        there = np.maximum(here - np.where(np.isfinite(dr), dr, 0.0), 1e-12)
        done = on & (np.abs(there - here) <= _ULPS * np.spacing(here))
        r[live] = np.where(done, here, r[live])
        resid[live] = np.where(done, g, resid[live])
        landed[live] |= done
        on &= ~done
        go = _any_ray(on)
        live, sub, on = live[go], sub[go], on[go]
        here = np.where(on, there[go], here[go])
    if live.size:
        r[live] = np.where(on, here, r[live])
        resid[live] = np.where(on, sub.residual(here), resid[live])
    ok = np.abs(resid) <= _FIBER_TOL
    return np.where(ok, r, np.nan), ok & landed


def _least(rays: _Rays, r):
    """Where |p1 - E1| is least within _ULPS floats either side of r.

    Returns (offset, float, crossed, level): the offset counts floats
    from r, negative toward 0, ties going to the smaller float; crossed
    is True where p1 - E1 takes both signs, or 0, in the window, and
    level where it takes one value throughout.
    """
    lo, hi = [r], [r]
    for _ in range(_ULPS):
        lo.append(np.nextafter(lo[-1], -np.inf))
        hi.append(np.nextafter(hi[-1], np.inf))
    window = lo[:0:-1] + hi
    g = rays.residual(np.stack(window))
    size = np.abs(g)
    # the first least size along the window, float by float; NaN is never
    # less, so only a NaN at the start needs replacing
    least, step, best = np.where(np.isnan(size[0]), np.inf, size[0]), 0, window[0]
    for k in range(1, len(window)):
        better = size[k] < least
        least = np.where(better, size[k], least)
        step = np.where(better, k, step)
        best = np.where(better, window[k], best)
    low, high = g.min(axis=0), g.max(axis=0)
    return step - _ULPS, best, (low <= 0.0) & (high >= 0.0), low == high


def _canonical(rays: _Rays, radii):
    """Each radius moved to the float of least |p1 - E1| near it.

    A radius moves to the float of least |p1 - E1| within _ULPS floats
    either side (_least), up to _MOVES times, until it is that float
    itself. The move is kept when the float it rests on has a sign change
    of p1 - E1 in its window (it is certified). On the verdicts
    benchmark's arcs, Newton landings from every seed tried came to rest
    on one float, so the radius did not depend on the seed; that is
    measured, not proved, and _walk does not rely on it. A radius that
    does not come to rest, or rests without a sign change (a multiple
    root, which Newton nears only linearly), comes back as given; so does
    one whose window is level, where ties would move it on without end,
    and a NaN. Either way a result given again comes back unchanged.
    """
    step, out, crossed, level = _least(rays, radii)
    ok = np.isnan(radii) | ((step == 0) & crossed)
    todo = np.flatnonzero((step != 0) & ~ok & ~level)
    for _ in range(_MOVES - 1):
        if not todo.size:
            break
        step, out.flat[todo], crossed, level = _least(rays.flat(todo), out.flat[todo])
        ok.flat[todo[(step == 0) & crossed]] = True
        todo = todo[(step != 0) & ~level]
    return np.where(ok, out, radii)


def _solve(rays: _Rays, seed, known=None):
    """(radii, landing): Newton from seed, the scan where it misses, then _canonical.

    landing holds the float Newton landed on, NaN where it did not land
    (_newton): _solve seeded from it gives the same radius. known, if
    given, holds radii that _solve gave the same rays before. A ray that
    lands on its known radius keeps it without a window search, since
    _canonical leaves its own results where they are.
    """
    radii, landed = _newton(rays, seed)
    landing = np.where(landed, radii, np.nan)
    miss = np.flatnonzero(np.isnan(radii))
    if miss.size:
        radii.flat[miss] = _scan(rays.flat(miss))
    if known is None:
        return _canonical(rays, radii), landing
    todo = np.flatnonzero(radii != known)
    if todo.size:
        radii.flat[todo] = _canonical(rays.flat(todo), radii.flat[todo])
    return radii, landing


def _chunks(n_rays: int, n_samples: int):
    """Slices of n_rays rays, n_samples radii per ray making about _BLOCK points a slice."""
    width = max(1, _BLOCK // n_samples)
    return [slice(a, a + width) for a in range(0, n_rays, width)]


def _scan(rays: _Rays):
    """Radii of the level set along each ray, found from the geometric scan.

    A ray whose residual changes sign between two scan radii takes Newton
    from the middle of the first such bracket; where Newton misses or
    leaves the bracket, the bracket is bisected. A ray with no sign change
    is refined around its smallest finite residual (a tangential touch).
    Bisected and refined radii meet the tolerance only, so Newton polishes
    them where it can. Rays that never reach the level set come back NaN.
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
    lo, hi = _SCAN_RADII[bracket[crossed]], _SCAN_RADII[bracket[crossed] + 1]
    radii[crossed], _ = _newton(rays[crossed], 0.5 * (lo + hi))
    # a root on a scan radius may land a few floats past the bracket
    out = ~((radii[crossed] >= lo * (1.0 - 1e-12)) & (radii[crossed] <= hi * (1.0 + 1e-12)))
    rough = crossed[out]
    if rough.size:
        radii[rough] = _bisect(rays[rough], lo[out], hi[out])
    touch = np.flatnonzero((bracket < 0) & (nearest >= 0))
    for cols in _chunks(len(touch), 101):
        radii[touch[cols]] = _tangent(rays[touch[cols]], nearest[touch[cols]])
    rough = np.concatenate([rough, touch])
    if rough.size:
        polished, _ = _newton(rays[rough], radii[rough])
        radii[rough] = np.where(np.isnan(polished), radii[rough], polished)
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


def _walk(rays: _Rays, prev):
    """Radii of a block of consecutive fibers, one row of rays each.

    The result is the plain row-by-row walk exactly: every ray is solved
    by _solve seeded from the same ray one fiber up, from prev for the
    first fiber; with prev None the first fiber comes from the scan
    alone. All fibers are first solved at once from prev. A ray whose
    radius one fiber up is prev, or the float its Newton steps landed on,
    already has its walk radius. Every other ray is solved again from the
    ray above, and so is every ray whose radius above then moves, round
    after round until no radius moves. Canonical radii mostly stay put,
    so the rounds are few and small.
    """
    if prev is None:
        head, _ = _solve(rays[:1], np.full(rays.s[:1].shape, np.nan))
        return np.concatenate([head, _walk(rays[1:], head[0])]) if len(rays) > 1 else head
    radii, landing = _solve(rays, np.broadcast_to(prev, rays.s.shape))
    n = radii.shape[1]
    above = radii[:-1]
    # radii.flat[k] sits below radii.flat[k - n]
    todo = n + np.flatnonzero(~(_same(above, prev) | (above == landing[1:])))
    while todo.size:
        old = radii.flat[todo]
        radii.flat[todo], _ = _solve(rays.flat(todo), radii.flat[todo - n], known=old)
        todo = todo[~_same(radii.flat[todo], old)] + n
        todo = todo[todo < radii.size]
    return radii


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

    DSL rows are walked together, as one block of rays (_walk), from
    prev, the last fiber of the previous block; the first row of an arc
    (prev None) comes from the scan, as do rays Newton cannot place.
    A row whose rays all miss raises FiberError, so every row holds a
    finite point.
    """
    cs, sn = np.cos(sigmas), np.sin(sigmas)
    f = map_.surface.value(ts)[:, None]
    shape = (len(ts), len(sigmas))
    if map_.is_builtin_p1:
        if E1 < 0.0:
            raise FiberError(f"empty fiber: p1 >= 0 everywhere but E1 = {E1}")
        radii = np.full(shape, np.sqrt(E1))
    else:
        rays = _Rays(map_, E1, ts[:, None], phis[:, None], np.broadcast_to(cs, shape), f * sn)
        radii = _walk(rays, prev)
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

# the columns of _Band's held points
_D, _RATE, _FLAT, _P2, _DERIV, _XT, _XP = range(7)


class _Band:
    """The least |d p2/d tau| over the band |p2 - E2| < epsilon, a block at a time.

    Blocks come in row-major order, each with the flat index of its first
    point and the points' p2, rate and covector. The winner is the point
    of least (|rate|, flat index): the argmin of one row-major scan over
    the band.

    With epsilon given, a block's band is known at once. By default
    epsilon is 5% of the p2 range, known only at the end; the range so
    far gives a lower bound eps_lo that only grows. Points below it are
    surely in the band and feed `best`. Points at or above it that beat
    `best` are held, and of those only the ones that no held point beats
    at a smaller or equal |p2 - E2| (_frontier): once the band's edge
    passes a point it passes every point nearer E2, so a point beaten by
    a nearer one never wins. Held points, one column each (rows _D ...
    _XP), are sorted by |p2 - E2|, with |rate| never rising.
    """

    def __init__(self, E2: float, epsilon: Optional[float]):
        self.E2, self.epsilon = E2, epsilon
        self.lo, self.hi = np.inf, -np.inf
        self.best = None  # one held-point column
        self.held = np.empty((7, 0))

    def eps(self) -> float:
        """epsilon, or its lower bound eps_lo while blocks still come."""
        if self.epsilon is not None:
            return float(self.epsilon)
        return 0.05 * float(self.hi - self.lo)

    def add(self, start: int, p2, rate, xi_t, xi_phi):
        # fmin and fmax skip NaN, as nanmin and nanmax do
        self.lo = min(self.lo, np.fmin.reduce(p2, axis=None))
        self.hi = max(self.hi, np.fmax.reduce(p2, axis=None))
        eps = self.eps()
        d, a = np.abs(p2 - self.E2).ravel(), np.abs(rate).ravel()
        # NaN p2 (a ray that missed) is never below eps; a non-finite rate
        # is outside the band too
        inside = np.where(d < eps, a, np.inf)
        i = int(np.argmin(inside))
        if np.isnan(inside[i]):
            inside[np.isnan(inside)] = np.inf
            i = int(np.argmin(inside))
        if inside[i] < np.inf:
            self._offer(self._points(start, [i], d, a, p2, rate, xi_t, xi_phi))
        if self.epsilon is None:
            outside = d >= eps
            if self.best is None:
                maybe = outside & np.isfinite(a)
            else:
                # a tie in |rate| beats best only ahead of it
                least, cut = self.best[_RATE, 0], max(int(self.best[_FLAT, 0]) - start, 0)
                maybe = outside & (a < least)
                maybe[:cut] |= outside[:cut] & (a[:cut] == least)
            i = np.flatnonzero(maybe)
            d_i, a_i = d[i], a[i]
            if i.size and self.held.shape[1]:
                # the held point nearest E2 but no nearer than a new point
                # has the least |rate| of those and comes earlier: the new
                # point must beat it
                near = np.searchsorted(self.held[_D], d_i, side="right") - 1
                keep = (near < 0) | (a_i < self.held[_RATE, np.maximum(near, 0)])
                i, d_i, a_i = i[keep], d_i[keep], a_i[keep]
            if i.size:
                i = i[_frontier(d_i, a_i, start + i)]
                new = self._points(start, i, d, a, p2, rate, xi_t, xi_phi)
                pts = np.concatenate([self.held, new], axis=1)
                self.held = pts[:, _frontier(pts[_D], pts[_RATE], pts[_FLAT])]
            self._settle(eps)

    @staticmethod
    def _points(start, i, d, a, p2, rate, xi_t, xi_phi):
        """Held-point columns of the block's points at flat offsets i."""
        return np.stack([d[i], a[i], np.add(start, i, dtype=float)]
                        + [np.ravel(x)[i] for x in (p2, rate, xi_t, xi_phi)])

    def _beating(self, pts):
        """The columns of pts whose (|rate|, flat) is less than best's."""
        if self.best is None:
            return pts
        a, i = self.best[_RATE, 0], self.best[_FLAT, 0]
        return pts[:, (pts[_RATE] < a) | ((pts[_RATE] == a) & (pts[_FLAT] < i))]

    def _offer(self, pts):
        """Make the least of pts best, if it beats best."""
        pts = self._beating(pts)
        if pts.shape[1]:
            tie = np.flatnonzero(pts[_RATE] == pts[_RATE].min())
            self.best = pts[:, [tie[np.argmin(pts[_FLAT, tie])]]]

    def _settle(self, eps: float):
        """Move held points below eps into the running best, then prune."""
        inside = self.held[_D] < eps
        if inside.any():
            self._offer(self.held[:, inside])
            self.held = self._beating(self.held[:, ~inside])

    def finish(self):
        """(epsilon, max |p2|, the winning column or None)."""
        eps = self.eps()
        top = max(abs(self.lo), abs(self.hi))
        if eps <= 0.0:
            eps = 0.05 * max(top, 1.0)
        self._settle(eps)
        return eps, float(top), self.best


def _frontier(d, a, flat):
    """Indices of the points that no point at a smaller or equal d beats.

    Of points (d, a, flat) = (|p2 - E2|, |rate|, flat index), one at a
    smaller or equal d beats another when its (a, flat) is less. The
    indices are sorted by d, with a never rising; of points at equal d
    a few beaten ones may stay.
    """
    order = np.argsort(d)
    a = a[order]
    keep = a <= np.minimum.accumulate(np.concatenate([[np.inf], a[:-1]]))
    order, a = order[keep], a[keep]
    step = a[1:] != a[:-1]
    if step.all():
        return order
    # equal a now sit side by side; of those, the least flat index wins
    flat = np.asarray(flat)[order].astype(np.int64)
    run = np.concatenate([[0], np.cumsum(step)])
    key = flat - run * (int(flat.max()) + 1)
    ahead = np.minimum.accumulate(np.concatenate([[np.iinfo(np.int64).max], key[:-1]]))
    return order[key < ahead]


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

    # one walk along the arc; the band keeps only its best point and the
    # points that may still beat it
    t_m, phi_m = np.empty(n_tau), np.empty(n_tau)
    band = _Band(energies.E2, energies.epsilon)
    principal_ok = True
    for rows, t, phi, xi_t, xi_phi, radii in _arc_fibers(map_, geod, E1, taus, sigmas):
        deriv, ok = _rates(map_, geod, t, phi, xi_t, xi_phi, radii, sigmas)
        principal_ok = principal_ok and ok
        p2 = np.broadcast_to(map_.p2(t[:, None], phi[:, None], xi_t, xi_phi), xi_t.shape)
        band.add(rows.start * n_fiber, p2, deriv, xi_t, xi_phi)
        t_m[rows], phi_m[rows] = t, phi

    eps, scale, best = band.finish()
    thr = float(threshold) if threshold is not None else 1e-3 * (scale if scale > 0.0 else 1.0)
    verdict, min_der, witness = "empty-band", None, None
    if best is not None:
        i, j = divmod(int(best[_FLAT, 0]), n_fiber)
        min_der = float(best[_RATE, 0])
        witness = {
            "tau": float(taus[i]),
            "sigma": float(sigmas[j]),
            "t": float(t_m[i]),
            "phi": float(phi_m[i]),
            "xi_t": float(best[_XT, 0]),
            "xi_phi": float(best[_XP, 0]),
            "p2": float(best[_P2, 0]),
            "derivative": float(best[_DERIV, 0]),
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
