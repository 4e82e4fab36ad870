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
Every derivative is exact, from the symbols' partials, differentiated on
their expressions and compiled as one program (MomentMap._program).

Every fiber is sampled along one family of rays, the metric-coframe
directions at equally spaced angles sigma:

    xi_t = r cos(sigma),   xi_phi = r f(t) sin(sigma).

Along each ray p1 is read as a polynomial in r, sum_d a_d(x, w) r^d on
the unit ray w, the a_d read off the expression and compiled as one
program (MomentMap.p1_grades, which refuses any other p1 with ValueError),
and every root of p1 = E1 on the ray is taken in closed form:

* Where p1 has one grade d > 0, homogeneous of degree d in xi, a_d is
  p1 itself and r = (E1 / p1(x, w))^(1/d) (an ellipse for the builtin
  metric Hamiltonian, d = 2). It depends on the parsed symbol alone, so
  the builtin symbols and their text give one report, bit for bit.
* Where p1 is a ray polynomial, of grades 0 and up, each ray takes
  all of its positive roots (_roots): -a_0/a_1, the cancellation-free
  quadratic formula, or companion-matrix eigenvalues. A ray of top degree
  m holds m roots, ascending and padded with NaN, and the root axis is
  folded into the fiber axis, so every later step sees one 2-D block. A
  p1 of grade 0 alone is constant along each ray, so no ray meets its
  level set in a point.

Every fiber whose level set reaches past _MAX_RADIUS raises FiberError
(_fibers), by one rule for both kinds: a root beyond it, or p1 - E1 at
that radius not of one strict sign on every ray of the fiber. A band or
threshold read off the sample would be set by that cutoff, not by the
symbol.

The verdict is reduced a block at a time (_Band), so no array spans the
whole arc: as the blocks pass, it keeps the p2 range and the frontier of
the points that could still win, whatever the band's edge turns out to
be; the least rate in the band is read from that frontier at the end.

Each check makes one workspace (_Workspace), passes it to every step and
every block reuses it: the fiber points, the partials of p1 and p2, the
rate and the band's |p2 - E2|, |rate| and masks are written into its
arrays with out=, made at the first block's shape, and a shorter last
block takes views of them. The workspace goes with the check; nothing
block-sized is kept between checks.
"""

from __future__ import annotations

import numbers
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

# residual tolerance for the roots of a ray polynomial: |p1 - E1| over the
# size of its terms, or over 1 where they are smaller
_FIBER_TOL = 1e-10
# no fiber radius lies beyond this
_MAX_RADIUS = 1e3
# |grad_xi p1| must exceed this for real principal type
_PRINCIPAL_TOL = 1e-6
# fiber rays per block along the arc
_BLOCK = 1 << 15
_XI = ("xi_t", "xi_phi")


class FiberError(ValueError):
    """The level set p1 = E1 misses every ray of a fiber, or reaches _MAX_RADIUS."""


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


class _Workspace:
    """The block-sized arrays of one check, one for each role, reused block by block.

    A role's array is made at the first shape asked of it, the first and
    largest block of the arc (_arc_fibers); a shorter last block takes a
    view of its first rows. A workspace lives no longer than its check,
    and every step of the check is given it. _fibers' radii, xi_t and
    xi_phi hold until the block is reduced; other roles serve steps whose
    values do not overlap: _rates' temporaries tau, r and term serve
    _principal_ok before it and _Band.add after it, and a program's
    buffers (_partials) take the roles 0, 1, ...
    """

    def __init__(self):
        self._arrays = {}

    def array(self, role, shape, dtype=float):
        a = self._arrays.get(role)
        if a is None or a.shape[1:] != shape[1:] or len(a) < shape[0]:
            a = self._arrays[role] = np.empty(shape, dtype)
        return a[: shape[0]]


def _grid(grid) -> tuple[int, int]:
    """(n_tau, n_fiber) of a sample grid: two integer counts, each at least 32.

    An integer count may be a float with no fraction, as in a config.
    """
    counts = tuple(grid)
    if len(counts) != 2 or not all(
        isinstance(n, numbers.Integral) or isinstance(n, numbers.Real) and float(n).is_integer() for n in counts
    ):
        raise ValueError(f"grid must be two integer counts (n_tau, n_fiber), not {grid!r}")
    n_tau, n_fiber = (int(n) for n in counts)
    if n_tau < 32 or n_fiber < 32:
        raise ValueError("grid counts must be at least 32 each")
    return n_tau, n_fiber


def _angles(n: int):
    return 2.0 * np.pi * np.arange(n) / n


def _fibers(map_: MomentMap, ts, phis, E1: float, sigmas, work: _Workspace):
    """Fibers over the base points (ts[i], phis[i]) along the coframe rays.

    Returns (xi_t, xi_phi, radii, coframe), the first three of shape
    (len(ts), m len(sigmas)) with NaN where a ray has no root, and coframe
    the unit rays w = (cos sigma, sin sigma, f(t) sin sigma) of their
    columns: column j m + k holds root k of ray j. p1's degrees and the
    program of its coefficients are MomentMap.p1_grades. Of one grade
    d > 0, p1 has m = 1 and the radius (E1 / p1(x, w))^(1/d), from one p1
    call a block; a ray misses where that is not a float >= 0. Otherwise m
    is the top grade: the coefficients come from one program run a block,
    on the unit rays, and each ray takes its roots (_roots). The level set
    reaches past _MAX_RADIUS, which raises FiberError, where a ray has a
    root beyond it or a row's p1 - E1 at that radius is not of one strict
    sign. A row whose rays all miss raises FiberError. xi_t, xi_phi and,
    for one grade, radii are work's arrays, which the next block
    overwrites.
    """
    degrees, coefficients = map_.p1_grades
    cs, sn = np.cos(sigmas), np.sin(sigmas)
    f = map_.surface.value(ts)[:, None]
    s = f * sn
    shape = (len(ts), len(sigmas))
    d = degrees[-1]
    if len(degrees) == 1 and d > 0:
        a = np.broadcast_to(map_.p1(ts[:, None], phis[:, None], cs, s), shape)
        # in place: a fresh block-sized array costs more than a pass over it
        with np.errstate(all="ignore"):
            radii = np.divide(E1, a, out=work.array("radii", shape))
            radii **= 1.0 / d  # numpy takes the square root itself at d = 2
            # p1 - E1 at r = _MAX_RADIUS has the sign of a - level (0 if 1e3^d overflows)
            far, level = a, E1 / np.float64(_MAX_RADIUS) ** d
    else:
        a = np.zeros((d + 1,) + shape)
        for k, value in zip(degrees, coefficients(ts[:, None], phis[:, None], cs, s)):
            a[k] = value
        a[0] -= E1
        with np.errstate(all="ignore"):
            far, level = np.polynomial.polynomial.polyval(_MAX_RADIUS, a), 0.0
            roots = _roots(a.reshape(len(a), -1))
        radii = roots.reshape(len(ts), -1)
        cs, sn, s = (np.repeat(x, roots.shape[1], axis=-1) for x in (cs, sn, s))
    crosses = ~((far > level).all(axis=1) | (far < level).all(axis=1))
    del a, far  # so that the arrays made below can take their memory
    radii[~(radii >= 0.0)] = np.nan  # a ray misses where its radius is negative or NaN
    if crosses.any() or (radii > _MAX_RADIUS).any():
        raise FiberError(f"unbounded fiber: level set p1 = {E1} reaches radius {_MAX_RADIUS:g}")
    if not np.isfinite(radii).any(axis=1).all():
        raise FiberError(f"empty fiber: level set p1 = {E1} not met along any of {len(sigmas)} rays")
    xi_phi = np.multiply(radii, f, out=work.array("xi_phi", radii.shape))
    xi_phi *= sn  # radii * f * sn, without a second array
    return np.multiply(radii, cs, out=work.array("xi_t", radii.shape)), xi_phi, radii, (cs, sn, s)


def _roots(a):
    """The positive roots of sum_d a[d] r^d, one polynomial a column of a.

    Returns (columns, max(m, 1)) for m = len(a) - 1, rows ascending and
    NaN-padded. A column is solved at its own degree (_candidates), that of
    its top term whose size at _MAX_RADIUS exceeds eps times every lower
    term's: a term left out changes p by at most eps of its terms' size on
    (0, _MAX_RADIUS], and the companion matrices stay balanced (as where
    cos(sigma) rounds to 6e-17). A candidate is kept on the level set
    (_on_level); neighbouring roots whose midpoint is on it too are one
    tangential touch, and the first is kept.
    """
    m = len(a) - 1
    roots = np.full((a.shape[1], max(m, 1)), np.nan)
    size = np.abs(a) * (_MAX_RADIUS ** np.arange(m + 1))[:, None]
    significant = size[1:] > np.finfo(float).eps * np.maximum.accumulate(size, axis=0)[:-1]
    top = (significant * np.arange(1, m + 1)[:, None]).max(axis=0, initial=0)
    for k in range(1, m + 1):
        cols = np.flatnonzero(top == k)
        if cols.size:
            roots[cols, :k] = _candidates(a[: k + 1, cols])
    roots[~(_on_level(a, roots) & (roots > 0.0))] = np.nan
    roots.sort(axis=1)  # NaN last
    touch = _on_level(a, 0.5 * (roots[:, :-1] + roots[:, 1:]))
    if touch.any():
        roots[:, 1:][touch] = np.nan
        roots.sort(axis=1)
    return roots


def _candidates(c):
    """Candidate real roots of sum_d c[d] r^d of degree k, shape (columns, k).

    Each real root, and the real part of one root of each complex
    conjugate pair, where a multiple real root may have landed: -c0/c1 at
    k = 1; the quadratic formula in its cancellation-free form at k = 2
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 1.8); at k = 3 and 4 the eigenvalues of the companion matrices
    (Edelman and Murakami, Math. Comp. 64 (1995)). NaN fills the rest.
    """
    k = len(c) - 1
    if k == 1:
        return (-c[0] / c[1])[:, None]
    if k == 2:
        c0, c1, c2 = c
        disc = c1 * c1 - 4.0 * c2 * c0
        q = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))
        pair = disc < 0.0
        return np.stack([np.where(pair, -0.5 * c1 / c2, q / c2), np.where(pair, np.nan, c0 / q)], axis=1)
    companion = np.zeros((c.shape[1], k, k))
    companion[:, 0] = -(c[k - 1 :: -1] / c[k]).T
    companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    z = np.linalg.eigvals(companion)
    return np.where(z.imag >= 0.0, z.real, np.nan)


def _on_level(a, r):
    """Whether |p| <= _FIBER_TOL max(1, sum_d |a[d] r^d|) for p = sum_d a[d] r^d.

    Relative to the size of p's terms, so that rounding loses no large
    root. p and the size are two Horner sums taken in one loop,
    along r.T: a row of r holds a column's few candidates, so numpy's
    inner loops run over the columns.
    """
    r = r.T
    p, size = np.zeros(r.shape), np.zeros(r.shape)
    ar = np.abs(r)
    for ad in a[::-1]:
        p *= r
        p += ad
        size *= ar
        size += np.abs(ad)
    return (np.abs(p) <= _FIBER_TOL * np.maximum(1.0, size)).T


def _arc_fibers(map_: MomentMap, geod: Geodesic, E1: float, taus, sigmas, work: _Workspace):
    """The fibers over geod(taus), a block of rows at a time.

    Yields (rows, t, phi, xi_t, xi_phi, radii, coframe) with rows a slice
    of taus and the rest as _fibers gives it, in work; a block
    holds about _BLOCK rays, which bounds the memory of every step that
    follows.
    """
    step = max(1, _BLOCK // len(sigmas))
    for start in range(0, len(taus), step):
        rows = slice(start, start + step)
        t, phi = geod.point(taus[rows], checked=False)
        yield (rows, t, phi, *_fibers(map_, t, phi, E1, sigmas, work))


# -- principal type and rates -------------------------------------------------


def _into(ufunc, a, b, out):
    """ufunc(a, b), written into out where a or b has out's shape, else a fresh value."""
    if np.shape(a) == out.shape or np.shape(b) == out.shape:
        return ufunc(a, b, out=out)
    return ufunc(a, b)


def _nonzero_quotient(a, b, out, keep, bits):
    """a / b where a != 0, else +0.0, into out: np.divide(a, b, where=a != 0) into zeros.

    keep (bool) and bits (int64) are scratch arrays of out's shape. A
    where= divide branches on every point, and rounding scatters the zeros
    of d_tau p1 (a third of a builtin longitude's points), which costs it
    four plain divides. Here the quotient's bits are and'ed with all ones
    where a != 0 and with zeros where it is 0.
    """
    np.divide(a, b, out=out)
    np.negative(np.not_equal(a, 0.0, out=keep), out=bits, dtype=np.int64)
    np.bitwise_and(out.view(np.int64), bits, out=out.view(np.int64))
    return out


def _partials(map_: MomentMap, slots, over, t, phi, xi_t, xi_phi, work: _Workspace):
    """The partials of slots in over (MomentMap._program), evaluated in work's buffers."""
    program = map_._program(slots, over)
    return program(t, phi, xi_t, xi_phi, buffers=[work.array(k, xi_t.shape) for k in range(program.nbuf)])


def _principal_ok(xi_t, d_t, d_p, work: _Workspace) -> bool:
    """True iff |grad_xi p1| = |(d_t, d_p)| > 1e-6 at every finite point of xi_t."""
    shape = xi_t.shape
    tau, term = work.array("tau", shape), work.array("term", shape)
    grad2 = _into(np.add, _into(np.multiply, d_t, d_t, tau), _into(np.multiply, d_p, d_p, term), tau)
    low = np.greater(grad2, _PRINCIPAL_TOL**2, out=work.array("mask", shape, bool))
    np.logical_not(low, out=low)
    low &= np.isfinite(xi_t, out=work.array("pick", shape, bool))
    return not low.any()


def check_principal_type(map_: MomentMap, geod: Geodesic, E1: float, grid=(128, 128)) -> bool:
    """True iff |grad_xi p1| > 1e-6 at every sampled point of C_gamma.

    grid is (n_tau, n_fiber), each count >= 32 (ValueError otherwise).
    """
    n_tau, n_fiber = _grid(grid)
    taus = np.linspace(geod.param_range[0], geod.param_range[1], n_tau)
    work = _Workspace()
    for _, t, phi, xt, xp, *_ in _arc_fibers(map_, geod, E1, taus, _angles(n_fiber), work):
        if not _principal_ok(xt, *_partials(map_, ("p1",), _XI, t[:, None], phi[:, None], xt, xp, work), work):
            return False
    return True


def _rates(map_: MomentMap, geod: Geodesic, t, phi, xi_t, xi_phi, radii, coframe, work: _Workspace):
    """(d p2 / d tau at fixed sigma, principal type of p1), one base point a row.

    coframe is the block's (cos sigma, sin sigma, f(t) sin sigma) (_fibers).
    The radius r(tau) of each ray solves p1 = E1, so r' = -d_tau p1 / d_r p1,
    with d_tau taken at fixed r. Then d p2 / d tau = d_tau p2 + d_r p2 r'.
    Where d_tau p1 is exactly 0, r' is 0, even if d_r p1 vanishes too; where
    it is the scalar 0, as on a latitude arc, r' is the scalar 0.

    The partials of p1 and p2 come from one program, and every block-sized
    value is written into work's arrays, the rate too, which the next block
    there overwrites.
    """
    shape = xi_t.shape
    t, phi = t[:, None], phi[:, None]
    c, sn, s = coframe
    # at fixed r, tau moves (t, phi) along the arc and, as t moves, turns
    # the coframe: xi_phi = r f(t) sin(sigma)
    speed = {v: d for v, d in zip(("t", "phi"), geod.tangent()) if d}
    if "t" in speed:
        turn = np.multiply(map_.surface.derivative(t), speed["t"] * sn, out=work.array("speed", shape))
        speed["xi_phi"] = np.multiply(radii, turn, out=turn)
    names = tuple(dict.fromkeys(_XI + tuple(speed)))
    partials = _partials(map_, ("p1", "p2"), names, t, phi, xi_t, xi_phi, work)
    d1, d2 = dict(zip(names, partials)), dict(zip(names, partials[len(names):]))
    tau, r, term, rate = (work.array(role, shape) for role in ("tau", "r", "term", "rate"))

    def along(d):
        """d_tau p at fixed r of one symbol, summed from 0 as sum() adds."""
        total = 0
        for v in speed:
            total = _into(np.add, total, _into(np.multiply, d[v], speed[v], term), tau)
        return total

    def radial(d):
        """d_r p of one symbol on the unit rays."""
        return _into(np.add, _into(np.multiply, c, d["xi_t"], r), _into(np.multiply, s, d["xi_phi"], term), r)

    with np.errstate(all="ignore"):
        ok = _principal_ok(xi_t, d1["xi_t"], d1["xi_phi"], work)  # before tau and term take the rate's values
        tau1 = along(d1)
        if np.ndim(tau1) == 0 and tau1 == 0.0:
            ratio = 0.0
        else:
            ratio = _nonzero_quotient(tau1, radial(d1), rate, work.array("mask", shape, bool), term.view(np.int64))
        tau2, r2 = along(d2), radial(d2)
        rate = _into(np.subtract, tau2, _into(np.multiply, r2, ratio, rate), rate)
        return rate, ok


# -- the admissibility verdict -------------------------------------------------

# the columns of _Band's held points
_D, _RATE, _FLAT, _P2, _DERIV, _XT, _XP = range(7)


class _Band:
    """The least |d p2/d tau| over the band |p2 - E2| < epsilon, a block at a time.

    Blocks come in row-major order, each with the flat index of its first
    point and the points' p2, rate and covector. The winner is the point
    of least (|rate|, flat index): the argmin of one row-major scan over
    the band.

    Whatever the final epsilon, the winner is a point that no point at a
    smaller or equal |p2 - E2| beats, so held keeps the frontier of the
    points seen (_frontier), in the band or not: one column each (rows _D
    ... _XP), sorted by |p2 - E2|, with (|rate|, flat index) falling. The
    winner is the last held column in the band.

    By default epsilon is 5% of the p2 range, known only at the end; the
    range so far gives a lower bound eps_lo that only grows. Given, epsilon
    is its own eps_lo. A point below eps_lo is surely in the band, so of a
    block's points below it only the least can win, and of those at or
    beyond it only the ones that beat that point; finish drops the ones
    that end beyond epsilon.
    """

    def __init__(self, E2: float, epsilon: Optional[float], work: _Workspace):
        self.E2, self.epsilon = E2, epsilon
        self.lo, self.hi = np.inf, -np.inf
        self.held = np.empty((7, 0))
        self.work = work

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
        # |p2 - E2|, |rate| and the masks below are made in place, in
        # workspace arrays that _rates is done with
        shape, work = np.shape(rate), self.work
        d = np.subtract(p2, self.E2, out=work.array("tau", shape))
        d = np.abs(d, out=d).ravel()
        a = np.abs(rate, out=work.array("r", shape)).ravel()
        mask, pick, tie = (work.array(role, shape, bool).ravel() for role in ("mask", "pick", "tie"))
        # NaN p2 (a ray that missed) is neither below eps nor beyond it,
        # and a point with a non-finite rate is never a candidate
        np.less(d, eps, out=mask)
        mask &= np.less(a, np.inf, out=pick)
        inside = work.array("term", shape).ravel()
        inside.fill(np.inf)
        np.copyto(inside, a, where=mask)
        k = int(np.argmin(inside))
        least = inside[k]
        beyond = np.greater_equal(d, eps, out=mask)
        # a tie in |rate| beats the least inside only ahead of it
        pick = np.less(a, least, out=pick)
        pick &= beyond
        tie = np.equal(a[:k], least, out=tie[:k])
        tie &= beyond[:k]
        pick[:k] |= tie
        pick[k] |= least < np.inf
        i = np.flatnonzero(pick)
        d_i, a_i = d[i], a[i]
        if i.size and self.held.shape[1]:
            # of the held points no farther from E2 than a new point, the
            # farthest has the least |rate| and comes earlier: the new
            # point must beat it
            near = np.searchsorted(self.held[_D], d_i, side="right") - 1
            keep = (near < 0) | (a_i < self.held[_RATE, np.maximum(near, 0)])
            i, d_i, a_i = i[keep], d_i[keep], a_i[keep]
        if i.size:
            i = i[_frontier(d_i, a_i, start + i)]
            new = np.stack([d[i], a[i], np.add(start, i, dtype=float)]
                           + [np.ravel(x)[i] for x in (p2, rate, xi_t, xi_phi)])
            pts = np.concatenate([self.held, new], axis=1)
            self.held = pts[:, _frontier(pts[_D], pts[_RATE], pts[_FLAT])]

    def finish(self):
        """(epsilon, max |p2|, the winning column or None)."""
        eps = self.eps()
        top = max(abs(self.lo), abs(self.hi))
        if eps <= 0.0:
            eps = 0.05 * max(top, 1.0)
        n = int(np.searchsorted(self.held[_D], eps))  # the columns in the band
        return eps, float(top), self.held[:, [n - 1]] if n else None


def _frontier(d, a, flat):
    """Indices of the points that no point at a smaller or equal d beats.

    Of points (d, a, flat) = (|p2 - E2|, |rate|, flat index), one at a
    smaller or equal d beats another when its (a, flat) is less. The
    indices are sorted by d, with (a, flat) falling; of points at equal d
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
        When the level set p1 = E1 misses every ray of some fiber, or
        reaches past radius 1e3.
    ValueError
        When p1 has no reading along the rays that MomentMap.p1_grades
        supports, before any fiber is sampled.
    """
    n_tau, n_fiber = _grid(grid)
    if threshold is not None and not threshold > 0.0:
        raise ValueError("threshold must be positive")

    a, b = geod.param_range
    taus = np.linspace(a, b, n_tau)
    sigmas = _angles(n_fiber)
    E1 = energies.E1

    # one pass along the arc, every block in one workspace; the band keeps
    # only the points that may still win
    work = _Workspace()
    band = _Band(energies.E2, energies.epsilon, work)
    principal_ok = True
    for rows, t, phi, xi_t, xi_phi, radii, coframe in _arc_fibers(map_, geod, E1, taus, sigmas, work):
        deriv, ok = _rates(map_, geod, t, phi, xi_t, xi_phi, radii, coframe, work)
        principal_ok = principal_ok and ok
        p2 = np.broadcast_to(map_.p2(t[:, None], phi[:, None], xi_t, xi_phi), xi_t.shape)
        # m root columns a ray, so a row is m n_fiber points wide
        width = xi_t.shape[1]
        band.add(rows.start * width, p2, deriv, xi_t, xi_phi)

    eps, scale, best = band.finish()
    thr = float(threshold) if threshold is not None else 1e-3 * (scale if scale > 0.0 else 1.0)
    verdict, min_der, witness = "empty-band", None, None
    if best is not None:
        i, col = divmod(int(best[_FLAT, 0]), width)
        min_der = float(best[_RATE, 0])
        t, phi = geod.point(taus[i], checked=False)
        witness = {
            "tau": float(taus[i]),
            "sigma": float(sigmas[col // (width // n_fiber)]),
            "t": float(t),
            "phi": float(phi),
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
