"""Radial eigensolver for joint Laplace eigenfunctions u = w(t) e^{i k phi}.

Separation of variables on a surface of revolution reduces -Delta u =
lambda u to the singular Sturm-Liouville problem

    -(f^2(t) w')' + (k^2 / f^2(t)) w = lambda w,      t in (-1, 1),

whose natural boundary behavior at the profile zeros f(+-1) = 0 is decay
for k >= 1 and a regular reflection condition for k = 0. On the sphere
profile this is exactly the associated Legendre equation, so lambda =
l(l+1) and the radial factors are the normalized functions N_l^k; that
correspondence is the validation anchor for every other profile.

Discretization: uniform interior grid offset by half a step, t_i = -1 +
(i + 1/2) dt. The divergence term is differenced in flux form with f^2
evaluated at the half-offset points, which makes the matrix symmetric
tridiagonal and kills the boundary flux identically (f^2(+-1) = 0), so
no artificial boundary rows are needed. The plain scheme is second
order; solve_modes sharpens it by Richardson extrapolation across the
N and N/2 grids (eigenvalues combined as (4 a_N - a_{N/2})/3, radial
vectors corrected through 4-point Lagrange resampling of the coarse
solution). Both grids get their vectors from one Rayleigh-quotient
iteration (_refine), one O(N) tridiagonal solve per step. On the coarse
grid (eigenpairs) it starts from two inverse-iteration solves at an
eigenvalue bisected on Sturm sequences only to a tolerance that the
smallest gap certifies, and stays within half the gaps to the
neighbouring eigenvalues. Each fine pair starts from its resampled coarse
vector and must land within half the neighbouring coarse gaps of its
coarse eigenvalue; a miss means the coarse grid does not resolve that
mode.

Radial factors are normalized by 2 pi * sum(w^2) * dt = 1, the discrete
form of the surface L2 normalization in the (t, phi) chart, and signed so
that the entry of largest t among those of at least 1e-3 of the peak
magnitude is positive.
"""

from __future__ import annotations

import hashlib
import io
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._atomic import _atomic_write
from .geometry import ProfileFunction

__all__ = [
    "RadialOperator",
    "JointEigenfunction",
    "assemble_operator",
    "eigenpairs",
    "solve_modes",
    "save_modes",
    "load_modes",
    "solve_modes_cached",
    "profile_hash",
]


@dataclass(frozen=True, eq=False)
class RadialOperator:
    """Symmetric tridiagonal discretization of the radial problem."""

    diag: np.ndarray
    offdiag: np.ndarray
    grid: np.ndarray
    step: float
    k: int

    @property
    def size(self) -> int:
        return len(self.diag)


def assemble_operator(profile: ProfileFunction, k: int, N: int) -> RadialOperator:
    """Assemble the radial operator for angular mode k on an N-point grid.

    Parameters
    ----------
    profile : ProfileFunction
    k : int
        Angular mode, k >= 0.
    N : int
        Interior grid size, N >= 256 and N >= 20 k (the centrifugal term
        k^2/f^2 needs resolution near the profile zeros).

    Returns
    -------
    RadialOperator
        Flux-form symmetric tridiagonal system on the half-offset grid.
    """
    if k < 0:
        raise ValueError("angular mode k must be nonnegative")
    if N < 256:
        raise ValueError("grid too coarse: need N >= 256")
    if N < 20 * k:
        raise ValueError(f"grid too coarse relative to k: need N >= 20*k = {20 * k}")
    dt = 2.0 / N
    t = -1.0 + (np.arange(N) + 0.5) * dt
    half = -1.0 + np.arange(N + 1) * dt
    p = profile.sq(half)  # f^2 at half-offset points; p[0] = p[N] = 0
    diag = (p[:-1] + p[1:]) / dt**2 + (k * k) / profile.sq(t)
    off = -p[1:-1] / dt**2
    return RadialOperator(diag=diag, offdiag=off, grid=t, step=dt, k=k)


def _normalize(vec: np.ndarray, dt: float) -> np.ndarray:
    """Scale to the discrete surface norm 2 pi sum(w^2) dt = 1, sign-fixed.

    The sign makes the entry of largest t with |w| >= 1e-3 max|w| positive.
    The peak alone would not fix it: a mode of a symmetric profile reaches
    its peak magnitude at two mirrored entries, and roundoff picks one.
    """
    w = vec / np.sqrt(2.0 * np.pi * np.sum(vec * vec) * dt)
    mag = np.abs(w[::-1])
    if w[-1 - np.argmax(mag >= 1e-3 * mag.max())] < 0:
        w = -w
    return w


def _matvec(system: RadialOperator, v: np.ndarray) -> np.ndarray:
    out = system.diag * v
    out[:-1] += system.offdiag * v[1:]
    out[1:] += system.offdiag * v[:-1]
    return out


def _norm(system: RadialOperator) -> float:
    """max|d| + 2 max|e|, a bound on the spectral norm ||T||."""
    return float(np.max(np.abs(system.diag)) + 2.0 * np.max(np.abs(system.offdiag)))


# Rayleigh-quotient iteration stops once ||T x - sigma x|| <= _RQI_TOL eps ||T||
# (its floor measured 5e-16 to 1.1e-15 of ||T||) and gives up after
# _RQI_STEPS residual checks. It needs 2 to 4 from a resampled coarse mode
# (fine grid), and 1 or 2 after eigenpairs' two inverse-iteration solves at
# a loosely bisected eigenvalue (coarse grid).
_RQI_TOL = 16.0
_RQI_STEPS = 8


def _solve(system: RadialOperator, shift: float, x: np.ndarray, step_off: float) -> np.ndarray:
    """(T - shift) y = x by one O(N) tridiagonal solve, y of unit norm.

    When shift is an eigenvalue to working precision the factorization
    meets an exactly zero pivot; the solve is then repeated at shift +
    step_off.
    """
    from scipy.linalg import LinAlgError
    from scipy.linalg.lapack import dgtsv

    d, e = system.diag, system.offdiag
    *_, y, info = dgtsv(e, d - shift, e, x)
    if info > 0:
        *_, y, info = dgtsv(e, d - (shift + step_off), e, x)
    if info != 0:
        raise LinAlgError(f"tridiagonal solve failed (info={info}) at shift {shift!r}")
    return y / np.linalg.norm(y)


class _WindowMiss(np.linalg.LinAlgError):  # the class scipy.linalg raises as LinAlgError
    """A refined eigenvalue outside the window that fixes which mode it is."""


def _refine(system: RadialOperator, x: np.ndarray, lo: float, hi: float):
    """Refine start vector x to an eigenpair of `system` by Rayleigh-quotient iteration.

    Returns (lam, vec) with vec of unit Euclidean norm and any sign.
    Raises LinAlgError when the residual does not converge, and its
    subclass _WindowMiss when lam falls outside (lo, hi), the window that
    fixes which mode it must be.
    """
    from scipy.linalg import LinAlgError

    tol = _RQI_TOL * np.finfo(float).eps * _norm(system)
    x = x / np.linalg.norm(x)
    for _ in range(_RQI_STEPS):
        tx = _matvec(system, x)
        lam = float(x @ tx)
        # checked before each solve: at k = 0 the constant vector leaves no
        # residual, and its shift would make the solve exactly singular
        if np.linalg.norm(tx - lam * x) <= tol:
            break
        x = _solve(system, lam, x, tol)
    else:
        raise LinAlgError(
            f"Rayleigh-quotient iteration did not converge in {_RQI_STEPS} steps "
            f"(k={system.k}, N={system.size})"
        )
    if not lo < lam < hi:
        raise _WindowMiss(
            f"refined eigenvalue {lam!r} left its mode's window ({lo!r}, {hi!r}) "
            f"(k={system.k}, N={system.size})"
        )
    return lam, x


def eigenpairs(system: RadialOperator, count: int):
    """First `count` eigenpairs of the assembled system, ascending.

    Bisection on Sturm sequences locates count + 1 eigenvalues to the
    tolerance 1e-8 ||T||, which is certified when 16 times it is at most
    the smallest gap between them; otherwise they are bisected again at
    full precision. Each pair then takes two inverse-iteration solves at
    its bisected eigenvalue from a fixed start, Rayleigh-quotient
    iteration (_refine) inside the window halfway to its neighbours, and
    one last solve at the converged eigenvalue. The certificate puts
    exactly one eigenvalue in each window, so a window miss raises
    LinAlgError only as a solver fault. Eigenvalues that full-precision
    bisection cannot separate (a symmetric profile's pole-localised grid
    modes at high index) share one window. Those and eigenvalues within
    1e-3 of each other relatively get vectors orthogonalised against each
    other; other vectors are orthogonal to about eps ||T|| / gap.

    Vectors are returned in the radial normalization 2 pi sum(w^2) dt =
    1, which makes distinct modes orthonormal in the discrete weighted
    inner product.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if count > system.size // 4:
        raise ValueError(f"count must be at most N/4 = {system.size // 4}")
    from scipy.linalg import LinAlgError, eigvalsh_tridiagonal

    d, e, n = system.diag, system.offdiag, system.size
    norm = _norm(system)
    floor = np.finfo(float).eps * norm  # about the accuracy of full-precision bisection

    def bisect(tol):
        try:
            return eigvalsh_tridiagonal(d, e, select="i", select_range=(0, count), tol=tol)
        except LinAlgError as exc:
            raise LinAlgError(
                f"radial bisection failed for modes 0..{count} (k={system.k}, N={n}): {exc}"
            ) from exc

    tol = 1e-8 * norm
    lams = bisect(tol)
    if 16.0 * tol > np.diff(lams).min():
        lams = bisect(0.0)  # the smallest gap does not certify it: full precision
    gaps = np.diff(lams)
    # Each window reaches halfway to the next eigenvalue that bisection separates
    # from this one. Closer ones (such as the pole-localised pairs of a symmetric
    # profile) are one eigenvalue to working precision and share a window. Both
    # they and eigenvalues within 1e-3 of each other relatively, whose vectors
    # inverse iteration alone separates only to eps ||T|| / gap, are kept
    # orthogonal to each other.
    shared = gaps <= 32.0 * floor
    near = shared | (gaps < 1e-3 * np.abs(lams[1:]))
    mids = np.where(shared, np.nan, (lams[:-1] + lams[1:]) / 2)
    lo = np.fmax.accumulate(np.concatenate([[-np.inf], mids]))
    hi = np.fmin.accumulate(np.concatenate([mids, [np.inf]])[::-1])[::-1]
    cluster = []

    def inverse_step(shift, x):
        y = _solve(system, shift, x, _RQI_TOL * floor)
        if not cluster:
            return y
        for v in cluster:
            y -= (v @ y) * v
        return y / np.linalg.norm(y)

    # a fixed start for every pair; a constant one would be the k = 0 mode itself
    start = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    pairs = []
    for i in range(count):
        if i and not near[i - 1]:
            cluster.clear()
        x = inverse_step(lams[i], inverse_step(lams[i], start))
        try:
            lam, x = _refine(system, x, float(lo[i]), float(hi[i]))
        except LinAlgError as exc:
            # two solves at a certified eigenvalue leave a start inside its window
            raise LinAlgError(f"radial eigensolve failed for mode {i} (k={system.k}, N={n}): {exc}") from exc
        x = inverse_step(lam, x)
        cluster.append(x)
        if shared[i] or (i and shared[i - 1]):
            lam = float(lams[i])  # a shared window's members, bisected at full precision, in order
        pairs.append((lam, _normalize(x, system.step)))
    return pairs


@dataclass(frozen=True, eq=False)
class JointEigenfunction:
    """One joint eigenfunction u(t, phi) = w(t) e^{i k phi}.

    Attributes
    ----------
    k : int
        Angular mode; the second quantum energy is E2(h) = k h.
    l_index : int
        Ordinal of the radial eigenvalue at this k (0 = lowest).
    eigenvalue : float
        lambda with -Delta u = lambda u.
    h : float or None
        Semiclassical parameter lambda^{-1/2}; None for the constant
        mode (lambda = 0).
    radial_grid, radial_values : ndarray
        Samples of the radial factor w on the interior grid.
    profile : ProfileFunction
    """

    k: int
    l_index: int
    eigenvalue: float
    h: Optional[float]
    radial_grid: np.ndarray
    radial_values: np.ndarray
    profile: ProfileFunction

    def radial(self, t):
        """Radial factor w(t) by 4-point Lagrange interpolation; |t| <= 1."""
        t = np.asarray(t, dtype=float)
        if np.any(np.abs(t) > 1.0 + 1e-12):
            raise ValueError("t outside the surface chart [-1, 1]")
        return _interp(self.radial_grid, self.radial_values, t)

    def value(self, t, phi):
        """u(t, phi), complex; vectorized over broadcastable inputs."""
        w = self.radial(t)
        return w * np.exp(1j * self.k * np.asarray(phi, dtype=float))


def _interp(grid, values, t):
    """4-point Lagrange interpolation of samples on the uniform `grid` at t.

    Each t takes the centred stencil of the four nodes around it; on the
    two end segments, and beyond the outer nodes, the four outermost.
    """
    s = (t - grid[0]) / (grid[1] - grid[0])
    j = np.clip(np.floor(s).astype(np.intp) - 1, 0, len(grid) - 4)
    a = s - j  # offsets from the four nodes: a, a - 1, a - 2, a - 3
    b, c, d = a - 1, a - 2, a - 3
    v0, v1, v2, v3 = (values[j + i] for i in range(4))
    return (c * d * (3 * a * v1 - b * v0) + a * b * (c * v3 - 3 * d * v2)) / 6


def _make_mode(profile, k, l_index, lam, grid, values) -> JointEigenfunction:
    # the constant mode's eigenvalue is only numerically zero
    h = None if lam <= 1e-8 else float(lam) ** -0.5
    return JointEigenfunction(
        k=k,
        l_index=l_index,
        eigenvalue=float(lam),
        h=h,
        radial_grid=grid,
        radial_values=values,
        profile=profile,
    )


def solve_modes(profile: ProfileFunction, k: int, count: int, N: int = 4096):
    """First `count` joint eigenfunctions at angular mode k.

    Two-grid Richardson extrapolation over the plain second-order flux
    scheme: eigenvalues (4 lam_N - lam_{N/2})/3, radial vectors
    w + (w - resample(w_coarse))/3, renormalized. Only the N/2 grid is
    bisected (eigenpairs); each fine pair is refined from its resampled
    coarse vector and must stay within half the neighbouring coarse gaps
    of its coarse eigenvalue. Otherwise LinAlgError names the first mode
    the coarse grid does not resolve, say i: count <= i, or a larger N,
    works; other failures of the refinement pass unchanged. N must be
    even and at least 512 so the coarse grid stays valid, and count at
    most N/8.
    """
    if N % 2 or N < 512:
        raise ValueError("solve_modes needs even N >= 512")
    if not 1 <= count <= N // 8:
        raise ValueError(f"count must be between 1 and N/8 = {N // 8}")
    from scipy.linalg import LinAlgError

    fine = assemble_operator(profile, k, N)
    coarse = assemble_operator(profile, k, N // 2)
    # one pair past the last mode, when the coarse grid allows, gives it an upper gap
    pairs_c = eigenpairs(coarse, min(count + 1, N // 8))
    lams_c = [lam for lam, _ in pairs_c]
    modes = []
    for i in range(count):
        lam_c, w_c = pairs_c[i]
        below = lam_c - lams_c[i - 1] if i else lams_c[1] - lam_c
        above = lams_c[i + 1] - lam_c if i + 1 < len(lams_c) else below
        b = _interp(coarse.grid, w_c, fine.grid)
        try:
            lam_f, a = _refine(fine, b, lam_c - below / 2, lam_c + above / 2)
        except _WindowMiss as exc:
            raise LinAlgError(
                f"{exc}: the coarse grid does not resolve mode {i}; "
                f"count <= {i} or a larger N works"
            ) from exc
        a = _normalize(a, fine.step)
        if np.dot(a, b) < 0:
            b = -b
        v = _normalize(a + (a - b) / 3.0, fine.step)
        modes.append(_make_mode(profile, k, i, (4.0 * lam_f - lam_c) / 3.0, fine.grid, v))
    return modes


# -- cache --------------------------------------------------------------------


def profile_hash(profile: ProfileFunction) -> str:
    return hashlib.sha256(profile.canonical_text().encode()).hexdigest()[:12]


# stored in every slot and raised whenever the solver's output changes; a slot
# holding another value (or none) was written by another solver and is a miss
_SLOT_VERSION = 3


def _cache_slot(cache_dir: str, profile: ProfileFunction, k: int, N: int) -> str:
    return os.path.join(cache_dir, f"{profile_hash(profile)}_k{k}_N{N}.npz")


def save_modes(modes, cache_dir: str) -> str:
    """Persist a family of modes (same profile, k, grid) as one .npz slot file.

    The members are version (of the solver that wrote it), profile (its
    canonical text), k, N, eigenvalues (count), grid (N) and radial
    (count x N). The file is published by a single rename, and saving the
    same modes twice gives the same bytes.
    """
    if not modes:
        raise ValueError("nothing to save")
    first = modes[0]
    N = len(first.radial_grid)
    slot = _cache_slot(cache_dir, first.profile, first.k, N)
    buf = io.BytesIO()
    np.savez(
        buf,
        version=_SLOT_VERSION,
        profile=first.profile.canonical_text(),
        k=first.k,
        N=N,
        eigenvalues=[m.eigenvalue for m in modes],
        grid=first.radial_grid,
        radial=[m.radial_values for m in modes],
    )
    os.makedirs(cache_dir, exist_ok=True)
    _atomic_write(slot, buf.getvalue())
    return slot


def load_modes(profile: ProfileFunction, k: int, N: int, count: int, cache_dir: str):
    """Load cached modes, or None when the slot is absent, too small or corrupt.

    A slot that is not a readable .npz (the zip CRC catches a flipped
    data byte), lacks a member, was written by another solver version or
    for another profile, k or N, holds fewer than `count` modes, or has
    arrays whose shape disagrees with N reads as a miss, so the caller
    solves again and rewrites it.
    """
    try:
        with np.load(_cache_slot(cache_dir, profile, k, N)) as slot:
            stored = tuple(slot[name].item() for name in ("version", "profile", "k", "N"))
            lams, grid, radial = slot["eigenvalues"], slot["grid"], slot["radial"]
    # damaged bytes raise many types here: zipfile's BadZipFile, EOFError and
    # RuntimeError (an encryption flag), KeyError for a missing member, and
    # ValueError or tokenize.TokenError from the .npy header parser; an
    # unreadable slot is a miss whatever the type
    except Exception:
        return None
    valid = (
        stored == (_SLOT_VERSION, profile.canonical_text(), k, N)
        and {lams.dtype, grid.dtype, radial.dtype} == {np.dtype(float)}
        and lams.ndim == 1
        and len(lams) >= count
        and grid.shape == (N,)
        and radial.shape == (len(lams), N)
    )
    if not valid:
        return None
    return [_make_mode(profile, k, i, lams[i], grid, radial[i]) for i in range(count)]


def solve_modes_cached(profile, k, count, N=4096, cache_dir=None):
    """solve_modes with a read-through cache; returns (modes, hit)."""
    if cache_dir is not None:
        cached = load_modes(profile, k, N, count, cache_dir)
        if cached is not None:
            return cached, True
    modes = solve_modes(profile, k, count, N)
    if cache_dir is not None:
        save_modes(modes, cache_dir)
    return modes, False
