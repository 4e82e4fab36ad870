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
no artificial boundary rows are needed. Eigenpairs come from bisection
on Sturm sequences plus inverse iteration. The plain scheme is second
order; solve_modes sharpens it by Richardson extrapolation across the
N and N/2 grids (eigenvalues combined as (4 a_N - a_{N/2})/3, radial
vectors corrected through cubic resampling of the coarse solution).

Radial factors are normalized by 2 pi * sum(w^2) * dt = 1, the discrete
form of the surface L2 normalization in the (t, phi) chart.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
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
    profile: ProfileFunction

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
    return RadialOperator(diag=diag, offdiag=off, grid=t, step=dt, k=k, profile=profile)


def _normalize(vec: np.ndarray, dt: float) -> np.ndarray:
    """Scale to the discrete surface norm 2 pi sum(w^2) dt = 1, sign-fixed."""
    w = vec / np.sqrt(2.0 * np.pi * np.sum(vec * vec) * dt)
    if w[np.argmax(np.abs(w))] < 0:
        w = -w
    return w


def eigenpairs(system: RadialOperator, count: int):
    """First `count` eigenpairs of the assembled system, ascending.

    Bisection on Sturm sequences locates the eigenvalues; inverse
    iteration recovers the eigenvectors. Vectors are returned in the
    radial normalization 2 pi sum(w^2) dt = 1, which makes distinct
    modes orthonormal in the discrete weighted inner product.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if count > system.size // 4:
        raise ValueError(f"count must be at most N/4 = {system.size // 4}")
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    try:
        lam, vec = eigh_tridiagonal(
            system.diag, system.offdiag, select="i", select_range=(0, count - 1)
        )
    except LinAlgError as exc:
        raise LinAlgError(
            f"radial eigensolve failed to converge for modes 0..{count - 1} "
            f"(k={system.k}, N={system.size}): {exc}"
        ) from exc
    return [(float(lam[i]), _normalize(vec[:, i], system.step)) for i in range(count)]


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

    The cubic spline behind radial() and value() is built on the first
    radial() call, so modes that are only listed never build one.
    """

    k: int
    l_index: int
    eigenvalue: float
    h: Optional[float]
    radial_grid: np.ndarray
    radial_values: np.ndarray
    profile: ProfileFunction

    @cached_property
    def _spline(self):
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.radial_grid, self.radial_values, extrapolate=True)

    def radial(self, t):
        """Radial factor w(t) by cubic interpolation; |t| <= 1."""
        t = np.asarray(t, dtype=float)
        if np.any(np.abs(t) > 1.0 + 1e-12):
            raise ValueError("t outside the surface chart [-1, 1]")
        return self._spline(t)

    def value(self, t, phi):
        """u(t, phi), complex; vectorized over broadcastable inputs."""
        w = self.radial(t)
        return w * np.exp(1j * self.k * np.asarray(phi, dtype=float))


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
    w + (w - resample(w_coarse))/3, renormalized. N must be even and
    at least 512 so the coarse grid stays valid.
    """
    if N % 2 or N < 512:
        raise ValueError("solve_modes needs even N >= 512")
    fine = assemble_operator(profile, k, N)
    coarse = assemble_operator(profile, k, N // 2)
    pairs_f = eigenpairs(fine, count)
    pairs_c = eigenpairs(coarse, count)
    from scipy.interpolate import CubicSpline

    modes = []
    for i in range(count):
        lam = (4.0 * pairs_f[i][0] - pairs_c[i][0]) / 3.0
        a = pairs_f[i][1]
        b = CubicSpline(coarse.grid, pairs_c[i][1], extrapolate=True)(fine.grid)
        if np.dot(a, b) < 0:
            b = -b
        v = _normalize(a + (a - b) / 3.0, fine.step)
        modes.append(_make_mode(profile, k, i, lam, fine.grid, v))
    return modes


# -- cache --------------------------------------------------------------------


def profile_hash(profile: ProfileFunction) -> str:
    return hashlib.sha256(profile.canonical_text().encode()).hexdigest()[:12]


def _cache_slot(cache_dir: str, profile: ProfileFunction, k: int, N: int) -> str:
    return os.path.join(cache_dir, f"{profile_hash(profile)}_k{k}_N{N}")


def save_modes(modes, cache_dir: str) -> str:
    """Persist a family of modes (same profile, k, grid) as meta.json + radial.csv."""
    if not modes:
        raise ValueError("nothing to save")
    first = modes[0]
    N = len(first.radial_grid)
    slot = _cache_slot(cache_dir, first.profile, first.k, N)
    os.makedirs(slot, exist_ok=True)

    meta = {
        "profile": first.profile.as_json(),
        "k": first.k,
        "N": N,
        "count": len(modes),
        "eigenvalues": [m.eigenvalue for m in modes],
    }
    _atomic_write(os.path.join(slot, "meta.json"), json.dumps(meta, indent=1))

    cols = [first.radial_grid] + [m.radial_values for m in modes]
    header = ",".join(["t"] + [f"mode_{i}" for i in range(len(modes))])
    lines = [header]
    for row in zip(*cols):
        lines.append(",".join(repr(float(v)) for v in row))
    _atomic_write(os.path.join(slot, "radial.csv"), "\n".join(lines) + "\n")
    return slot


def load_modes(profile: ProfileFunction, k: int, N: int, count: int, cache_dir: str):
    """Load cached modes, or None when the slot is absent, too small or corrupt.

    A corrupt slot (unparsable meta.json or radial.csv, missing keys, or
    arrays whose shape disagrees with N and count) reads as a miss, so
    the caller solves again and rewrites it.
    """
    slot = _cache_slot(cache_dir, profile, k, N)
    meta_path = os.path.join(slot, "meta.json")
    csv_path = os.path.join(slot, "radial.csv")
    if not (os.path.exists(meta_path) and os.path.exists(csv_path)):
        return None
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        if meta["count"] < count or meta["k"] != k or meta["N"] != N:
            return None
        eigenvalues = [float(lam) for lam in meta["eigenvalues"][:count]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty CSV warns, then fails the shape test
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    except (ValueError, KeyError, TypeError):
        return None
    if len(eigenvalues) < count or data.ndim != 2:
        return None
    if data.shape[0] != N or data.shape[1] < count + 1:
        return None
    grid = data[:, 0]
    return [
        _make_mode(profile, k, i, eigenvalues[i], grid, data[:, i + 1])
        for i in range(count)
    ]


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
