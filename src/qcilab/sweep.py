"""Decay-rate experiments: families of arc integrals against h, with fits.

Each experiment produces rows (k, l, h, |I|, Re I, Im I) and a
least-squares fit of log |I| against log h, so the fitted slope is the
empirical decay exponent s in |I| ~ C h^s and the intercept is log C.

Three stock experiments:

  zonal-equator    k even, l = k: the integrand is constant on the
                   equator arc, giving the closed form
                   I = L sqrt((2k+1)/4pi) P_k(0), which stays O(1) -
                   the non-admissible control.
  tesseral-caustic l = 2k modes integrated over a longitude arc hanging
                   below the turning colatitude (forbidden side), where
                   the h^{1/2} decay of admissible arcs is expected.
  transition-peak  sup of |N_{2k}^k| over a band of width h^{2/3}
                   around the turning point; the peak grows like
                   h^{-1/6}.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._atomic import _atomic_write
from .geometry import Geodesic, ProfileFunction, longitude_arc, make_profile
from .lineintegral import QuadratureSpec, integrate_restriction
from .specfun import HarmonicIndex, assoc_legendre_norm, legendre_P0, turning_points

__all__ = [
    "FitError",
    "ReportFormatError",
    "FitResult",
    "SweepRow",
    "SweepReport",
    "fit_decay",
    "run_zonal_sweep",
    "run_tesseral_sweep",
    "run_transition_peak_sweep",
    "save_report",
    "load_report",
    "EXPERIMENTS",
]

EXPERIMENTS = ("zonal-equator", "tesseral-caustic", "transition-peak", "custom")

_CSV_HEADER = "k,l,h,abs_I,re_I,im_I"


class FitError(ValueError):
    """Fit impossible: too few usable points or degenerate design."""


class ReportFormatError(ValueError):
    """Report file malformed; message carries the offending line."""


class FitResult(NamedTuple):
    slope: float
    intercept_logC: float
    r_squared: float


@dataclass(frozen=True)
class SweepRow:
    k: int
    l: int
    h: float
    abs_I: float
    re_I: float
    im_I: float

    def __post_init__(self):
        # shed numpy scalars so repr-based serialization stays portable
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "l", int(self.l))
        for name in ("h", "abs_I", "re_I", "im_I"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class SweepReport:
    """Rows of one experiment plus the decay fit (absent for < 3 rows)."""

    experiment: str
    rows: tuple[SweepRow, ...]
    slope: Optional[float]
    intercept_logC: Optional[float]
    r_squared: Optional[float]
    delta0: Optional[float] = None
    quadrature: Optional[QuadratureSpec] = None


def fit_decay(points) -> FitResult:
    """Least squares of log(magnitude) against log(h).

    Parameters
    ----------
    points : iterable of (h, magnitude)
        At least 3 entries; zero magnitudes are dropped with a warning
        counting them (a log law cannot see exact zeros).

    Returns
    -------
    FitResult
        slope, intercept_logC, r_squared of log|I| = slope log h + logC.
    """
    pts = [(float(h), float(m)) for h, m in points]
    kept = [(h, m) for h, m in pts if m > 0.0]
    dropped = len(pts) - len(kept)
    if dropped:
        warnings.warn(f"fit_decay: filtered {dropped} zero-magnitude points")
    if len(kept) < 3:
        raise FitError(f"need at least 3 positive-magnitude points, have {len(kept)}")
    lh = np.log([h for h, _ in kept])
    lm = np.log([m for _, m in kept])
    if np.max(lh) - np.min(lh) < 1e-14:
        raise FitError("degenerate design: all h equal")
    design = np.column_stack([lh, np.ones_like(lh)])
    (slope, logc), *_ = np.linalg.lstsq(design, lm, rcond=None)
    resid = lm - design @ (slope, logc)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((lm - np.mean(lm)) ** 2))
    if ss_tot < 1e-28:
        r2 = 1.0 if ss_res < 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(logc), float(r2))


def _report(experiment: str, rows, **extra) -> SweepReport:
    """The rows sorted by decreasing h, with their decay fit."""
    rows = tuple(sorted(rows, key=lambda r: -r.h))
    fit = fit_decay([(r.h, r.abs_I) for r in rows])
    return SweepReport(experiment, rows, fit.slope, fit.intercept_logC, fit.r_squared, **extra)


def run_zonal_sweep(k_list, arc: Geodesic) -> SweepReport:
    """Equator integrals of zonal modes u_k = N_k^0(cos theta) e^{i0}.

    The integrand is the constant N_k^0(0) on the equator, so rows come
    from the closed form I = L sqrt((2k+1)/4pi) P_k(0) with L the arc
    length. Only even k (odd zonal modes vanish on the equator) up to
    k = 2000.
    """
    if arc.kind != "equator-latitude":
        raise ValueError("zonal sweep needs an equator latitude arc")
    for k in k_list:
        if k % 2:
            raise ValueError(
                f"odd k = {k} rejected: odd zonal modes vanish identically on the "
                "equator and would inject exact zeros into the fit"
            )
        if not 2 <= k <= 2000:
            raise ValueError(f"k = {k} outside the supported range [2, 2000] (even)")

    L = arc.length

    def row(k: int) -> SweepRow:
        idx = HarmonicIndex(l=k, k=0)
        value = L * np.sqrt((2 * k + 1) / (4.0 * np.pi)) * legendre_P0(k)
        return SweepRow(k=k, l=k, h=idx.h, abs_I=abs(value), re_I=value, im_I=0.0)

    return _report("zonal-equator", (row(k) for k in k_list))


def run_tesseral_sweep(
    k_list,
    delta0: float = 0.3,
    profile: Optional[ProfileFunction] = None,
    quadrature: QuadratureSpec = QuadratureSpec(),
    side: str = "forbidden",
) -> SweepReport:
    """Longitude-arc integrals of the tesseral family l = 2k.

    For each k the arc at phi = 0 spans colatitudes [theta0 - delta0,
    theta0] where theta0 is the lower turning point (side="forbidden",
    the admissible configuration hanging into the exponential-decay
    region), or [theta0, theta0 + delta0] for the allowed-side
    comparison run. Radial values come straight from the normalized
    Legendre evaluator, which is exact for the sphere.
    """
    if side not in ("forbidden", "allowed"):
        raise ValueError("side must be 'forbidden' or 'allowed'")
    if profile is None:
        profile = make_profile("sphere", [])
    if profile.kind != "sphere":
        raise ValueError("tesseral sweep is defined over the sphere profile")
    if not delta0 > 0.0:
        raise ValueError("delta0 must be positive")

    def row(k: int) -> SweepRow:
        idx = HarmonicIndex(l=2 * k, k=k)
        theta0, _ = turning_points(idx)
        if side == "forbidden":
            lo, hi = theta0 - delta0, theta0
            if lo <= 0.0:
                raise ValueError(
                    f"delta0 = {delta0} too large: arc leaves the chart "
                    f"(theta0 = {theta0} at k = {k})"
                )
        else:
            lo, hi = theta0, theta0 + delta0
            if hi >= np.pi:
                raise ValueError(f"delta0 = {delta0} too large at k = {k}")
        arc = longitude_arc(profile, (float(np.cos(hi)), float(np.cos(lo))), 0.0)
        value = integrate_restriction(idx, arc, quadrature, idx.h)
        return SweepRow(
            k=k, l=idx.l, h=idx.h, abs_I=abs(value), re_I=value.real, im_I=value.imag
        )

    rows = (row(k) for k in k_list)
    return _report("tesseral-caustic", rows, delta0=delta0, quadrature=quadrature)


def run_transition_peak_sweep(
    k_list, width_scale: float = 1.0, samples: int = 801
) -> SweepReport:
    """Peak height of N_{2k}^k near the turning point.

    Rows record the sup of |N_{2k}^k(cos theta)| over the band
    theta0 +- width_scale * h^{2/3}, sampled densely; the fitted slope
    is expected near -1/6 (the peak grows as the band narrows).
    """
    if not width_scale > 0.0:
        raise ValueError("width_scale must be positive")

    def row(k: int) -> SweepRow:
        idx = HarmonicIndex(l=2 * k, k=k)
        theta0, _ = turning_points(idx)
        w = width_scale * idx.h ** (2.0 / 3.0)
        theta = np.linspace(theta0 - w, theta0 + w, samples)
        vals = assoc_legendre_norm(idx.l, idx.k, np.cos(theta))
        j = int(np.argmax(np.abs(vals)))
        return SweepRow(
            k=k, l=idx.l, h=idx.h, abs_I=float(abs(vals[j])), re_I=float(vals[j]), im_I=0.0
        )

    return _report("transition-peak", (row(k) for k in k_list))


# -- persistence ----------------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sidecar_quadrature(sidecar: str, quad) -> Optional[QuadratureSpec]:
    """The sidecar's quadrature, which must be null or carry every key as a number."""
    if quad is None:
        return None
    keys = tuple(QuadratureSpec().as_json())
    if not (isinstance(quad, dict) and all(_is_number(quad.get(key)) for key in keys)):
        raise ReportFormatError(
            f"{sidecar}: quadrature must be null or an object with numbers {', '.join(keys)}"
        )
    try:
        return QuadratureSpec.from_json(quad)
    except (ValueError, OverflowError) as exc:
        raise ReportFormatError(f"{sidecar}: quadrature: {exc}") from exc


def _sidecar_path(csv_path: str) -> str:
    root, _ = os.path.splitext(csv_path)
    return root + ".json"


def save_report(report: SweepReport, csv_path: str) -> str:
    """Write rows as CSV and fit metadata as a JSON sidecar (atomic)."""
    lines = [_CSV_HEADER]
    for r in report.rows:
        lines.append(
            f"{r.k},{r.l},{r.h!r},{r.abs_I!r},{r.re_I!r},{r.im_I!r}"
        )
    _atomic_write(csv_path, "\n".join(lines) + "\n")

    meta = {
        "experiment": report.experiment,
        "slope": report.slope,
        "intercept_logC": report.intercept_logC,
        "r_squared": report.r_squared,
        "delta0": report.delta0,
        "quadrature": report.quadrature.as_json() if report.quadrature else None,
    }
    _atomic_write(_sidecar_path(csv_path), json.dumps(meta, indent=1) + "\n")
    return csv_path


def load_report(csv_path: str) -> SweepReport:
    """Read a report saved by save_report; errors name the bad line."""
    sidecar = _sidecar_path(csv_path)
    if not os.path.exists(csv_path):
        raise ReportFormatError(f"missing report file {csv_path}")
    if not os.path.exists(sidecar):
        raise ReportFormatError(f"missing sidecar {sidecar}")
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise ReportFormatError(f"{csv_path}: line 1: expected header '{_CSV_HEADER}'")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ReportFormatError(
                f"{csv_path}: line {n}: expected 6 fields, found {len(parts)}"
            )
        try:
            row = SweepRow(
                k=int(parts[0]),
                l=int(parts[1]),
                h=float(parts[2]),
                abs_I=float(parts[3]),
                re_I=float(parts[4]),
                im_I=float(parts[5]),
            )
        except ValueError as exc:
            raise ReportFormatError(f"{csv_path}: line {n}: {exc}") from exc
        # plotdata takes log h and log |I|, so h > 0 and |I| >= 0 (zero
        # rows are skipped there), and no value may be NaN or infinite
        values = (row.h, row.abs_I, row.re_I, row.im_I)
        if not (row.h > 0.0 and row.abs_I >= 0.0 and all(map(math.isfinite, values))):
            raise ReportFormatError(
                f"{csv_path}: line {n}: need finite values with h > 0 and abs_I >= 0, "
                f"found {line!r}"
            )
        rows.append(row)
    with open(sidecar) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ReportFormatError(f"{sidecar}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ReportFormatError(f"{sidecar}: expected a JSON object, found {type(meta).__name__}")
    if meta.get("experiment") not in EXPERIMENTS:
        raise ReportFormatError(f"{sidecar}: unknown experiment {meta.get('experiment')!r}")
    for key in ("slope", "intercept_logC", "r_squared", "delta0"):
        if meta.get(key) is not None and not _is_number(meta[key]):
            raise ReportFormatError(f"{sidecar}: {key} must be a number or null, found {meta[key]!r}")
    return SweepReport(
        experiment=meta["experiment"],
        rows=tuple(rows),
        slope=meta.get("slope"),
        intercept_logC=meta.get("intercept_logC"),
        r_squared=meta.get("r_squared"),
        delta0=meta.get("delta0"),
        quadrature=_sidecar_quadrature(sidecar, meta.get("quadrature")),
    )
