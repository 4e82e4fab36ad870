"""Command-line front end.

Subcommands: admissible | eigen | integrate | sweep | plotdata. A single
JSON config document (validated against the packaged schema before any
computation) describes the surface, symbols, arc, energies, and
experiment parameters. Exit codes are a scripting contract:

    0  success / admissible verdict
    2  usage, config, or parse error; unreadable input or unwritable output
    3  not-admissible verdict
    4  empty band (or empty fiber) on the admissibility check
    5  degenerate decay fit (too few usable rows)
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

import numpy as np

from . import admissibility, eigensolve, geometry, sweep, symbol_dsl
from .lineintegral import PanelCountError, QuadratureSpec, integrate_adaptive
from .specfun import HarmonicIndex

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_ADMISSIBLE = 3
EXIT_EMPTY_BAND = 4
EXIT_FIT_DEGENERATE = 5


class ConfigError(ValueError):
    pass


# ===================================================================
# config handling
# ===================================================================


def _schema() -> dict:
    text = resources.files("qcilab").joinpath("config.schema.json").read_text()
    return json.loads(text)


def load_config(path: str) -> dict:
    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"config {path}: non-finite number {text} is not allowed")
        return value

    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    # imported here, not at module level, so commands that read no config
    # (plotdata) do not pay for it
    import jsonschema

    try:
        jsonschema.validate(cfg, _schema())
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "config root"
        raise ConfigError(f"config schema violation at {where}: {exc.message}") from exc
    return cfg


def _need(cfg: dict, section: str) -> dict:
    if section not in cfg:
        raise ConfigError(f"config is missing the '{section}' section")
    return cfg[section]


def _profile(cfg: dict) -> geometry.ProfileFunction:
    spec = _need(cfg, "profile")
    return geometry.make_profile(spec["kind"], spec.get("coefficients", []))


def _moment_map(cfg: dict, profile) -> symbol_dsl.MomentMap:
    return symbol_dsl.moment_map_from_config(profile, cfg.get("p1"), cfg.get("p2"))


def _geodesic(cfg: dict, profile) -> geometry.Geodesic:
    spec = _need(cfg, "geodesic")
    if spec["kind"] == "equator-latitude":
        if "phi_range" not in spec:
            raise ConfigError("equator-latitude geodesic needs phi_range")
        return geometry.latitude_arc(profile, tuple(spec["phi_range"]))
    if "t_range" not in spec:
        raise ConfigError("longitude geodesic needs t_range")
    return geometry.longitude_arc(profile, tuple(spec["t_range"]), spec.get("phi0", 0.0))


def _energies(cfg: dict) -> admissibility.EnergyPair:
    spec = _need(cfg, "energies")
    return admissibility.EnergyPair(
        E1=float(spec["E1"]), E2=float(spec["E2"]), epsilon=spec.get("epsilon")
    )


def _given(spec: dict, types: dict) -> dict:
    """The keys of spec that types names, each cast to its type.

    A key the config omits is left out, so the library default applies.
    """
    return {key: cast(spec[key]) for key, cast in types.items() if key in spec}


def _quadrature(cfg: dict) -> QuadratureSpec:
    types = {"nodes_per_panel": int, "panels_per_wavelength": float, "max_panels": int}
    return QuadratureSpec(**_given(cfg.get("quadrature", {}), types))


def _k_list(spec: dict) -> list[int]:
    if "k_list" in spec:
        return [int(k) for k in spec["k_list"]]
    if "k_range" in spec:
        r = spec["k_range"]
        return list(range(int(r["start"]), int(r["stop"]) + 1, int(r.get("step", 1))))
    raise ConfigError("sweep needs k_list or k_range")


# ===================================================================
# subcommands
# ===================================================================


def cmd_admissible(args) -> int:
    cfg = load_config(args.config)
    profile = _profile(cfg)
    mmap = _moment_map(cfg, profile)
    geod = _geodesic(cfg, profile)
    energies = _energies(cfg)
    opts = cfg.get("admissibility", {})
    try:
        report = admissibility.check_admissible(
            mmap, geod, energies, threshold=opts.get("threshold"), **_given(opts, {"grid": tuple})
        )
    except admissibility.FiberError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_BAND
    print(json.dumps(report.as_json(), indent=1))
    if report.verdict == "admissible":
        return EXIT_OK
    if report.verdict == "empty-band":
        return EXIT_EMPTY_BAND
    return EXIT_NOT_ADMISSIBLE


def cmd_eigen(args) -> int:
    cfg = load_config(args.config)
    profile = _profile(cfg)
    spec = _need(cfg, "eigen")
    k, count = int(spec["k"]), int(spec["count"])
    modes, _ = eigensolve.solve_modes_cached(
        profile, k, count, cache_dir=f"{args.out}/cache", **_given(spec, {"N": int})
    )
    print("l_index lambda h")
    for m in modes:
        print(f"{m.l_index} {m.eigenvalue!r} {'-' if m.h is None else repr(m.h)}")
    return EXIT_OK


def cmd_integrate(args) -> int:
    cfg = load_config(args.config)
    profile = _profile(cfg)
    if profile.kind != "sphere":
        raise ConfigError("integrate uses the exact sphere mode family; profile must be sphere")
    spec = _need(cfg, "integrate")
    idx = HarmonicIndex(l=int(spec["l"]), k=int(spec["k"]))
    if idx.h is None:
        raise ConfigError("integrate needs l >= 1")
    geod = _geodesic(cfg, profile)
    quad = _quadrature(cfg)
    value, estimate = integrate_adaptive(idx, geod, quad, idx.h)
    print(f"re={value.real!r} im={value.imag!r} abs={abs(value)!r} err_est={estimate!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    spec = _need(cfg, "sweep")
    experiment = spec["experiment"]
    ks = _k_list(spec)

    if experiment == "zonal-equator":
        profile = _profile(cfg) if "profile" in cfg else geometry.make_profile("sphere", [])
        if "geodesic" in cfg:
            arc = _geodesic(cfg, profile)
        else:
            arc = geometry.latitude_arc(profile, (0.0, np.pi / 3.0))
        report = sweep.run_zonal_sweep(ks, arc)
    elif experiment == "tesseral-caustic":
        profile = _profile(cfg) if "profile" in cfg else None
        report = sweep.run_tesseral_sweep(
            ks,
            profile=profile,
            quadrature=_quadrature(cfg),
            **_given(spec, {"delta0": float, "side": str}),
        )
    elif experiment == "transition-peak":
        report = sweep.run_transition_peak_sweep(
            ks, **_given(spec, {"width_scale": float, "samples": int})
        )
    else:
        raise ConfigError(
            "experiment 'custom' labels externally built reports; it cannot be dispatched"
        )

    basename = cfg.get("output", {}).get("basename", experiment)
    csv_path = f"{args.out}/{basename}.csv"
    sweep.save_report(report, csv_path)
    print(f"slope={report.slope:.6f} R2={report.r_squared:.6f}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    report = sweep.load_report(args.report)
    print(f"# experiment={report.experiment}")
    if report.slope is not None:
        print(f"# fit: log|I| = {report.slope!r} * log(h) + {report.intercept_logC!r}")
        print(f"# r_squared={report.r_squared!r}")
    zeros = sum(1 for r in report.rows if r.abs_I <= 0.0)
    if zeros:
        print(f"# skipped {zeros} rows with |I| = 0 (not representable in log scale)")
    print("# log_h log_abs_I")
    for r in report.rows:
        if r.abs_I > 0.0:
            print(f"{float(np.log(r.h))!r} {float(np.log(r.abs_I))!r}")
    return EXIT_OK


# ===================================================================
# entry point
# ===================================================================


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON experiment config")
    common.add_argument("--out", default=".", help="output directory (default: .)")

    parser = argparse.ArgumentParser(
        prog="qcilab",
        description="Numerical laboratory for geodesic admissibility and "
        "eigenfunction restriction decay on surfaces of revolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("admissible", parents=[common], help="decide admissibility of an arc")
    sub.add_parser("eigen", parents=[common], help="solve and cache radial eigenmodes")
    sub.add_parser("integrate", parents=[common], help="integrate one mode over an arc")
    sub.add_parser("sweep", parents=[common], help="run a decay-rate sweep")
    p_plot = sub.add_parser("plotdata", parents=[common], help="emit plot-ready columns")
    p_plot.add_argument("report", help="path to a sweep CSV written by 'sweep'")
    return parser


_DISPATCH = {
    "admissible": cmd_admissible,
    "eigen": cmd_eigen,
    "integrate": cmd_integrate,
    "sweep": cmd_sweep,
    "plotdata": cmd_plotdata,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command != "plotdata" and not args.config:
        print("error: --config is required for this command", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _DISPATCH[args.command](args)
    except sweep.FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT_DEGENERATE
    except sweep.ReportFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        ConfigError,
        geometry.ProfileError,
        geometry.GeodesicError,
        symbol_dsl.SymbolSyntaxError,
        symbol_dsl.SymbolNameError,
        symbol_dsl.SymbolDomainError,
        PanelCountError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
