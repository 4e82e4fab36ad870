"""Acceptance gate: one test per published criterion, at the stated
tolerances and runtime budgets. Each test prints a single PASS/FAIL line
(visible with `pytest -s` or on failure) so the gate can be read at a
glance.
"""

import time

import numpy as np
import pytest

from qcilab import (
    EnergyPair,
    QuadratureSpec,
    assoc_legendre_norm,
    builtin_moment_map,
    check_admissible,
    integrate_restriction,
    latitude_arc,
    legendre_P,
    longitude_arc,
    moment_map_from_config,
    run_tesseral_sweep,
    run_transition_peak_sweep,
    run_zonal_sweep,
    solve_modes,
    szego_main_term,
)


def _report(n, name, ok, detail):
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {n} ({name}): {detail}"


def test_criterion_1_admissibility_verdicts(sphere, sphere_map):
    cases = [
        (
            "equator arc",
            latitude_arc(sphere, (0.0, np.pi / 3)),
            EnergyPair(1.0, 0.0),
            lambda r: r.verdict == "not-admissible" and r.min_derivative <= 1e-8,
        ),
        (
            "off-bump longitude",
            longitude_arc(sphere, (0.3, 0.8), 0.0),
            EnergyPair(1.0, 0.5),
            lambda r: r.verdict == "admissible" and r.min_derivative >= 0.1,
        ),
        (
            "straddling longitude",
            longitude_arc(sphere, (-0.2, 0.4), 0.0),
            EnergyPair(1.0, 0.5),
            lambda r: r.verdict == "not-admissible",
        ),
    ]
    details = []
    ok = True
    for label, arc, energies, good in cases:
        start = time.perf_counter()
        rep = check_admissible(sphere_map, arc, energies, grid=(128, 128))
        elapsed = time.perf_counter() - start
        ok = ok and good(rep) and elapsed < 1.0
        details.append(f"{label}: {rep.verdict} in {elapsed:.2f}s")
    _report(1, "admissibility verdicts", ok, "; ".join(details))


def test_criterion_2_sphere_spectrum(sphere):
    start = time.perf_counter()
    worst_lam = 0.0
    worst_vec = 0.0
    for l, k in ((2, 0), (4, 2), (20, 10), (40, 20)):
        modes = solve_modes(sphere, k, l - k + 1, N=4096)
        mode = modes[l - k]
        lam_err = abs(mode.eigenvalue - l * (l + 1)) / (l * (l + 1))
        ref = assoc_legendre_norm(l, k, mode.radial_grid)
        sign = np.sign(np.dot(ref, mode.radial_values))
        vec_err = float(np.max(np.abs(sign * mode.radial_values - ref)))
        worst_lam = max(worst_lam, lam_err)
        worst_vec = max(worst_vec, vec_err)
    elapsed = time.perf_counter() - start
    ok = worst_lam <= 1e-6 and worst_vec <= 1e-5 and elapsed < 30.0
    _report(
        2,
        "sphere spectrum",
        ok,
        f"max rel eigenvalue err {worst_lam:.2e}, "
        f"max sup-norm vector err {worst_vec:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_oscillatory_main_term():
    worst = 0.0
    ok = True
    for k in (200, 500, 1000, 2000):
        bound = 5.0 * k ** (-1.5)
        for theta in (np.pi / 3, np.pi / 2, 2 * np.pi / 3):
            gap = abs(
                float(legendre_P(k, np.cos(theta))) - szego_main_term(k, theta)
            )
            worst = max(worst, gap / bound)
            ok = ok and gap <= bound
    _report(
        3,
        "oscillatory main term",
        ok,
        f"worst remainder at {worst:.3f} of the 5 k^-1.5 budget",
    )


def test_criterion_4_zonal_O1_law(sphere):
    start = time.perf_counter()
    report = run_zonal_sweep(list(range(100, 1001, 100)), latitude_arc(sphere, (0.0, np.pi / 3)))
    elapsed = time.perf_counter() - start
    rows = sorted(report.rows, key=lambda r: r.k)
    mags = [r.abs_I for r in rows]
    in_band = all(0.30 <= m <= 0.36 for m in mags)
    dev = [abs(m - 1.0 / 3.0) for m in mags]
    monotone = all(a > b for a, b in zip(dev, dev[1:]))
    ok = in_band and monotone and abs(report.slope) <= 0.05 and elapsed < 5.0
    _report(
        4,
        "zonal O(1) law",
        ok,
        f"|I| in [{min(mags):.4f}, {max(mags):.4f}], deviation monotone: "
        f"{monotone}, slope {report.slope:+.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_admissible_decay_law(sphere):
    start = time.perf_counter()
    report = run_tesseral_sweep([25, 50, 100, 200, 400], delta0=0.3)
    elapsed = time.perf_counter() - start
    slope_ok = 0.35 <= report.slope <= 0.65
    fit_ok = report.r_squared >= 0.9
    # one constant for the whole sweep: the tightest envelope |I| <= C h^{1/2}
    envelope_C = max(r.abs_I / np.sqrt(r.h) for r in report.rows)
    bound_ok = all(
        r.abs_I <= envelope_C * np.sqrt(r.h) * (1 + 1e-12) for r in report.rows
    )
    ok = slope_ok and fit_ok and bound_ok and elapsed < 60.0
    _report(
        5,
        "admissible h^1/2 decay",
        ok,
        f"slope {report.slope:.3f}, R^2 {report.r_squared:.4f}, "
        f"envelope C {envelope_C:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_transition_peak_law(sphere):
    report = run_transition_peak_sweep([50, 100, 200, 400, 800])
    ok = -0.25 <= report.slope <= -0.08
    _report(
        6,
        "transition peak growth",
        ok,
        f"slope {report.slope:.3f}, R^2 {report.r_squared:.4f}",
    )


def test_criterion_7_quadrature_self_consistency(sphere):
    ks = [25, 50, 100, 200, 400]
    base = run_tesseral_sweep(ks, delta0=0.3, quadrature=QuadratureSpec())
    fine = run_tesseral_sweep(
        ks, delta0=0.3, quadrature=QuadratureSpec(panels_per_wavelength=8.0)
    )
    worst = max(
        abs(a.abs_I - b.abs_I) / b.abs_I for a, b in zip(base.rows, fine.rows)
    )
    doubling_ok = worst < 1e-8

    arc = latitude_arc(sphere, (0.0, 1.0))
    spec = QuadratureSpec()
    u = lambda t, phi: np.exp(5j * phi)
    v = lambda t, phi: np.cos(phi) + 0j
    combo = lambda t, phi: 2.0 * u(t, phi) - 0.5j * v(t, phi)
    lin_gap = abs(
        integrate_restriction(combo, arc, spec, 0.05)
        - 2.0 * integrate_restriction(u, arc, spec, 0.05)
        + 0.5j * integrate_restriction(v, arc, spec, 0.05)
    )
    add_gap = abs(
        integrate_restriction(u, arc, spec, 0.05)
        - integrate_restriction(u, latitude_arc(sphere, (0.0, 0.4)), spec, 0.05)
        - integrate_restriction(u, latitude_arc(sphere, (0.4, 1.0)), spec, 0.05)
    )
    invariants_ok = lin_gap <= 1e-12 and add_gap <= 1e-12
    ok = doubling_ok and invariants_ok
    _report(
        7,
        "quadrature self-consistency",
        ok,
        f"worst doubling change {worst:.2e}, linearity gap {lin_gap:.2e}, "
        f"additivity gap {add_gap:.2e}",
    )


def test_criterion_8_dsl_equivalence(sphere, sphere_map, perturbed):
    parsed = moment_map_from_config(
        sphere, "xi_t^2 + xi_phi^2 / f(t)^2", "xi_phi"
    )
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(-0.95, 0.95)
        phi = rng.uniform(0.0, 2 * np.pi)
        xt, xp = rng.uniform(-3.0, 3.0, 2)
        b1 = sphere_map.p1(t, phi, xt, xp)
        gap1 = abs(parsed.p1(t, phi, xt, xp) - b1) / max(1.0, abs(b1))
        gap2 = abs(parsed.p2(t, phi, xt, xp) - sphere_map.p2(t, phi, xt, xp))
        worst = max(worst, gap1, gap2)
    values_ok = worst <= 1e-12

    verdicts_ok = True
    for arc, e2 in (
        (latitude_arc(sphere, (0.0, np.pi / 3)), 0.0),
        (longitude_arc(sphere, (0.3, 0.8), 0.0), 0.5),
    ):
        a = check_admissible(sphere_map, arc, EnergyPair(1.0, e2), grid=(64, 64))
        b = check_admissible(parsed, arc, EnergyPair(1.0, e2), grid=(64, 64))
        verdicts_ok = verdicts_ok and a.verdict == b.verdict
        if arc.kind == "equator-latitude":
            verdicts_ok = verdicts_ok and b.min_derivative <= 1e-8

    # the rate itself, not only the verdict, must not depend on how the
    # symbols were given: off-bump longitude on both reference profiles
    worst_rate = 0.0
    for profile in (sphere, perturbed):
        arc = longitude_arc(profile, (0.3, 0.8), 0.0)
        a = check_admissible(
            builtin_moment_map(profile), arc, EnergyPair(1.0, 0.5), grid=(64, 64)
        )
        b = check_admissible(
            moment_map_from_config(profile, "xi_t^2 + xi_phi^2 / f(t)^2", "xi_phi"),
            arc,
            EnergyPair(1.0, 0.5),
            grid=(64, 64),
        )
        rel = abs(b.min_derivative - a.min_derivative) / a.min_derivative
        worst_rate = max(worst_rate, rel)
    rates_ok = worst_rate <= 1e-10
    ok = values_ok and verdicts_ok and rates_ok
    _report(
        8,
        "symbol DSL equivalence",
        ok,
        f"worst value gap {worst:.2e}, verdicts match: {verdicts_ok}, "
        f"worst off-bump rate gap {worst_rate:.2e}",
    )
