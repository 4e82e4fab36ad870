"""Energy-shell fibers and the arc admissibility verdict."""

import numpy as np
import pytest

from qcilab import (
    BUILTIN_P1_TEXT,
    BUILTIN_P2_TEXT,
    EnergyPair,
    FiberError,
    MomentMap,
    builtin_moment_map,
    check_admissible,
    check_principal_type,
    latitude_arc,
    longitude_arc,
    moment_map_from_config,
)
from qcilab import admissibility as adm


def fiber_points(map_, x, E1, n):
    """The finite points of the fiber over x = (t, phi) at n coframe angles."""
    xi_t, xi_phi, _ = adm._fibers(map_, np.array([x[0]]), np.array([x[1]]), E1, adm._angles(n))
    keep = np.isfinite(xi_t[0])
    return list(zip(xi_t[0][keep].tolist(), xi_phi[0][keep].tolist()))


class TestFiberPoints:
    def test_four_compass_points_on_unit_shell(self, sphere_map):
        pts = fiber_points(sphere_map, (0.0, 0.0), 1.0, 4)
        expect = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        assert len(pts) == 4
        for (xt, xp), (et, ep) in zip(pts, expect):
            assert xt == pytest.approx(et, abs=1e-14)
            assert xp == pytest.approx(ep, abs=1e-14)

    def test_ellipse_semi_axes_off_equator(self, sphere_map):
        pts = fiber_points(sphere_map, (0.6, 0.0), 1.0, 64)
        xt = np.array([p[0] for p in pts])
        xp = np.array([p[1] for p in pts])
        assert np.max(np.abs(xt)) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(xp)) == pytest.approx(0.8, abs=1e-12)

    def test_points_lie_on_the_shell(self, sphere_map):
        for pt in fiber_points(sphere_map, (0.6, 0.3), 2.5, 32):
            res = sphere_map.p1(0.6, 0.3, pt[0], pt[1]) - 2.5
            assert abs(res) <= 1e-10

    def test_negative_energy_rejected(self, sphere_map):
        with pytest.raises(FiberError):
            fiber_points(sphere_map, (0.0, 0.0), -1.0, 8)

    def test_parsed_kinetic_symbol_traces_same_shell(self, sphere, sphere_map):
        # builtin and parsed points both sit on the coframe rays
        # (cos sigma, f(t) sin sigma), so they coincide angle by angle
        parsed = moment_map_from_config(
            sphere, "xi_t^2 + xi_phi^2 / f(t)^2", None
        )
        pts = fiber_points(parsed, (0.4, 0.0), 1.0, 16)
        builtin = fiber_points(sphere_map, (0.4, 0.0), 1.0, 16)
        assert len(pts) == len(builtin) == 16
        f = sphere.value(0.4)
        for i, ((xt, xp), ref) in enumerate(zip(pts, builtin)):
            sigma = 2 * np.pi * i / 16
            # on the shell, and on its own coframe ray
            assert xt**2 + xp**2 / f**2 == pytest.approx(1.0, abs=1e-10)
            assert xt * f * np.sin(sigma) - xp * np.cos(sigma) == pytest.approx(
                0.0, abs=1e-10
            )
            assert (xt, xp) == pytest.approx(ref, abs=1e-10)

    def test_rays_missing_the_level_set_are_dropped(self, sphere):
        # p1 = xi_t^2 never reaches 1 on the two vertical rays
        m = moment_map_from_config(sphere, "xi_t^2", None)
        pts = fiber_points(m, (0.0, 0.0), 1.0, 8)
        assert len(pts) == 6
        for xt, _ in pts:
            assert abs(abs(xt) - 1.0) <= 1e-8

    def test_touching_level_set_found_by_tangential_search(self, sphere):
        # (|xi|^2 - 1)^2 = 0 only touches zero; no sign change anywhere
        m = moment_map_from_config(
            sphere, "(xi_t^2 + xi_phi^2 - 1)^2", None
        )
        pts = fiber_points(m, (0.0, 0.0), 0.0, 8)
        assert len(pts) == 8
        for xt, xp in pts:
            assert m.p1(0.0, 0.0, xt, xp) <= 1e-10


def _bisect_one(g, lo, hi):
    """Reference: the bisection of one ray, as a plain loop."""
    g_lo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) <= 1e-10:
            return mid
        if g_lo * g_mid < 0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
        if hi - lo < 1e-15 * max(1.0, hi):
            break
    r = 0.5 * (lo + hi)
    return r if abs(g(r)) <= 1e-10 else np.nan


class TestBisection:
    @pytest.mark.parametrize(
        "p1_text, placed",
        [
            ("xi_t^2 + xi_phi^2 / f(t)^2", True),
            # so steep that one ulp of radius moves p1 by more than the
            # tolerance: every bracket narrows to nothing, every ray is NaN
            ("1e12 * (xi_t - 0.3) + xi_phi", False),
            # a triple root, where |p1 - 1| is small on a wide interval
            ("(xi_t - 0.5)^3 + 1", True),
        ],
    )
    def test_all_rays_at_once_equal_the_ray_by_ray_loop(
        self, perturbed, p1_text, placed
    ):
        m = moment_map_from_config(perturbed, p1_text, None)
        rng = np.random.default_rng(3)
        n = 64
        t = rng.uniform(-0.8, 0.8, n)
        sigma = rng.uniform(0.0, 2.0 * np.pi, n)
        c, s = np.cos(sigma), perturbed.value(t) * np.sin(sigma)
        rays = adm._Rays(m, 1.0, t, rng.uniform(0.0, 6.0, n), c, s)
        lo, hi = rng.uniform(1e-3, 0.5, n), rng.uniform(0.5, 40.0, n)
        got = adm._bisect(rays, lo.copy(), hi.copy())

        def one_ray(j):
            ray = rays[[j]]
            return _bisect_one(lambda r: float(ray.residual(np.array([r]))[0]), lo[j], hi[j])

        # NaN matches NaN here
        np.testing.assert_array_equal(got, [one_ray(j) for j in range(n)])
        assert bool(np.isfinite(got).any()) is placed


class TestPrincipalType:
    def test_kinetic_symbol_is_principal_type(self, sphere_map, equator_arc):
        assert check_principal_type(sphere_map, equator_arc, 1.0, grid=(32, 32))

    def test_degenerate_square_is_not(self, sphere, equator_arc):
        m = moment_map_from_config(
            sphere, "(xi_t^2 + xi_phi^2 - 1)^2", None
        )
        assert not check_principal_type(m, equator_arc, 0.0, grid=(32, 32))

    @pytest.mark.parametrize("scale, ok", [(5e-6, True), (2e-7, False)])
    def test_threshold_sits_on_the_gradient_norm(self, sphere, upper_longitude, scale, ok):
        # on the shell |grad_xi p1| = 2 scale |xi| with |xi| about 1: the
        # 1e-6 bound falls between the two scales
        m = moment_map_from_config(sphere, f"{scale} * (xi_t^2 + xi_phi^2 / f(t)^2)", None)
        assert check_principal_type(m, upper_longitude, scale, grid=(32, 32)) is ok

    @pytest.mark.parametrize(
        "p1_text, E1", [(None, 1.0), ("(xi_t^2 + xi_phi^2 - 1)^2", 0.0)]
    )
    def test_matches_the_verdict_pass(
        self, sphere, equator_arc, upper_longitude, p1_text, E1
    ):
        m = moment_map_from_config(sphere, p1_text, None)
        for arc in (equator_arc, upper_longitude):
            rep = check_admissible(m, arc, EnergyPair(E1, 0.5), grid=(32, 32))
            ok = check_principal_type(m, arc, E1, grid=(32, 32))
            assert ok is rep.principal_type_ok


class TestCheckAdmissible:
    def test_equator_arc_is_not_admissible(self, sphere_map, equator_arc):
        rep = check_admissible(
            sphere_map, equator_arc, EnergyPair(1.0, 0.0), grid=(64, 64)
        )
        assert rep.verdict == "not-admissible"
        assert rep.principal_type_ok
        assert rep.min_derivative <= 1e-8

    def test_off_equator_longitude_is_admissible(
        self, sphere_map, upper_longitude
    ):
        rep = check_admissible(
            sphere_map, upper_longitude, EnergyPair(1.0, 0.5), grid=(64, 64)
        )
        assert rep.verdict == "admissible"
        assert rep.min_derivative >= 0.1

    def test_straddling_longitude_is_not_admissible(self, sphere, sphere_map):
        arc = longitude_arc(sphere, (-0.2, 0.4), 0.0)
        rep = check_admissible(
            sphere_map, arc, EnergyPair(1.0, 0.5), grid=(64, 64)
        )
        assert rep.verdict == "not-admissible"

    def test_witness_is_in_band_and_matches_closed_form(
        self, sphere, sphere_map, upper_longitude
    ):
        energies = EnergyPair(1.0, 0.5)
        rep = check_admissible(
            sphere_map, upper_longitude, energies, grid=(64, 64)
        )
        w = rep.witness
        assert abs(w["p2"] - energies.E2) < rep.epsilon
        # witness keeps the sign; the report stores the absolute minimum
        assert abs(w["derivative"]) == pytest.approx(
            rep.min_derivative, abs=1e-15
        )
        # exact rate on a longitude: d p2/d tau = f'(t) sin(sigma) sqrt(E1)
        expect = sphere.derivative(w["t"]) * np.sin(w["sigma"])
        assert w["derivative"] == pytest.approx(expect, abs=1e-10)

    def test_empty_band_verdict(self, sphere_map, upper_longitude):
        rep = check_admissible(
            sphere_map, upper_longitude, EnergyPair(1.0, 5.0), grid=(64, 64)
        )
        assert rep.verdict == "empty-band"
        assert rep.min_derivative is None
        assert rep.witness is None

    @pytest.mark.parametrize("E2, verdict", [(1.0, "not-admissible"), (0.5, "empty-band")])
    def test_constant_second_symbol_takes_the_fallback_band(
        self, sphere, upper_longitude, E2, verdict
    ):
        # p2 = 1 has no spread over the shell, so the band half-width falls
        # back to 5% of max(max|p2|, 1)
        m = moment_map_from_config(sphere, None, "1")
        rep = check_admissible(m, upper_longitude, EnergyPair(1.0, E2), grid=(64, 64))
        assert rep.epsilon == 0.05
        assert rep.verdict == verdict

    def test_scaling_the_second_symbol_scales_the_rate(
        self, sphere, sphere_map, upper_longitude
    ):
        base = check_admissible(
            sphere_map,
            upper_longitude,
            EnergyPair(1.0, 0.5, epsilon=0.05),
            grid=(48, 48),
            threshold=1e-3,
        )
        doubled_map = moment_map_from_config(sphere, None, "2 * xi_phi")
        doubled = check_admissible(
            doubled_map,
            upper_longitude,
            EnergyPair(1.0, 1.0, epsilon=0.1),
            grid=(48, 48),
            threshold=2e-3,
        )
        assert doubled.verdict == base.verdict
        assert doubled.min_derivative == pytest.approx(
            2.0 * base.min_derivative, rel=1e-9
        )

    def test_grid_refinement_is_stable(self, sphere_map, upper_longitude):
        energies = EnergyPair(1.0, 0.5)
        coarse = check_admissible(
            sphere_map, upper_longitude, energies, grid=(64, 64)
        )
        fine = check_admissible(
            sphere_map, upper_longitude, energies, grid=(128, 128)
        )
        assert coarse.verdict == fine.verdict
        assert abs(fine.min_derivative - coarse.min_derivative) <= (
            0.1 * coarse.min_derivative
        )

    def test_walk_block_size_does_not_change_the_report(
        self, perturbed, monkeypatch
    ):
        # the arc is walked in blocks of rows; one row per block is the
        # plain per-tau walk, and DSL seeds must chain across blocks
        arc = longitude_arc(perturbed, (0.3, 0.8), 1.0)
        parsed = moment_map_from_config(
            perturbed, "xi_t^2 + xi_phi^2 / f(t)^2", "xi_phi"
        )
        reports = []
        for block in (adm._BLOCK, 1):
            monkeypatch.setattr(adm, "_BLOCK", block)
            for m in (builtin_moment_map(perturbed), parsed):
                rep = check_admissible(m, arc, EnergyPair(1.0, 0.5), grid=(40, 600))
                reports.append(rep.as_json())
        assert reports[:2] == reports[2:]

    @pytest.mark.parametrize(
        "p1_text, E1, on_equator",
        [
            # the fiber radius changes from row to row along the arc
            ("xi_t^2 + 2*xi_phi^2/f(t)^2 + 0.1*sin(t)*xi_t", 1.0, False),
            # the two vertical rays never meet the level set
            ("xi_t^2", 1.0, False),
            # a double root: Newton converges linearly, so every row's
            # radius depends on the seed it was walked from
            ("(xi_t^2 + xi_phi^2 - 1)^2", 0.0, True),
        ],
    )
    def test_block_solve_equals_the_row_by_row_walk(
        self, perturbed, equator_arc, monkeypatch, p1_text, E1, on_equator
    ):
        # one row per block is the plain per-tau walk, every ray seeded
        # from the row before; solving whole blocks must give its bits
        if on_equator:
            arc, profile = equator_arc, equator_arc.surface
        else:
            arc, profile = longitude_arc(perturbed, (0.3, 0.8), 1.0), perturbed
        m = moment_map_from_config(profile, p1_text, "xi_phi")
        reports = []
        for block in (adm._BLOCK, 1):
            monkeypatch.setattr(adm, "_BLOCK", block)
            rep = check_admissible(m, arc, EnergyPair(E1, 0.5), grid=(48, 48))
            reports.append(rep.as_json())
        assert reports[0] == reports[1]
        assert reports[0]["witness"] is not None

    def test_block_solve_follows_the_first_of_two_roots(self, sphere, monkeypatch):
        # each ray meets p1 = 0 where |xi| = 1 and where |xi| = 2; the walk
        # stays on the first, while Newton seeded from the arc's first
        # fiber, far up the arc, jumps to the second near t = 0
        arc = longitude_arc(sphere, (-0.8, 0.0), 0.0)
        m = moment_map_from_config(sphere, "(xi_t^2 + xi_phi^2 - 1)*(xi_t^2 + xi_phi^2 - 4)", "xi_phi")
        taus = np.linspace(*arc.param_range, 48)
        reports, walks = [], []
        for block in (adm._BLOCK, 1):
            monkeypatch.setattr(adm, "_BLOCK", block)
            reports.append(check_admissible(m, arc, EnergyPair(0.0, 0.5), grid=(48, 48)).as_json())
            blocks = adm._arc_fibers(m, arc, 0.0, taus, adm._angles(48))
            walks.append(np.concatenate([r for *_, r in blocks]))
        assert reports[0] == reports[1]
        np.testing.assert_array_equal(walks[0], walks[1])
        sigmas = adm._angles(48)
        f = sphere.value(arc.point(taus)[0])[:, None]
        first = 1.0 / np.hypot(np.cos(sigmas), f * np.sin(sigmas))
        np.testing.assert_allclose(walks[0], first, rtol=1e-9)

    @pytest.mark.parametrize("E1", [1.0, 2.0])
    @pytest.mark.parametrize(
        "plain, with_xi", [("2", "xi_t - xi_t + 2"), ("phi", "phi + 0 * xi_phi")]
    )
    def test_symbol_without_xi_reads_like_one_with(self, perturbed, E1, plain, with_xi):
        # a p1 that never mentions xi is constant along each ray: the same
        # report (or the same empty fiber) as a spelling that mentions it
        arc = longitude_arc(perturbed, (0.3, 0.8), 2.0)

        def outcome(text):
            m = moment_map_from_config(perturbed, text, None)
            try:
                return check_admissible(m, arc, EnergyPair(E1, 0.5), grid=(32, 32)).as_json()
            except FiberError as exc:
                return str(exc)

        assert outcome(plain) == outcome(with_xi)

    def test_dsl_fibers_are_solved_a_block_at_a_time(self, perturbed):
        # p1 sees whole blocks of rays, every row of a block in one call: a
        # few calls per row at most, where a walk ray by ray makes hundreds
        sizes = []

        class Counting(MomentMap):
            def p1(self, t, phi, xi_t, xi_phi):
                sizes.append(np.size(xi_t))
                return MomentMap.p1(self, t, phi, xi_t, xi_phi)

        parsed = moment_map_from_config(perturbed, BUILTIN_P1_TEXT, BUILTIN_P2_TEXT)
        m = Counting(surface=perturbed, p1_expr=parsed.p1_expr, p2_expr=parsed.p2_expr)
        arc = longitude_arc(perturbed, (0.3, 0.8), 1.0)
        check_admissible(m, arc, EnergyPair(1.0, 0.5), grid=(128, 128))
        # one block: the first row takes one scan, Newton and the canonical
        # window searches; the other rows one pass from the first row, then
        # one round for the rays whose radius one row up is neither that
        # seed nor where their Newton landed. 17 calls are made; re-solving
        # rows round after round until they settled took 158
        assert len(sizes) <= (1 + 13 + 4) + (13 + 4)
        assert max(sizes) >= 127 * 128

    @pytest.mark.parametrize("profile_name", ["sphere", "perturbed"])
    @pytest.mark.parametrize("dsl", [False, True])
    def test_witness_derivative_matches_the_closed_form(
        self, request, profile_name, dsl
    ):
        # on a unit-speed longitude p2 = sqrt(E1) f(tau) sin(sigma) at
        # fixed sigma, so d p2/d tau = sqrt(E1) f'(t) sin(sigma)
        profile = request.getfixturevalue(profile_name)
        arc = longitude_arc(profile, (0.3, 0.8), 0.7)
        if dsl:
            m = moment_map_from_config(profile, BUILTIN_P1_TEXT, BUILTIN_P2_TEXT)
        else:
            m = builtin_moment_map(profile)
        for E1, E2 in ((1.0, 0.5), (1.21, -0.45)):
            w = check_admissible(m, arc, EnergyPair(E1, E2), grid=(96, 96)).witness
            exact = np.sqrt(E1) * profile.derivative(w["t"]) * np.sin(w["sigma"])
            assert w["derivative"] == pytest.approx(exact, rel=1e-10)

    def test_rate_follows_a_radius_that_moves_along_the_arc(self, perturbed):
        # p1 = g(t) |xi|^2 with g = 1 + t^2 puts the fiber at radius
        # r = sqrt(E1 / g(t)), so at fixed sigma p2 = xi_phi = r f sin(sigma)
        # moves at (r' f + r f') sin(sigma), with r' = -r g' / (2 g)
        arc = longitude_arc(perturbed, (0.3, 0.8), 0.7)
        m = moment_map_from_config(perturbed, "(1 + t^2) * (xi_t^2 + xi_phi^2 / f(t)^2)", "xi_phi")
        w = check_admissible(m, arc, EnergyPair(1.2, 0.3), grid=(64, 64)).witness
        t, sigma = w["t"], w["sigma"]
        f, fp = perturbed.value(t), perturbed.derivative(t)
        r = np.hypot(w["xi_t"], w["xi_phi"] / f)
        r_prime = -r * t / (1 + t * t)
        exact = (r_prime * f + r * fp) * np.sin(sigma)
        assert w["derivative"] == pytest.approx(exact, rel=1e-10)

    def test_dsl_verdicts_match_builtin(self, sphere, equator_arc, upper_longitude):
        builtin = builtin_moment_map(sphere)
        parsed = moment_map_from_config(
            sphere, "xi_t^2 + xi_phi^2 / f(t)^2", "xi_phi"
        )
        for arc, e2 in ((equator_arc, 0.0), (upper_longitude, 0.5)):
            a = check_admissible(builtin, arc, EnergyPair(1.0, e2), grid=(32, 32))
            b = check_admissible(parsed, arc, EnergyPair(1.0, e2), grid=(32, 32))
            assert a.verdict == b.verdict

    def test_coarse_grid_rejected(self, sphere_map, equator_arc):
        with pytest.raises(ValueError):
            check_admissible(
                sphere_map, equator_arc, EnergyPair(1.0, 0.0), grid=(16, 64)
            )

    def test_bad_threshold_rejected(self, sphere_map, equator_arc):
        with pytest.raises(ValueError):
            check_admissible(
                sphere_map,
                equator_arc,
                EnergyPair(1.0, 0.0),
                grid=(64, 64),
                threshold=0.0,
            )

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            EnergyPair(1.0, 0.0, epsilon=-0.1)

    def test_report_serializes(self, sphere_map, equator_arc):
        rep = check_admissible(
            sphere_map, equator_arc, EnergyPair(1.0, 0.0), grid=(64, 64)
        )
        out = rep.as_json()
        assert out["verdict"] == "not-admissible"
        assert out["witness"]["sigma"] == rep.witness["sigma"]
        assert out["grid"] == [64, 64]


def _full_scan_report(map_, geod, energies, grid, threshold=None):
    """Reference: the verdict from whole n_tau x n_fiber arrays, scanned row-major.

    The fibers and rates come from the same walk as check_admissible; only
    the reduction differs.
    """
    n_tau, n_fiber = grid
    taus = np.linspace(*geod.param_range, n_tau)
    sigmas = adm._angles(n_fiber)
    t_m, phi_m = np.empty(n_tau), np.empty(n_tau)
    xt, xp = np.empty(grid), np.empty(grid)
    p2_mid, deriv = np.empty(grid), np.empty(grid)
    principal_ok = True
    for rows, t, phi, xi_t, xi_phi, radii in adm._arc_fibers(map_, geod, energies.E1, taus, sigmas):
        deriv[rows], ok = adm._rates(map_, geod, t, phi, xi_t, xi_phi, radii, sigmas)
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
    return {
        "verdict": verdict,
        "min_derivative": min_der,
        "witness": witness,
        "principal_type_ok": principal_ok,
        "grid": list(grid),
        "threshold": thr,
        "epsilon": eps,
    }


def _oracle_cases():
    """(name, profile, symbols, arc, E1, E2, epsilon), seeded."""
    rng = np.random.default_rng(17)
    cases = []
    for profile in ("sphere", "perturbed"):
        for dsl in (False, True):
            symbols = (BUILTIN_P1_TEXT, BUILTIN_P2_TEXT) if dsl else (None, None)
            E1 = float(rng.uniform(0.8, 1.25))
            a = float(rng.uniform(0.2, 0.4))
            lon = ("longitude", (a, a + float(rng.uniform(0.3, 0.5))), float(rng.uniform(0.0, 6.0)))
            E2 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.5) * np.sqrt(E1))
            cases.append((f"{profile}-{'dsl' if dsl else 'builtin'}-longitude", profile, symbols, lon, E1, E2, None))
            alpha = float(rng.uniform(0.0, 6.0))
            lat = ("latitude", (alpha, alpha + float(rng.uniform(0.5, 2.0))))
            E2 = float(rng.uniform(-0.3, 0.3) * np.sqrt(E1))
            cases.append((f"{profile}-{'dsl' if dsl else 'builtin'}-latitude", profile, symbols, lat, E1, E2, None))
    straddle = ("longitude", (-0.2, 0.4), 1.3)
    cases += [
        ("explicit-epsilon", "perturbed", (None, None), straddle, 1.0, 0.5, 0.01),
        ("explicit-epsilon-dsl", "perturbed", (BUILTIN_P1_TEXT, BUILTIN_P2_TEXT), straddle, 1.1, -0.4, 0.2),
        ("constant-p2-fallback", "perturbed", (None, "1"), straddle, 1.0, 1.0, None),
        ("rays-miss", "perturbed", ("xi_t^2", "xi_phi"), straddle, 1.0, 0.3, None),
        ("rays-miss-empty", "perturbed", ("xi_t^2", "xi_phi"), straddle, 1.0, 9.0, None),
        ("empty-band", "sphere", (None, None), straddle, 1.0, 5.0, None),
        ("equator-ties", "sphere", (None, None), ("latitude", (0.0, np.pi / 3)), 1.0, 0.0, None),
        ("equator-ties-dsl", "sphere", (BUILTIN_P1_TEXT, BUILTIN_P2_TEXT), ("latitude", (0.5, 2.0)), 1.2, 0.3, None),
    ]
    # p2 moving along the arc widens the default band block by block, so
    # points first held outside it join it later; each p2 here has one
    # exact rate per row, so ties between held points decide the witness
    climb = ("longitude", (0.3, 0.8), 0.2)
    cases += [
        ("band-grows-ties", "sphere", (None, "t"), climb, 1.0, 0.33, None),
        ("band-grows-zero-rate", "sphere", (None, "10*(t-0.35)^2"), climb, 1.0, -0.07, None),
        ("band-grows-straddling-ties", "sphere", (None, "10*(t-0.35)^2 + 0.05*xi_t"), climb, 1.0, -0.07, None),
    ]
    return cases


class TestStreamedVerdict:
    @pytest.mark.parametrize("block", [adm._BLOCK, 1, 7])
    @pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
    def test_equals_the_full_array_scan(self, request, monkeypatch, block, case):
        # the verdict streams block by block; it must equal the row-major
        # argmin over whole arrays, ties and the default band included
        _, profile_name, (p1, p2), arc, E1, E2, epsilon = case
        profile = request.getfixturevalue(profile_name)
        if arc[0] == "latitude":
            geod = latitude_arc(profile, arc[1])
        else:
            geod = longitude_arc(profile, arc[1], arc[2])
        m = moment_map_from_config(profile, p1, p2)
        energies = EnergyPair(E1, E2, epsilon)
        # several blocks at the default size too
        grid = (600, 40) if block == adm._BLOCK else (61, 33)
        monkeypatch.setattr(adm, "_BLOCK", block)
        got = check_admissible(m, geod, energies, grid=grid).as_json()
        assert got == _full_scan_report(m, geod, energies, grid)

    def test_held_points_stay_few(self, sphere, monkeypatch):
        # p2 = t never reaches E2 and has the rate 1 at every point: each
        # row comes nearer E2 and ties every held point, yet only the
        # first point of a row can still win
        sizes = []

        class Recording(adm._Band):
            def add(self, *args):
                super().add(*args)
                sizes.append(self.held.shape[1])

        monkeypatch.setattr(adm, "_Band", Recording)
        monkeypatch.setattr(adm, "_BLOCK", 1)
        m = moment_map_from_config(sphere, None, "t")
        arc = longitude_arc(sphere, (0.3, 0.8), 0.2)
        rep = check_admissible(m, arc, EnergyPair(1.0, 2.0), grid=(64, 48))
        assert rep.verdict == "empty-band"
        assert max(sizes) <= 64

    def test_cases_cover_ties_misses_and_empty_bands(self, sphere, perturbed):
        # the oracle cases above reach what they are named for
        arc = longitude_arc(perturbed, (-0.2, 0.4), 1.3)
        miss = moment_map_from_config(perturbed, "xi_t^2", "xi_phi")
        taus = np.linspace(*arc.param_range, 33)
        radii = np.concatenate([r for *_, r in adm._arc_fibers(miss, arc, 1.0, taus, adm._angles(32))])
        assert np.isnan(radii).any()
        empty = check_admissible(miss, arc, EnergyPair(1.0, 9.0), grid=(33, 32))
        assert empty.verdict == "empty-band"
        ties = check_admissible(
            builtin_moment_map(sphere), latitude_arc(sphere, (0.0, np.pi / 3)), EnergyPair(1.0, 0.0), grid=(33, 32)
        )
        assert ties.min_derivative == 0.0


def _dsl_block(profile, geod, n_tau, n_fiber, E1):
    """The rays of the fibers over geod at n_tau rows, for the builtin symbols as text."""
    m = moment_map_from_config(profile, BUILTIN_P1_TEXT, BUILTIN_P2_TEXT)
    t, phi = geod.point(np.linspace(*geod.param_range, n_tau))
    sigmas = adm._angles(n_fiber)
    f = profile.value(t)[:, None]
    shape = (n_tau, n_fiber)
    return adm._Rays(m, E1, t[:, None], phi[:, None], np.broadcast_to(np.cos(sigmas), shape), f * np.sin(sigmas))


class TestCanonicalRadius:
    @pytest.mark.parametrize("seed", [3, 5, 11])
    @pytest.mark.parametrize("kind", ["longitude", "latitude"])
    def test_certified_radius_does_not_depend_on_the_seed(self, perturbed, sphere, seed, kind):
        # verdicts-style DSL arcs: the walk is _solve from the row above,
        # and every certified ray (at rest on a sign change) gives the same
        # bits solved from the previous block's last row and from the scan
        rng = np.random.default_rng(seed)
        profile = (sphere, perturbed)[seed % 2]
        E1 = float(rng.uniform(0.8, 1.25))
        if kind == "latitude":
            alpha = float(rng.uniform(0.0, 6.0))
            geod = latitude_arc(profile, (alpha, alpha + float(rng.uniform(0.5, 2.0))))
        else:
            a = profile.t0 + float(rng.uniform(0.15, 0.35))
            geod = longitude_arc(profile, (a, min(a + 0.4, 0.85)), float(rng.uniform(0.0, 6.0)))
        rays = _dsl_block(profile, geod, 48, 96, E1)
        walk = adm._walk(rays, None)
        rest = rays[1:]
        from_above = np.concatenate([adm._solve(rays[[i]], walk[[i - 1]])[0] for i in range(1, 48)])
        np.testing.assert_array_equal(from_above, walk[1:])
        step, _, crossed, _ = adm._least(rest, walk[1:])
        certified = (step == 0) & crossed
        assert certified.mean() > 0.99
        from_block, _ = adm._solve(rest, np.broadcast_to(walk[0], rest.s.shape))
        from_scan, _ = adm._solve(rest, np.full(rest.s.shape, np.nan))
        for radii in (from_block, from_scan):
            np.testing.assert_array_equal(radii[certified], walk[1:][certified])

    def test_canonical_float_has_the_least_residual_near_it(self, perturbed):
        # a canonical radius sits at the least |p1 - E1| of its own window,
        # and p1 - E1 changes sign within it
        geod = longitude_arc(perturbed, (0.3, 0.8), 0.4)
        rays = _dsl_block(perturbed, geod, 8, 64, 1.1)
        radii, _ = adm._solve(rays, np.full(rays.s.shape, np.nan))
        step, best, crossed, level = adm._least(rays, radii)
        assert (step == 0).all() and crossed.all() and not level.any()
        np.testing.assert_array_equal(best, radii)
        # _canonical leaves its own results where they are, so _solve may
        # skip the search where Newton lands on a radius it gave before
        np.testing.assert_array_equal(adm._canonical(rays, radii), radii)
        seed = radii * (1.0 + 1e-3)
        for got, want in zip(adm._solve(rays, seed, known=radii), adm._solve(rays, seed)):
            np.testing.assert_array_equal(got, want)

    def test_rows_of_rays_step_as_the_rays_alone(self, perturbed):
        # a block evaluates f(t) once a row, and steps whole rows while any
        # ray is stepping; every ray still lands where it lands alone
        geod = longitude_arc(perturbed, (0.3, 0.8), 0.4)
        m = moment_map_from_config(perturbed, "xi_t^2 + 2*xi_phi^2/f(t)^2 + 0.1*sin(t)*xi_t", "xi_phi")
        t, phi = geod.point(np.linspace(0.3, 0.8, 12))
        sigmas = adm._angles(40)
        shape = (12, 40)
        rays = adm._Rays(m, 1.3, t[:, None], phi[:, None], np.broadcast_to(np.cos(sigmas), shape),
                         perturbed.value(t)[:, None] * np.sin(sigmas))
        seed = np.random.default_rng(5).uniform(0.2, 3.0, shape)
        seed[3, ::7] = np.nan
        flat = rays.flat(np.arange(seed.size))
        assert np.shape(flat.t) == (seed.size,)
        by_rows, landed = adm._newton(rays, seed)
        by_rays, landed_alone = adm._newton(flat, seed.ravel())
        np.testing.assert_array_equal(by_rows, by_rays.reshape(shape))
        np.testing.assert_array_equal(landed, landed_alone.reshape(shape))
        assert np.isfinite(by_rows).mean() > 0.9
        # from where a ray landed, Newton lands there again
        again, landed_again = adm._newton(rays, np.where(landed, by_rows, np.nan))
        np.testing.assert_array_equal(again[landed], by_rows[landed])
        assert landed_again[landed].all() and landed.mean() > 0.9

    def test_multiple_root_is_not_certified(self, sphere):
        # (|xi|^2 - 1)^2 = 0 has a double root, which Newton nears only
        # linearly: no radius comes to rest with a sign change, so none
        # moves from where Newton left it
        m = moment_map_from_config(sphere, "(xi_t^2 + xi_phi^2 - 1)^2", None)
        sigmas = adm._angles(16)
        rays = adm._Rays(m, 0.0, np.zeros((1, 1)), np.zeros((1, 1)), np.cos(sigmas)[None], np.sin(sigmas)[None])
        seed = np.full((1, 16), 1.0001)
        by_newton, _ = adm._newton(rays, seed)
        assert np.isfinite(by_newton).all()
        np.testing.assert_array_equal(adm._solve(rays, seed)[0], by_newton)
        # at r = 1, |p1 - E1| is least on most rays but positive; only an
        # exact root, where it is 0, moves to a float at rest
        radii = adm._canonical(rays, np.ones((1, 16)))
        exact = rays.residual(radii) == 0.0
        assert exact.any() and not exact.all()
        np.testing.assert_array_equal(radii[~exact], 1.0)
