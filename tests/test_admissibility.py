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
        assert len(sizes) < 3 * 128
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
