"""Energy-shell fibers and the arc admissibility verdict."""

import re
import types

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
    xi_t, xi_phi, *_ = adm._fibers(map_, np.array([x[0]]), np.array([x[1]]), E1, adm._angles(n), adm._Workspace())
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

    def test_parsed_kinetic_symbol_traces_same_shell(self, sphere):
        # a p1 not homogeneous in xi is read along the coframe rays
        # (cos sigma, f(t) sin sigma); on each ray it is the quadratic
        # a r^2 + b r with a = cos^2 + 2 sin^2 and b = 0.1 sin(t) cos, whose
        # one positive root at level 1 is r = (sqrt(b^2 + 4a) - b) / 2a
        parsed = moment_map_from_config(sphere, "xi_t^2 + 2*xi_phi^2/f(t)^2 + 0.1*sin(t)*xi_t", None)
        assert parsed.p1_grades[0] == (1, 2)
        pts = fiber_points(parsed, (0.4, 0.0), 1.0, 16)
        assert len(pts) == 16
        f = sphere.value(0.4)
        for i, (xt, xp) in enumerate(pts):
            sigma = 2 * np.pi * i / 16
            c, sn = np.cos(sigma), np.sin(sigma)
            a, b = c * c + 2 * sn * sn, 0.1 * np.sin(0.4) * c
            r = (np.sqrt(b * b + 4 * a) - b) / (2 * a)
            assert (xt, xp) == pytest.approx((r * c, r * f * sn), abs=1e-10)

    def test_rays_missing_the_level_set_are_dropped(self, sphere):
        # the circle (xi_t - 2)^2 + xi_phi^2 = 3 at t = 0 does not enclose
        # xi = 0: the rays sigma = 0 and +-pi/4 meet it at r = 2 +- sqrt(3)
        # and sqrt(2) +- 1, and the five others never do
        m = moment_map_from_config(sphere, "(xi_t - 2)^2 + xi_phi^2/f(t)^2", None)
        pts = fiber_points(m, (0.0, 0.0), 3.0, 8)
        assert len(pts) == 6
        radii = sorted(np.hypot(*pt) for pt in pts)
        expect = sorted([2 - np.sqrt(3), 2 + np.sqrt(3)] + [np.sqrt(2) - 1, np.sqrt(2) + 1] * 2)
        np.testing.assert_allclose(radii, expect, rtol=1e-12)

    def test_touching_level_set_found_by_tangential_search(self, sphere):
        # (|xi|^2 - 1)^2 = 0 only touches zero, a double root on every ray:
        # the two roots it gives are one tangential touch, one point a ray
        m = moment_map_from_config(
            sphere, "(xi_t^2 + xi_phi^2 - 1)^2", None
        )
        pts = fiber_points(m, (0.0, 0.0), 0.0, 8)
        assert len(pts) == 8
        for xt, xp in pts:
            assert m.p1(0.0, 0.0, xt, xp) <= 1e-10


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


    @pytest.mark.parametrize("grid", [(0, 128), (5, 0), (31, 128)])
    def test_grid_counts_below_32_are_refused(self, sphere_map, upper_longitude, grid):
        # the rule of check_admissible, where a count of 0 sampled nothing
        # and read True, and a fiber count of 0 divided by zero
        for check in (
            lambda: check_principal_type(sphere_map, upper_longitude, 1.0, grid=grid),
            lambda: check_admissible(sphere_map, upper_longitude, EnergyPair(1.0, 0.5), grid=grid),
        ):
            with pytest.raises(ValueError, match="grid counts must be at least 32 each"):
                check()

    @pytest.mark.parametrize("grid", [(64.9, 64), (64,), (64, 64, 3)])
    def test_grids_that_are_not_two_integer_counts_are_refused(self, sphere_map, upper_longitude, grid):
        # config.schema.json's rule: exactly two integer counts; a fraction
        # was truncated, a missing count an IndexError, a third ignored
        for check in (
            lambda: check_principal_type(sphere_map, upper_longitude, 1.0, grid=grid),
            lambda: check_admissible(sphere_map, upper_longitude, EnergyPair(1.0, 0.5), grid=grid),
        ):
            with pytest.raises(ValueError, match=re.escape(f"grid must be two integer counts (n_tau, n_fiber), not {grid!r}")):
                check()

    def test_integer_valued_floats_are_counts(self, sphere_map, upper_longitude):
        # as in the schema, 64.0 is the integer 64
        energies = EnergyPair(1.0, 0.5)
        rep = check_admissible(sphere_map, upper_longitude, energies, grid=(64.0, np.int64(64)))
        assert rep.as_json() == check_admissible(sphere_map, upper_longitude, energies, grid=(64, 64)).as_json()
        assert rep.grid == (64, 64) and type(rep.grid[0]) is int


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
        # the arc is sampled in blocks of rows; one row per block must give
        # the same report
        arc = longitude_arc(perturbed, (0.3, 0.8), 1.0)
        parsed = moment_map_from_config(perturbed, "xi_t^2 + 2*xi_phi^2/f(t)^2 + 0.1*sin(t)*xi_t", "xi_phi")
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
            # rays facing away from xi_t = 2 never meet the level set
            ("(xi_t - 2)^2 + xi_phi^2/f(t)^2", 1.0, False),
            # a double root on every ray, one tangential touch
            ("(xi_t^2 + xi_phi^2 - 1)^2", 0.0, True),
            # one grade so high that 1e3^d overflows a float
            ("xi_t^400 + xi_phi^400", 1.0, False),
        ],
    )
    def test_block_solve_equals_the_row_by_row_walk(
        self, perturbed, equator_arc, monkeypatch, p1_text, E1, on_equator
    ):
        # one row per block is the plain per-tau sample; solving whole
        # blocks must give its bits
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

    def test_both_circles_are_sampled(self, sphere, monkeypatch):
        # each ray meets p1 = 0 where |xi| = 1 and where |xi| = 2: the two
        # roots of the ray's quartic are its two columns, in that order
        arc = longitude_arc(sphere, (-0.8, 0.0), 0.0)
        m = moment_map_from_config(sphere, "(xi_t^2 + xi_phi^2 - 1)*(xi_t^2 + xi_phi^2 - 4)", "xi_phi")
        taus = np.linspace(*arc.param_range, 48)
        reports, radii = [], []
        for block in (adm._BLOCK, 1):
            monkeypatch.setattr(adm, "_BLOCK", block)
            reports.append(check_admissible(m, arc, EnergyPair(0.0, 0.5), grid=(48, 48)).as_json())
            blocks = adm._arc_fibers(m, arc, 0.0, taus, adm._angles(48), adm._Workspace())
            radii.append(np.concatenate([r.copy() for *_, r, _ in blocks]))
        assert reports[0] == reports[1] and reports[0]["principal_type_ok"]
        np.testing.assert_array_equal(radii[0], radii[1])
        # four columns a ray, for the quartic's four roots; two are negative
        roots = radii[0].reshape(48, 48, 4)
        assert np.isnan(roots[..., 2:]).all()
        f = sphere.value(arc.point(taus)[0])[:, None]
        first = 1.0 / np.hypot(np.cos(adm._angles(48)), f * np.sin(adm._angles(48)))
        np.testing.assert_allclose(roots[..., 0], first, rtol=1e-12)
        np.testing.assert_allclose(roots[..., 1], 2.0 * first, rtol=1e-12)

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

    def test_dsl_fibers_are_solved_a_block_at_a_time(self, perturbed, monkeypatch):
        # a ray polynomial's fibers come from its coefficients alone: one
        # program gives all of them, run once a block on every ray of the
        # block, and p1 is never called
        sizes, p1_calls = [], []

        class Counting(MomentMap):
            def p1(self, *args):
                p1_calls.append(args)
                return MomentMap.p1(self, *args)

        parsed = moment_map_from_config(perturbed, "xi_t^2 + 2*xi_phi^2/f(t)^2 + 0.1*sin(t)*xi_t", "xi_phi")
        m = Counting(surface=perturbed, p1_expr=parsed.p1_expr, p2_expr=parsed.p2_expr)
        degrees, program = m.p1_grades
        assert degrees == (1, 2) and len(program.outputs) == 2

        def counted(t, phi, xi_t, xi_phi):
            sizes.append(np.broadcast(t, xi_t, xi_phi).size)
            return program(t, phi, xi_t, xi_phi)

        vars(m)["p1_grades"] = (degrees, counted)
        monkeypatch.setattr(adm, "_BLOCK", 16 * 128)
        arc = longitude_arc(perturbed, (0.3, 0.8), 1.0)
        check_admissible(m, arc, EnergyPair(1.0, 0.5), grid=(128, 128))
        assert sizes == [16 * 128] * 8
        assert not p1_calls

    def test_homogeneous_symbol_takes_one_p1_call_a_block(self, perturbed):
        # a p1 of degree d in xi has the closed-form radius, read off one
        # evaluation on the unit rays of the whole block
        sizes = []

        class Counting(MomentMap):
            def p1(self, t, phi, xi_t, xi_phi):
                sizes.append(np.broadcast(t, xi_t, xi_phi).size)
                return MomentMap.p1(self, t, phi, xi_t, xi_phi)

        m = Counting(surface=perturbed)
        check_admissible(m, longitude_arc(perturbed, (0.3, 0.8), 1.0), EnergyPair(1.0, 0.5), grid=(128, 128))
        assert sizes == [128 * 128]

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

    @pytest.mark.parametrize(
        "arc_kind, p2", [("latitude", "xi_t + (phi - 1)^2"), ("longitude", "xi_t + (t - 0.5)^2")]
    )
    def test_witness_base_point_is_the_arc_at_its_tau(self, perturbed, arc_kind, p2):
        # the witness's t and phi are geod.point at its tau, bit for bit; p2
        # puts the witness inside the arc, so phi on the latitude is a
        # quotient of tau
        if arc_kind == "latitude":
            arc = latitude_arc(perturbed, (0.5, 2.0))
        else:
            arc = longitude_arc(perturbed, (0.3, 0.7), 0.4)
        m = moment_map_from_config(perturbed, None, p2)
        w = check_admissible(m, arc, EnergyPair(1.0, 0.3), grid=(61, 48)).witness
        assert arc.param_range[0] < w["tau"] < arc.param_range[1]
        t, phi = arc.point(w["tau"])
        assert (w["t"], w["phi"]) == (float(t), float(phi))

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
    """Reference: the verdict from whole n_tau x (m n_fiber) arrays, scanned row-major.

    The fibers and rates come from the same blocks as check_admissible,
    root k of ray j in column j m + k; only the reduction differs.
    """
    n_tau, n_fiber = grid
    taus = np.linspace(*geod.param_range, n_tau)
    sigmas = adm._angles(n_fiber)
    t_m, phi_m = np.empty(n_tau), np.empty(n_tau)
    xt, xp, p2_mid, deriv = [], [], [], []
    principal_ok = True
    for rows, t, phi, xi_t, xi_phi, radii, coframe in adm._arc_fibers(
        map_, geod, energies.E1, taus, sigmas, adm._Workspace()
    ):
        # copies, which the next block does not overwrite, and a fresh
        # workspace for the rates of each block
        xi_t, xi_phi = xi_t.copy(), xi_phi.copy()
        rate, ok = adm._rates(map_, geod, t, phi, xi_t, xi_phi, radii, coframe, adm._Workspace())
        principal_ok = principal_ok and ok
        deriv.append(rate)
        p2_mid.append(np.broadcast_to(map_.p2(t[:, None], phi[:, None], xi_t, xi_phi), xi_t.shape))
        t_m[rows], phi_m[rows] = t, phi
        xt.append(xi_t)
        xp.append(xi_phi)
    xt, xp, p2_mid, deriv = (np.concatenate(a) for a in (xt, xp, p2_mid, deriv))
    m = xt.shape[1] // n_fiber  # root columns a ray
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
            "sigma": float(sigmas[j // m]),
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
        # the shifted ellipse: rays facing away from xi_t = 2 miss it
        ("rays-miss", "perturbed", ("(xi_t - 2)^2 + xi_phi^2/f(t)^2", "xi_phi"), straddle, 1.0, 0.3, None),
        ("rays-miss-empty", "perturbed", ("(xi_t - 2)^2 + xi_phi^2/f(t)^2", "xi_phi"), straddle, 1.0, 9.0, None),
        # a p1 not homogeneous in xi, one positive root of a quadratic a ray
        ("ray-polynomial", "perturbed", ("xi_t^2 + 2*xi_phi^2/f(t)^2 + 0.1*sin(t)*xi_t", "xi_phi"), straddle, 1.1, 0.3,
         None),
        # an ellipse off xi = 0: a ray meets it twice or not at all, and the
        # band holds far roots only
        ("shifted-ellipse", "sphere", ("(xi_t - 2)^2 + xi_phi^2/f(t)^2", "xi_t + 0.1*t"), ("longitude", (0.3, 0.8), 0.0),
         1.0, 2.5, None),
        # two circles, two roots on every ray
        ("two-circles", "sphere", ("(xi_t^2 + xi_phi^2 - 1)*(xi_t^2 + xi_phi^2 - 4)", "xi_phi"),
         ("longitude", (-0.8, 0.0), 0.0), 0.0, 0.5, None),
        ("empty-band", "sphere", (None, None), straddle, 1.0, 5.0, None),
        ("equator-ties", "sphere", (None, None), ("latitude", (0.0, np.pi / 3)), 1.0, 0.0, None),
        ("equator-ties-dsl", "sphere", (BUILTIN_P1_TEXT, BUILTIN_P2_TEXT), ("latitude", (0.5, 2.0)), 1.2, 0.3, None),
        # a given epsilon goes through the same frontier as the default band
        ("explicit-epsilon-equator-ties", "sphere", (None, None), ("latitude", (0.0, np.pi / 3)), 1.0, 0.5, 0.1),
        ("explicit-epsilon-equator-ties-dsl", "sphere", (BUILTIN_P1_TEXT, BUILTIN_P2_TEXT),
         ("latitude", (0.0, np.pi / 3)), 1.0, 0.5, 0.1),
    ]
    # p2 moving along the arc widens the default band block by block, so
    # points first held outside it join it later; each p2 here has one
    # exact rate per row, so ties between held points decide the witness
    climb = ("longitude", (0.3, 0.8), 0.2)
    cases += [
        ("band-grows-ties", "sphere", (None, "t"), climb, 1.0, 0.33, None),
        ("band-grows-ties-explicit-epsilon", "sphere", (None, "t"), climb, 1.0, 0.6, 0.1),
        ("band-grows-zero-rate", "sphere", (None, "10*(t-0.35)^2"), climb, 1.0, -0.07, None),
        ("band-grows-straddling-ties", "sphere", (None, "10*(t-0.35)^2 + 0.05*xi_t"), climb, 1.0, -0.07, None),
        # in the row of least rate, the first points are beyond the band's
        # edge when the row comes and in the band at the end
        ("band-grows-ties-in-a-row", "sphere", (None, "5*(t-0.5)^2 + 0.05*xi_t"), climb, 1.0, 0.03, None),
    ]
    return cases


def _reference_rates(map_, geod, t, phi, xi_t, xi_phi, radii, coframe):
    """Reference for adm._rates: fresh arrays, sum() of products and a where= divide into zeros."""
    t, phi = t[:, None], phi[:, None]
    c, sn, s = coframe
    speed = {v: d for v, d in zip(("t", "phi"), geod.tangent()) if d}
    if "t" in speed:
        speed["xi_phi"] = radii * (map_.surface.derivative(t) * (speed["t"] * sn))
    names = tuple(dict.fromkeys(("xi_t", "xi_phi") + tuple(speed)))

    def along(slot):
        d = dict(zip(names, map_._program((slot,), names)(t, phi, xi_t, xi_phi)))
        return sum(d[v] * speed[v] for v in speed), c * d["xi_t"] + s * d["xi_phi"], d

    with np.errstate(all="ignore"):
        tau1, r1, d1 = along("p1")
        tau2, r2, _ = along("p2")
        ratio = np.divide(tau1, r1, out=np.zeros(xi_t.shape), where=tau1 != 0.0)
        grad2 = np.broadcast_to(d1["xi_t"] * d1["xi_t"] + d1["xi_phi"] * d1["xi_phi"], xi_t.shape)
        return tau2 - r2 * ratio, bool(np.all(grad2[np.isfinite(xi_t)] > 1e-12))


class TestRates:
    def test_nonzero_quotient_is_the_where_divide(self):
        # every IEEE case of a / b against np.divide(a, b, where=a != 0)
        # into zeros: signed zeros, 0 / 0, 0 / NaN, overflow to inf and
        # underflow to -0 are 0 where a is 0 and the quotient elsewhere
        a = np.array([[0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 0.0, 1e-300, -1e300, np.nan, np.inf, 2.0]] * 2)
        b = np.array([[2.0, 2.0, 0.0, -0.0, 0.0, np.nan, -np.inf, np.inf, 1e-300, 0.0, 1.0, -3.0]] * 2)
        with np.errstate(all="ignore"):
            for num in (a, a[:1], 0.5):  # a block, a row and a scalar numerator
                want = np.divide(num, b, out=np.zeros(b.shape), where=np.not_equal(num, 0.0))
                out = np.full(b.shape, 7.0)
                got = adm._nonzero_quotient(num, b, out, np.empty(b.shape, bool), np.empty(b.shape, np.int64))
                assert got is out and np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "case",
        _oracle_cases()
        + [
            # on a latitude arc a p1 that moves with phi has a nonzero
            # d_tau p1: a block, or a scalar where its phi-derivative is one
            ("phi-latitude", "perturbed", ("(2 + cos(phi))*(xi_t^2 + xi_phi^2/f(t)^2)", "xi_phi + 0.1*xi_t"),
             ("latitude", (0.5, 2.0)), 1.0, 0.3, None),
            ("phi-shift-latitude", "sphere", ("xi_t^2 + xi_phi^2/f(t)^2 + 0.1*phi", "xi_phi"),
             ("latitude", (0.5, 2.0)), 1.0, 0.3, None),
        ],
        ids=lambda c: c[0],
    )
    def test_rates_equal_the_reference_bit_for_bit(self, request, monkeypatch, case):
        # one workspace for every block of the arc, blocks of nine rows and
        # a last one of seven, against fresh arrays a block
        _, profile_name, (p1, p2), arc, E1, _, _ = case
        profile = request.getfixturevalue(profile_name)
        geod = latitude_arc(profile, arc[1]) if arc[0] == "latitude" else longitude_arc(profile, arc[1], arc[2])
        m = moment_map_from_config(profile, p1, p2)
        monkeypatch.setattr(adm, "_BLOCK", 297)
        taus = np.linspace(*geod.param_range, 61)
        work = adm._Workspace()
        for _, t, phi, xi_t, xi_phi, radii, coframe in adm._arc_fibers(m, geod, E1, taus, adm._angles(33), work):
            rate, ok = adm._rates(m, geod, t, phi, xi_t, xi_phi, radii, coframe, work)
            ref, ref_ok = _reference_rates(m, geod, t, phi, xi_t, xi_phi, radii, coframe)
            assert rate.shape == ref.shape and ok is ref_ok
            assert np.array_equal(rate.view(np.int64), ref.view(np.int64))


class TestStreamedVerdict:
    @pytest.mark.parametrize("block", [adm._BLOCK, 1, 7, 200, 33, 297])
    @pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
    def test_equals_the_full_array_scan(self, request, monkeypatch, block, case):
        # the verdict streams block by block; it must equal the row-major
        # argmin over whole arrays, ties and the default band included. At
        # 33 each row is its own block, and at 297 blocks of nine rows end
        # in one of seven, so the check's one workspace serves blocks of two
        # sizes, while the oracle's rates come from a fresh one a block
        _, profile_name, (p1, p2), arc, E1, E2, epsilon = case
        profile = request.getfixturevalue(profile_name)
        if arc[0] == "latitude":
            geod = latitude_arc(profile, arc[1])
        else:
            geod = longitude_arc(profile, arc[1], arc[2])
        m = moment_map_from_config(profile, p1, p2)
        energies = EnergyPair(E1, E2, epsilon)
        # (600, 40) is one block at the default size; (61, 33) streams in
        # blocks of one row at sizes 1, 7 and 33, of six rows at 200 and of
        # nine at 297
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
                # held is a frontier: sorted by |p2 - E2|, |rate| never
                # rising, and the flat index falling where |rate| ties
                d, a, flat = self.held[[adm._D, adm._RATE, adm._FLAT]]
                assert (np.diff(d) >= 0).all() and (np.diff(a) <= 0).all()
                assert (np.diff(flat)[a[1:] == a[:-1]] < 0).all()

        monkeypatch.setattr(adm, "_Band", Recording)
        monkeypatch.setattr(adm, "_BLOCK", 1)
        m = moment_map_from_config(sphere, None, "t")
        arc = longitude_arc(sphere, (0.3, 0.8), 0.2)
        rep = check_admissible(m, arc, EnergyPair(1.0, 2.0), grid=(64, 48))
        assert rep.verdict == "empty-band"
        assert max(sizes) <= 64

    def test_no_block_array_outlives_the_check(self, perturbed):
        # the workspace belongs to one check: once it returns, nothing the
        # map holds (its programs included) is an array of a block's size
        def arrays(obj, seen):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, dict):
                for v in obj.values():
                    yield from arrays(v, seen)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    yield from arrays(v, seen)
            elif isinstance(obj, types.FunctionType):
                # a compiled symbol: its program sits in the closure
                yield from arrays([cell.cell_contents for cell in obj.__closure__ or ()], seen)
            elif hasattr(obj, "__dict__"):
                yield from arrays(vars(obj), seen)

        arc = longitude_arc(perturbed, (0.3, 0.8), 1.0)
        for symbols in ((None, None), ("(xi_t - 2)^2 + xi_phi^2/f(t)^2", "xi_t + 0.1*t")):
            m = moment_map_from_config(perturbed, *symbols)
            check_admissible(m, arc, EnergyPair(1.0, 0.5), grid=(64, 64))
            check_principal_type(m, arc, 1.0, grid=(64, 64))
            assert vars(m)["_programs"]
            assert max((a.size for a in arrays(vars(m), set())), default=0) < 64

    @pytest.mark.parametrize("epsilon", [None, 0.5])
    def test_non_finite_rates_never_win(self, epsilon):
        # as in the full scan, a point of the band whose rate is NaN or
        # infinite is skipped, wherever it sits in the block
        band = adm._Band(0.0, epsilon, adm._Workspace())
        p2 = np.array([[0.0, 0.01, 0.02, 1.0]])
        band.add(0, p2, np.array([[np.nan, -np.inf, -3.0, 2.0]]), p2, p2)
        _, _, best = band.finish()
        assert best[adm._FLAT, 0] == 2 and best[adm._DERIV, 0] == -3.0

    def test_cases_cover_ties_misses_and_empty_bands(self, sphere, perturbed):
        # the oracle cases above reach what they are named for
        arc = longitude_arc(perturbed, (-0.2, 0.4), 1.3)
        miss = moment_map_from_config(perturbed, "(xi_t - 2)^2 + xi_phi^2/f(t)^2", "xi_phi")
        taus = np.linspace(*arc.param_range, 33)
        blocks = adm._arc_fibers(miss, arc, 1.0, taus, adm._angles(32), adm._Workspace())
        radii = np.concatenate([r.copy() for *_, r, _ in blocks])
        assert np.isnan(radii).any()
        empty = check_admissible(miss, arc, EnergyPair(1.0, 9.0), grid=(33, 32))
        assert empty.verdict == "empty-band"
        ties = check_admissible(
            builtin_moment_map(sphere), latitude_arc(sphere, (0.0, np.pi / 3)), EnergyPair(1.0, 0.0), grid=(33, 32)
        )
        assert ties.min_derivative == 0.0
        # band-grows-ties-in-a-row: the witness is beyond the band's edge
        # (the default epsilon of the arc so far) when its row comes
        grows = moment_map_from_config(sphere, None, "5*(t-0.5)^2 + 0.05*xi_t")
        full = check_admissible(grows, longitude_arc(sphere, (0.3, 0.8), 0.2), EnergyPair(1.0, 0.03), grid=(61, 33))
        head = check_admissible(grows, longitude_arc(sphere, (0.3, 0.5), 0.2), EnergyPair(1.0, 0.03), grid=(33, 33))
        assert full.witness["sigma"] == 0.0 and full.min_derivative == 0.0
        assert head.epsilon < abs(full.witness["p2"] - 0.03) < full.epsilon


class TestClosedFormRadius:
    @pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
    def test_builtin_and_text_spellings_give_one_report(self, request, case):
        _, profile_name, symbols, arc, E1, E2, epsilon = case
        profile = request.getfixturevalue(profile_name)
        geod = latitude_arc(profile, arc[1]) if arc[0] == "latitude" else longitude_arc(profile, arc[1], arc[2])
        # each builtin slot once omitted and once given as its text
        pairs = list(zip(symbols, (BUILTIN_P1_TEXT, BUILTIN_P2_TEXT)))
        spelled = [
            moment_map_from_config(profile, *(None if x == text else x for x, text in pairs)),
            moment_map_from_config(profile, *(text if x is None else x for x, text in pairs)),
        ]
        reports = [check_admissible(m, geod, EnergyPair(E1, E2, epsilon), grid=(61, 33)).as_json() for m in spelled]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("E1", [-1.0, 0.0, 1e-20, 4e6])
    def test_builtin_and_text_spellings_give_one_outcome(self, perturbed, E1):
        # the same report, or the same FiberError: no level set below 0,
        # the zero section at 0, and one beyond the cutoff at 4e6
        arc = longitude_arc(perturbed, (0.3, 0.8), 1.0)

        def outcome(m):
            try:
                return check_admissible(m, arc, EnergyPair(E1, 0.5), grid=(64, 64)).as_json()
            except FiberError as exc:
                return str(exc)

        text = moment_map_from_config(perturbed, BUILTIN_P1_TEXT, BUILTIN_P2_TEXT)
        got = outcome(builtin_moment_map(perturbed))
        assert got == outcome(text)
        if E1 == -1.0:
            assert got == f"empty fiber: level set p1 = {E1} not met along any of 64 rays"
        if E1 == 4e6:
            assert got == f"unbounded fiber: level set p1 = {E1} reaches radius 1000"
        if E1 == 0.0:
            assert fiber_points(text, (0.4, 1.0), 0.0, 8) == [(0.0, 0.0)] * 8


def _np_roots(map_, t, phi, E1, sigmas):
    """Reference: the positive roots of p1 = E1 on each ray, np.roots one ray at a time.

    A ray's coefficients are p1's grades on its unit ray (for a p1 of one
    grade d, r^d p1(unit ray)); a leading coefficient below 1e-30 of the
    largest is taken as 0, since np.roots' companion matrix cannot be
    balanced there (cos(pi/2) rounds to 6e-17, and xi_t^4 to 1e-65 on that
    ray). Real parts of roots within 1e-4 of the real axis are read, each
    polished by Newton until it stops moving (at most 50 steps), and a
    cluster of them within 1e-4 relative is one multiple root, read at its
    least member.
    """
    f = map_.surface.value(t)
    degrees, program = map_.p1_grades
    out = []
    for sigma in sigmas:
        c, s = np.cos(sigma), f * np.sin(sigma)
        coefs = np.zeros(degrees[-1] + 1)
        coefs[list(degrees)] = program(t, phi, c, s)
        coefs[0] -= E1
        while abs(coefs[-1]) < 1e-30 * np.abs(coefs).max():
            coefs = coefs[:-1]
        z = np.roots(coefs[::-1])
        real = z.real[np.abs(z.imag) <= 1e-4 * np.maximum(1.0, np.abs(z))]
        poly = np.polynomial.Polynomial(coefs)
        slope = poly.deriv()
        for _ in range(50):
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(slope(real) != 0.0, poly(real) / slope(real), 0.0)
            if not np.any(step):
                break
            real = real - step
        real = np.sort(real)
        real = real[(real > 0.0) & (real <= 1e3)]
        roots = []
        for r in real:
            if not roots or r - roots[-1] > 1e-4 * r:
                roots.append(r)
        out.append(roots)
    return out


# symbols whose level set reaches r = 1e3: _fibers refuses them, so their
# rays are solved by _roots alone, on the coefficients _fibers reads
_UNBOUNDED = {
    "(t - 0.5) * xi_t + 0.3 * xi_phi + 1",
    "(t - 0.5) * xi_t^2 + xi_t + xi_phi",
    "(xi_t^2 + xi_phi^2/f(t)^2 - 1) * (xi_t - 3) + t*xi_phi",
    "(t - 0.5) * xi_t^3 + xi_t^2 + xi_phi^2 / f(t)^2 - xi_t",
    "(t - 0.5) * xi_t^4 + xi_t^2 + xi_phi^2/f(t)^2 - 0.3*xi_t",
    "(xi_t - 0.5)^3 + 1",
    "xi_t^3",
}


class TestRayRoots:
    @pytest.mark.parametrize(
        "p1_text, E1, rtol",
        [
            # degrees 1 to 4; a factor t - 0.5 makes the leading coefficient
            # exactly 0 on the row t = 0.5 (at degree 1, on its ray sigma = 0)
            ("(t - 0.5) * xi_t + 0.3 * xi_phi + 1", 2.0, 1e-14),
            ("xi_t^2 + 2*xi_phi^2/f(t)^2 + 0.1*sin(t)*xi_t", 1.3, 1e-14),
            # the ray sigma = pi/6 touches this ellipse: a double root
            ("(xi_t - 2)^2 + xi_phi^2/f(t)^2", 1.0, 1e-7),
            ("(t - 0.5) * xi_t^2 + xi_t + xi_phi", 0.5, 1e-14),
            ("(xi_t^2 + xi_phi^2/f(t)^2 - 1) * (xi_t - 3) + t*xi_phi", 0.1, 1e-13),
            ("(t - 0.5) * xi_t^3 + xi_t^2 + xi_phi^2 / f(t)^2 - xi_t", 0.5, 1e-13),
            ("(xi_t^2 + xi_phi^2 - 1)*(xi_t^2 + xi_phi^2 - 4)", 0.0, 1e-13),
            ("(t - 0.5) * xi_t^4 + xi_t^2 + xi_phi^2/f(t)^2 - 0.3*xi_t", 1.0, 1e-13),
            # circles of radius 100 and 200, where p1's terms reach 1e9 and
            # rounding alone leaves |p1 - E1| far above 1e-10
            ("(xi_t^2 + xi_phi^2/f(t)^2 - 1e4)*(xi_t^2 + xi_phi^2/f(t)^2 - 4e4)", 0.0, 1e-13),
            # a double and a triple root: one point each
            ("(xi_t^2 + xi_phi^2 - 1)^2", 0.0, 1e-7),
            ("(xi_t - 0.5)^3 + 1", 1.0, 1e-4),
            # homogeneous: the closed form
            (BUILTIN_P1_TEXT, 1.3, 1e-14),
            ("xi_t^3", 0.7, 1e-14),
            ("(xi_t^2 + xi_phi^2 / f(t)^2)^2", 2.0, 1e-14),
        ],
    )
    def test_roots_equal_np_roots_ray_by_ray(self, perturbed, p1_text, E1, rtol):
        m = moment_map_from_config(perturbed, p1_text, None)
        ts, phis = np.array([-0.3, 0.1, 0.5, 0.7]), np.array([0.2, 1.0, 2.0, 3.0])
        sigmas = adm._angles(24)
        if p1_text in _UNBOUNDED:
            with pytest.raises(FiberError, match="unbounded fiber"):
                adm._fibers(m, ts, phis, E1, sigmas, adm._Workspace())
            c, s = np.cos(sigmas), perturbed.value(ts)[:, None] * np.sin(sigmas)
            degrees, program = m.p1_grades
            a = np.zeros((degrees[-1] + 1, len(ts), len(sigmas)))
            for d, coefficient in zip(degrees, program(ts[:, None], phis[:, None], c, s)):
                a[d] = coefficient
            a[0] -= E1
            with np.errstate(all="ignore"):
                radii = adm._roots(a.reshape(len(a), -1))
            # the oracle reads roots up to 1e3
            radii[radii > 1e3] = np.nan
            radii.sort(axis=1)
        else:
            _, _, radii, _ = adm._fibers(m, ts, phis, E1, sigmas, adm._Workspace())
        radii = radii.reshape(len(ts), len(sigmas), -1)
        for i, (t, phi) in enumerate(zip(ts, phis)):
            for j, expect in enumerate(_np_roots(m, t, phi, E1, sigmas)):
                got = radii[i, j]
                # ascending, NaN-padded
                assert np.isnan(got[len(expect):]).all()
                np.testing.assert_allclose(got[: len(expect)], expect, rtol=rtol)
                # on the level set of p1 itself, evaluated at the point, to
                # within rounding of terms of size up to r^4
                for r in got[: len(expect)]:
                    c, s = np.cos(sigmas[j]), perturbed.value(t) * np.sin(sigmas[j])
                    assert abs(m.p1(t, phi, r * c, r * s) - E1) <= 1e-9 * max(1.0, r) ** 4

    @pytest.mark.parametrize("n_tau", [64, 65, 128, 129])
    def test_shifted_ellipse_is_admissible(self, sphere, n_tau):
        # the ellipse (xi_t - 2)^2 + xi_phi^2 / f^2 = 1 does not enclose
        # xi = 0; its band sits on the far roots, where d p2 / d tau = 0.1
        arc = longitude_arc(sphere, (0.3, 0.8), 0.0)
        m = moment_map_from_config(sphere, "(xi_t - 2)^2 + xi_phi^2/f(t)^2", "xi_t + 0.1*t")
        rep = check_admissible(m, arc, EnergyPair(1.0, 2.5), grid=(n_tau, 128))
        assert rep.verdict == "admissible"
        assert rep.min_derivative == pytest.approx(0.1, rel=1e-12)
        w = rep.witness
        # the witness is the far root of its ray
        c = np.cos(w["sigma"])
        assert w["xi_t"] == pytest.approx((2 * c + np.sqrt(4 * c * c - 3)) * c, rel=1e-12)

    @pytest.mark.parametrize("n_fiber", [33, 128, 129])
    @pytest.mark.parametrize(
        "p1_text, E1",
        # an odd top degree, a line, and two circles of which the larger
        # lies beyond r = 1e3; then homogeneous symbols, of which p1 on the
        # unit ray changes sign along a row: a hyperbola, a product and a cube
        [
            ("xi_t^3 + xi_phi^2 + 0.1", 1.0),
            ("xi_t + 2 * xi_phi + 1", 2.0),
            ("(xi_t^2 + xi_phi^2/f(t)^2 - 1) * (xi_t^2 + xi_phi^2/f(t)^2 - 4e6)", 0.0),
            ("xi_t^2 - xi_phi^2/f(t)^2", 1.0),
            ("xi_t * xi_phi", 1.0),
            ("xi_t^3", 1.0),
        ],
    )
    def test_fiber_reaching_the_cutoff_is_refused(self, sphere, p1_text, E1, n_fiber):
        # a band and threshold read off the sample inside r = 1e3 would be
        # set by that cutoff, not by the symbol
        m = moment_map_from_config(sphere, p1_text, "xi_phi")
        arc = longitude_arc(sphere, (0.3, 0.8), 0.0)
        msg = f"unbounded fiber: level set p1 = {E1} reaches radius 1000"
        with pytest.raises(FiberError, match=re.escape(msg)):
            check_admissible(m, arc, EnergyPair(E1, 0.5), grid=(32, n_fiber))
        with pytest.raises(FiberError, match=re.escape(msg)):
            check_principal_type(m, arc, E1, grid=(32, n_fiber))

    @pytest.mark.parametrize("p1_text", ["sin(xi_t)", "sqrt(xi_t^2 + 1)", "xi_t^5 + xi_t", "xi_t + 1/xi_t", "1 / xi_t"])
    def test_other_symbols_are_refused_before_any_fiber(self, sphere, p1_text):
        calls = []

        class Counting(MomentMap):
            def p1(self, *args):
                calls.append(args)
                return MomentMap.p1(self, *args)

        m = Counting(surface=sphere, p1_expr=moment_map_from_config(sphere, p1_text, None).p1_expr)
        arc = longitude_arc(sphere, (0.3, 0.8), 0.0)
        for check in (
            lambda: check_admissible(m, arc, EnergyPair(1.0, 0.5), grid=(32, 32)),
            lambda: check_principal_type(m, arc, 1.0, grid=(32, 32)),
        ):
            with pytest.raises(ValueError, match="homogeneous of a positive degree") as exc:
                check()
            assert not isinstance(exc.value, FiberError)
        assert not calls
