"""Surface profiles and geodesic arcs."""

import json

import numpy as np
import pytest

from qcilab import (
    GeodesicError,
    ProfileError,
    latitude_arc,
    longitude_arc,
    make_profile,
)


class TestMakeProfile:
    def test_sphere_equator(self, sphere):
        assert sphere.t0 == 0.0
        assert sphere.value(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_sphere_poles_vanish(self, sphere):
        assert abs(sphere.value(-1.0)) <= 1e-12
        assert abs(sphere.value(1.0)) <= 1e-12

    def test_sphere_matches_sqrt_one_minus_t2(self, sphere):
        t = np.linspace(-0.99, 0.99, 401)
        assert np.max(np.abs(sphere.value(t) - np.sqrt(1 - t * t))) <= 1e-13

    def test_perturbed_bump_location_against_dense_argmax(self, perturbed):
        # independent oracle: argmax of f^2 on a very fine grid
        t = np.linspace(-1.0, 1.0, 1_000_001)
        t_star = t[np.argmax(perturbed.sq(t))]
        assert abs(perturbed.t0 - t_star) <= 3e-6

    def test_bump_is_critical_and_nondegenerate(self, perturbed):
        assert abs(perturbed.sq_prime(perturbed.t0)) <= 1e-14
        assert perturbed.sq_second(perturbed.t0) < 0.0

    def test_seeded_bumps_are_roots_to_working_precision(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            coeffs = [1.0, *rng.uniform(-0.5, 0.5, int(rng.integers(1, 6)))]
            try:
                prof = make_profile("polynomial-perturbed", coeffs)
            except ProfileError:
                continue
            assert abs(prof.sq_prime(prof.t0)) <= 1e-14, coeffs
            assert prof.sq_second(prof.t0) < 0.0, coeffs
            checked += 1

    def test_flat_maximum_rejected(self):
        # (1 - t^2)(1 + t^2) = 1 - t^4: its one critical point, t = 0, has
        # (f^2)'' = 0
        with pytest.raises(ProfileError, match="degenerate maximum"):
            make_profile("polynomial-perturbed", [1.0, 0.0, 1.0])

    def test_constant_factor_rescales_radius(self):
        prof = make_profile("polynomial-perturbed", [1.21])
        assert prof.t0 == 0.0
        assert prof.value(0.0) == pytest.approx(1.1, abs=1e-12)

    def test_sphere_rejects_coefficients(self):
        with pytest.raises(ProfileError):
            make_profile("sphere", [1.0, 0.2])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProfileError):
            make_profile("torus", [])

    def test_nonpositive_factor_rejected(self):
        # 1 - 2t goes negative on (1/2, 1)
        with pytest.raises(ProfileError):
            make_profile("polynomial-perturbed", [1.0, -2.0])

    def test_two_bumps_rejected(self):
        # (1 - t^2)(1 + 4 t^2) has interior critical points at 0 and +/- sqrt(3/8)
        with pytest.raises(ProfileError):
            make_profile("polynomial-perturbed", [1.0, 0.0, 4.0])

    def test_json_round_trip(self, perturbed):
        obj = json.loads(json.dumps(perturbed.as_json()))
        out = make_profile(obj["kind"], obj["coefficients"])
        assert out == perturbed

    def test_canonical_text_stable(self, perturbed):
        assert perturbed.canonical_text() == perturbed.canonical_text()
        assert "polynomial-perturbed" in perturbed.canonical_text()

    def test_derivative_matches_finite_difference(self, perturbed):
        t = np.linspace(-0.9, 0.9, 19)
        d = 1e-7
        fd = (perturbed.value(t + d) - perturbed.value(t - d)) / (2 * d)
        assert np.max(np.abs(perturbed.derivative(t) - fd)) <= 1e-6


class TestLatitudeArc:
    def test_equator_arc_length(self, equator_arc):
        assert equator_arc.length == pytest.approx(np.pi / 3, abs=1e-14)
        assert equator_arc.fixed_coordinate == 0.0

    def test_perturbed_arc_length_scales_with_radius(self):
        prof = make_profile("polynomial-perturbed", [1.21])
        arc = latitude_arc(prof, (0.0, 1.0))
        assert arc.length == pytest.approx(1.1, abs=1e-12)

    def test_empty_range_rejected(self, sphere):
        with pytest.raises(GeodesicError):
            latitude_arc(sphere, (1.0, 1.0))

    def test_full_turn_rejected(self, sphere):
        with pytest.raises(GeodesicError):
            latitude_arc(sphere, (0.0, 2 * np.pi))


class TestLongitudeArc:
    def test_length_is_parameter_range(self, upper_longitude):
        assert upper_longitude.length == pytest.approx(0.5, abs=1e-14)

    def test_reversed_range_rejected(self, sphere):
        with pytest.raises(GeodesicError):
            longitude_arc(sphere, (0.8, 0.3), 0.0)

    def test_chart_boundary_rejected(self, sphere):
        with pytest.raises(GeodesicError):
            longitude_arc(sphere, (-1.0, 0.5), 0.0)


class TestGeodesicPoint:
    def test_equator_start(self, sphere):
        arc = latitude_arc(sphere, (0.7, 0.7 + 1.0))
        t, phi = arc.point(0.0)
        tangent = arc.tangent()
        assert t == 0.0
        assert phi == pytest.approx(0.7, abs=1e-14)
        assert tangent == pytest.approx((0.0, 1.0), abs=1e-14)

    def test_longitude_point(self, upper_longitude):
        t, phi = upper_longitude.point(0.4)
        tangent = upper_longitude.tangent()
        assert t == pytest.approx(0.4, abs=1e-14)
        assert phi == 0.0
        assert tangent == pytest.approx((1.0, 0.0), abs=1e-14)

    def test_out_of_range_rejected(self, upper_longitude):
        with pytest.raises(GeodesicError):
            upper_longitude.point(0.9)

    def test_unit_speed_in_the_metric(self, sphere, perturbed):
        # ds^2 = dt^2 + f(t)^2 dphi^2; speed along each arc must be exactly 1,
        # so quadrature of the speed recovers the stated length
        for arc in (
            latitude_arc(perturbed, (0.2, 1.4)),
            longitude_arc(perturbed, (-0.5, 0.5), 1.0),
        ):
            taus = np.linspace(arc.param_range[0], arc.param_range[1], 20001)
            t, _ = arc.point(taus)
            dt, dphi = arc.tangent()
            speed = np.sqrt(dt**2 + perturbed.sq(t) * dphi**2)
            length = np.trapezoid(speed, taus)
            assert length == pytest.approx(arc.length, rel=1e-10)
