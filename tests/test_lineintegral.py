"""Oscillation-resolved quadrature along geodesic arcs."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import roots_legendre

from qcilab import (
    HarmonicIndex,
    PanelCountError,
    QuadratureSpec,
    assoc_legendre_norm,
    integrate_adaptive,
    integrate_restriction,
    latitude_arc,
    legendre_P0,
    longitude_arc,
    solve_modes,
    turning_points,
)
from qcilab.lineintegral import _rule


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.nodes_per_panel == 12
        assert spec.panels_per_wavelength == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_panel=3)
        with pytest.raises(ValueError):
            QuadratureSpec(panels_per_wavelength=1.5)
        with pytest.raises(ValueError):
            QuadratureSpec(max_panels=0)

    def test_json_round_trip(self):
        spec = QuadratureSpec(nodes_per_panel=8, panels_per_wavelength=6.0)
        assert QuadratureSpec.from_json(spec.as_json()) == spec


class TestRule:
    def test_matches_scipy_gauss_legendre(self):
        x, w = _rule(12)
        ref_x, ref_w = roots_legendre(12)
        assert np.max(np.abs(x - ref_x)) <= 2e-15
        assert np.max(np.abs(w - ref_w)) <= 2e-15


class TestIntegrateRestriction:
    def test_constant_over_equator_arc(self, equator_arc):
        val = integrate_restriction(
            lambda t, phi: np.ones_like(t) + 0j, equator_arc, QuadratureSpec(), 0.1
        )
        assert val.real == pytest.approx(np.pi / 3, abs=1e-14)
        assert val.imag == 0.0

    def test_zonal_closed_form(self, sphere, equator_arc):
        # restriction of a zonal mode to the equator is constant
        k = 100
        u = lambda t, phi: assoc_legendre_norm(k, 0, t) * np.ones_like(phi)
        h = HarmonicIndex(k, 0).h
        val = integrate_restriction(u, equator_arc, QuadratureSpec(), h)
        expect = (np.pi / 3) * np.sqrt((2 * k + 1) / (4 * np.pi)) * legendre_P0(k)
        assert val.real == pytest.approx(expect, abs=1e-10)

    def test_oscillatory_phase_integrates_to_near_zero(self, sphere):
        # full-period complex exponential: exact value 0
        arc = latitude_arc(sphere, (0.0, 2 * np.pi * 50 / 51))
        u = lambda t, phi: np.exp(51j * phi)
        val = integrate_restriction(u, arc, QuadratureSpec(), 1 / 51)
        expect = (np.exp(51j * 2 * np.pi * 50 / 51) - 1.0) / 51j
        assert val == pytest.approx(expect, abs=1e-12)

    def test_doubling_panels_is_stable_at_high_frequency(self, sphere):
        idx = HarmonicIndex(400, 200)
        th0, _ = turning_points(idx)
        arc = longitude_arc(
            sphere, (np.cos(th0), np.cos(th0 - 0.3)), 0.0
        )
        u = lambda t, phi: assoc_legendre_norm(400, 200, t) * np.exp(200j * phi)
        coarse = integrate_restriction(u, arc, QuadratureSpec(), idx.h)
        fine = integrate_restriction(
            u, arc, QuadratureSpec(panels_per_wavelength=8.0), idx.h
        )
        assert abs(fine - coarse) <= 1e-8 * max(1.0, abs(coarse))

    def test_linearity(self, sphere, equator_arc):
        spec = QuadratureSpec()
        u = lambda t, phi: np.exp(3j * phi)
        v = lambda t, phi: np.cos(phi) + 0j
        a, b = 2.5, -1.25j
        combo = lambda t, phi: a * u(t, phi) + b * v(t, phi)
        lhs = integrate_restriction(combo, equator_arc, spec, 0.2)
        rhs = a * integrate_restriction(
            u, equator_arc, spec, 0.2
        ) + b * integrate_restriction(v, equator_arc, spec, 0.2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_additivity_over_subdivision(self, sphere):
        spec = QuadratureSpec()
        u = lambda t, phi: np.exp(5j * phi)
        whole = integrate_restriction(
            u, latitude_arc(sphere, (0.0, 1.0)), spec, 0.05
        )
        left = integrate_restriction(
            u, latitude_arc(sphere, (0.0, 0.4)), spec, 0.05
        )
        right = integrate_restriction(
            u, latitude_arc(sphere, (0.4, 1.0)), spec, 0.05
        )
        assert whole == pytest.approx(left + right, abs=1e-12)

    def test_conjugation(self, equator_arc):
        spec = QuadratureSpec()
        u = lambda t, phi: np.exp(7j * phi)
        ubar = lambda t, phi: np.exp(-7j * phi)
        assert integrate_restriction(
            ubar, equator_arc, spec, 0.1
        ) == np.conj(integrate_restriction(u, equator_arc, spec, 0.1))

    def test_joint_eigenfunction_object_accepted(self, sphere, equator_arc):
        mode = solve_modes(sphere, 2, 3, N=1024)[2]
        val = integrate_restriction(mode, equator_arc, QuadratureSpec(), mode.h)
        direct = integrate_restriction(
            lambda t, phi: mode.value(t, phi), equator_arc, QuadratureSpec(), mode.h
        )
        assert val == direct

    def test_panel_budget_enforced(self, equator_arc):
        spec = QuadratureSpec(max_panels=10)
        with pytest.raises(PanelCountError):
            integrate_restriction(
                lambda t, phi: phi + 0j, equator_arc, spec, 1e-6
            )

    def test_nonpositive_scale_rejected(self, equator_arc):
        with pytest.raises(ValueError):
            integrate_restriction(
                lambda t, phi: phi + 0j, equator_arc, QuadratureSpec(), 0.0
            )


class TestIntegrateAdaptive:
    def test_smooth_integrand_error_estimate(self, equator_arc):
        u = lambda t, phi: np.exp(2j * phi)
        val, err = integrate_adaptive(u, equator_arc, QuadratureSpec(), 0.5)
        expect = (np.exp(2j * np.pi / 3) - 1.0) / 2j
        assert val == pytest.approx(expect, abs=1e-13)
        assert err <= 1e-12

    def test_estimate_bounds_true_error_at_high_frequency(self, sphere):
        idx = HarmonicIndex(1000, 0)
        arc = latitude_arc(sphere, (0.0, np.pi / 3))
        u = lambda t, phi: assoc_legendre_norm(1000, 0, t) * np.ones_like(phi)
        val, err = integrate_adaptive(u, arc, QuadratureSpec(), idx.h)
        expect = (np.pi / 3) * assoc_legendre_norm(1000, 0, 0.0)
        assert abs(val - expect) <= max(err, 1e-8 * abs(expect) + 1e-14)

    @pytest.mark.parametrize(
        "l, k, arc",
        [
            (40, 20, ("longitude", (0.3, 0.8))),
            (200, 100, ("longitude", (-0.95, 0.9))),
            (1600, 790, ("longitude", (0.1, 0.5))),
            (700, 0, ("latitude", (0.0, np.pi / 3))),
            (333, 333, ("latitude", (1.0, 3.5))),
            (1, 1, ("latitude", (0.0, 0.01))),
        ],
    )
    @pytest.mark.parametrize("spec", [QuadratureSpec(), QuadratureSpec(7, 2.5)])
    def test_equals_two_restriction_passes_bit_for_bit(self, sphere, l, k, arc, spec):
        kind, span = arc
        geod = longitude_arc(sphere, span, 0.7) if kind == "longitude" else latitude_arc(sphere, span)
        idx = HarmonicIndex(l, k)
        coarse = integrate_restriction(idx, geod, spec, idx.h)
        doubled = replace(spec, panels_per_wavelength=2 * spec.panels_per_wavelength)
        fine = integrate_restriction(idx, geod, doubled, idx.h)
        assert integrate_adaptive(idx, geod, spec, idx.h) == (fine, abs(fine - coarse))

    def test_panel_budget_counts_the_doubled_rule(self, equator_arc):
        # 134 panels at h = 0.005, 267 at the doubled density
        spec = QuadratureSpec(max_panels=200)
        assert integrate_restriction(lambda t, phi: phi + 0j, equator_arc, spec, 0.005)
        with pytest.raises(PanelCountError, match="needs 267 panels"):
            integrate_adaptive(lambda t, phi: phi + 0j, equator_arc, spec, 0.005)
