"""Legendre functions, normalization, and the oscillatory main term."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import gammaln, lpmv, roots_legendre

from qcilab import (
    HarmonicIndex,
    QuadratureSpec,
    assoc_legendre_norm,
    integrate_restriction,
    legendre_P,
    legendre_P0,
    longitude_arc,
    szego_main_term,
    turning_points,
)
from qcilab.specfun import _BIG, _BIGI, _log_central_binomial, _raise_degree, _sectoral_seed


class TestHarmonicIndex:
    def test_scale_inverts_frequency(self):
        for l, k in ((2, 0), (40, 20), (2000, 1000)):
            idx = HarmonicIndex(l, k)
            assert idx.h * np.sqrt(l * (l + 1)) == pytest.approx(1.0, abs=1e-14)
            assert idx.eigenvalue == l * (l + 1)

    def test_constant_mode_has_no_scale(self):
        assert HarmonicIndex(0, 0).h is None

    def test_order_above_degree_rejected(self):
        with pytest.raises(ValueError):
            HarmonicIndex(3, 4)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            HarmonicIndex(3, -1)

    def test_value_is_the_normalized_sphere_mode(self):
        idx = HarmonicIndex(40, 17)
        t, phi = np.linspace(-0.9, 0.9, 7), np.linspace(0.0, 6.0, 7)
        expect = assoc_legendre_norm(40, 17, t) * np.exp(17j * phi)
        np.testing.assert_array_equal(idx.value(t, phi), expect)
        assert idx.value(0.3, 1.2) == assoc_legendre_norm(40, 17, 0.3) * np.exp(17j * 1.2)

    def test_integrates_like_its_closure(self, sphere):
        # integrate_restriction unwraps .value, so the index itself is the integrand
        idx = HarmonicIndex(60, 30)
        arc = longitude_arc(sphere, (0.2, 0.7), 0.4)

        def u(t, phi):
            return assoc_legendre_norm(60, 30, t) * np.exp(30j * np.asarray(phi))

        spec = QuadratureSpec()
        expect = integrate_restriction(u, arc, spec, idx.h)
        assert integrate_restriction(idx, arc, spec, idx.h) == expect


class TestLegendreP:
    def test_low_degree_closed_forms(self):
        x = np.linspace(-1, 1, 41)
        assert np.max(np.abs(legendre_P(0, x) - 1.0)) == 0.0
        assert np.max(np.abs(legendre_P(1, x) - x)) == 0.0
        assert np.max(np.abs(legendre_P(2, x) - (3 * x * x - 1) / 2)) <= 1e-15

    def test_hand_value(self):
        assert legendre_P(5, 0.3) == pytest.approx(0.34538625, abs=1e-12)

    def test_endpoint_is_one(self):
        for k in (3, 17, 100, 2000):
            assert legendre_P(k, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_bounded_by_one(self):
        x = np.linspace(-1, 1, 1001)
        for k in (3, 17, 100, 2000):
            assert np.max(np.abs(legendre_P(k, x))) <= 1.0 + 1e-12

    def test_parity(self):
        x = np.linspace(0, 1, 101)
        for k in (4, 7, 32):
            sign = (-1) ** k
            assert np.max(
                np.abs(legendre_P(k, -x) - sign * legendre_P(k, x))
            ) <= 1e-12

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            legendre_P(3, 1.5)


class TestLegendreP0:
    def test_odd_degrees_vanish(self):
        assert legendre_P0(3) == 0.0
        assert legendre_P0(101) == 0.0

    def test_low_even_values(self):
        assert legendre_P0(0) == 1.0
        assert legendre_P0(2) == pytest.approx(-0.5, abs=1e-15)
        assert legendre_P0(4) == pytest.approx(0.375, abs=1e-15)

    def test_matches_recurrence_at_zero(self):
        for k in (10, 100, 500):
            assert legendre_P0(k) == pytest.approx(
                float(legendre_P(k, 0.0)), abs=1e-12
            )

    def test_asymptotic_size(self):
        # |P_k(0)| ~ sqrt(2/(pi k)) for even k
        k = 100
        assert abs(legendre_P0(k)) == pytest.approx(
            np.sqrt(2 / (np.pi * k)), rel=0.01
        )

    def test_no_overflow_at_large_degree(self):
        v = legendre_P0(2000)
        assert np.isfinite(v) and v != 0.0


class TestLogCentralBinomial:
    def test_matches_exact_integer_oracle(self):
        # log(C(2m, m) / 4^m) from the exact integer, at 40 digits
        ms = [*range(101), *range(101, 3200, 11), 3200]
        with localcontext() as ctx:
            ctx.prec = 40
            ln4 = Decimal(4).ln()
            worst = max(
                abs(Decimal(_log_central_binomial(m)) - (Decimal(math.comb(2 * m, m)).ln() - m * ln4))
                for m in ms
            )
        assert worst <= Decimal("1e-15")


def _lpmv_normalized(l, k, x):
    # independent oracle: scipy's unnormalized P_l^k times the L2(S^2) factor;
    # only usable while (l+k)! stays in double range
    logc = 0.5 * (
        np.log((2 * l + 1) / (4 * np.pi))
        + gammaln(l - k + 1)
        - gammaln(l + k + 1)
    )
    return np.exp(logc) * lpmv(k, l, x)


class TestAssocLegendreNorm:
    def test_constant_mode(self):
        assert assoc_legendre_norm(0, 0, 0.3) == pytest.approx(
            1 / np.sqrt(4 * np.pi), abs=1e-15
        )

    def test_sectoral_value_at_equator(self):
        # N_2^2(0) = sqrt(15/(32 pi))
        assert abs(assoc_legendre_norm(2, 2, 0.0)) == pytest.approx(
            np.sqrt(15 / (32 * np.pi)), abs=1e-14
        )

    def test_matches_scipy_at_moderate_degree(self):
        x = np.linspace(-0.95, 0.95, 201)
        for l, k in ((5, 3), (40, 20), (120, 60), (120, 0)):
            mine = assoc_legendre_norm(l, k, x)
            ref = np.abs(_lpmv_normalized(l, k, x))
            assert np.max(np.abs(np.abs(mine) - ref)) <= 1e-12

    def test_orthonormal_on_the_sphere(self):
        # 2 pi * integral over t in [-1, 1] of N_l^k N_l'^k dt = delta_ll'
        nodes, weights = roots_legendre(600)
        for k in (0, 50):
            for l1 in (100, 102, 200):
                v1 = assoc_legendre_norm(l1, k, nodes)
                for l2 in (100, 102, 200):
                    v2 = assoc_legendre_norm(l2, k, nodes)
                    g = 2 * np.pi * np.sum(weights * v1 * v2)
                    assert g == pytest.approx(
                        1.0 if l1 == l2 else 0.0, abs=1e-7
                    )

    def test_no_overflow_or_flush_in_oscillatory_region(self):
        # l = 2k turning points sit at |t| = cos(pi/6); stay inside
        x = np.linspace(-0.85, 0.85, 301)
        v = assoc_legendre_norm(4000, 2000, x)
        assert np.all(np.isfinite(v))
        assert np.min(np.abs(v)) > 0.0

    @pytest.mark.parametrize("l", [1, 2, 5, 40, 121])
    def test_pole_values(self, l):
        # N_l^0(+-1) = sqrt((2l+1)/4pi) (+-1)^l; every k > 0 vanishes there
        for x in (1.0, -1.0):
            zonal = np.sqrt((2 * l + 1) / (4 * np.pi)) * x**l
            assert assoc_legendre_norm(l, 0, x) == pytest.approx(zonal, rel=1e-14)
            assert assoc_legendre_norm(l, 0, x) == pytest.approx(
                _lpmv_normalized(l, 0, x), rel=1e-12
            )
            for k in range(1, min(l, 3) + 1):
                assert assoc_legendre_norm(l, k, x) == 0.0 == _lpmv_normalized(l, k, x)

    def test_scalar_in_scalar_out(self):
        v = assoc_legendre_norm(40, 20, 0.1)
        assert isinstance(v, float)

    def test_order_above_degree_rejected(self):
        with pytest.raises(ValueError):
            assoc_legendre_norm(3, 4, 0.0)


def _per_step_loop(l, k, x, mant, chunks):
    # reference for the rescale interval: the coefficients recomputed and
    # the rescale tested after every step
    e = chunks.copy()

    if l == k:
        out = np.ldexp(mant, e)
        return out

    prev = np.zeros_like(mant)
    cur = mant
    for j in range(k + 1, l + 1):
        a = np.sqrt((4.0 * j * j - 1.0) / (j * j - k * k))
        if j == k + 1:
            new = a * x * cur
        else:
            b = -np.sqrt(
                (2.0 * j + 1.0) / (2.0 * j - 3.0) * ((j - 1.0) ** 2 - k * k) / (j * j - k * k)
            )
            new = a * x * cur + b * prev
        prev, cur = cur, new
        big = np.abs(cur) > _BIG
        if np.any(big):
            cur = np.where(big, cur * _BIGI, cur)
            prev = np.where(big, prev * _BIGI, prev)
            e = np.where(big, e + 512, e)
        small = (np.abs(cur) < _BIGI) & (np.abs(cur) > 0) & (np.abs(prev) < _BIGI)
        if np.any(small):
            cur = np.where(small, cur * _BIG, cur)
            prev = np.where(small, prev * _BIG, prev)
            e = np.where(small, e - 512, e)
    out = np.ldexp(cur, e)
    return out


def _bit_test_points(l, k):
    x = np.linspace(-1.0, 1.0, 801)
    x = np.concatenate([x, [-0.0, 6.1e-17, 1.0 - 1e-15, -1.0 + 1e-15, 0.999999, -0.99]])
    if 0 < k < l:
        theta0, _ = turning_points(HarmonicIndex(l, k))
        near = theta0 + np.linspace(-0.02, 0.02, 201)
        x = np.concatenate([x, np.cos(near), -np.cos(near)])
    return x


class TestRecurrenceMatchesPerStepLoop:
    @pytest.mark.parametrize(
        "l, k",
        [(0, 0), (5, 0), (3000, 0), (1, 1), (2, 1), (500, 1), (3, 2), (4000, 10),
         (4000, 3999), (200, 100), (3200, 1600), (6400, 3200)],
    )
    def test_bit_identical(self, l, k):
        x = _bit_test_points(l, k)
        ref = _per_step_loop(l, k, x, *_sectoral_seed(k, x))
        assert assoc_legendre_norm(l, k, x).tobytes() == ref.tobytes()

    def test_bit_identical_through_both_rescales(self):
        # a seed 2^600 below the true one (exponent raised to match) makes the
        # per-step loop scale up after its first step; at x = 0.9 the values
        # then grow by more than 2^1200, so it also scales down later
        l, k = 6400, 3200
        x = np.concatenate([_bit_test_points(l, k), [0.9]])
        mant, e = _sectoral_seed(k, x)
        mant, e = mant * 2.0**-600, e + 600
        assert np.all(mant < _BIGI)
        ref = _per_step_loop(l, k, x, mant, e)
        assert np.log2(abs(ref[-1])) - (np.log2(mant[-1]) + e[-1]) > 1200
        assert _raise_degree(l, k, x, mant, e).tobytes() == ref.tobytes()
        assert ref.tobytes() == assoc_legendre_norm(l, k, x).tobytes()

    def test_bit_identical_from_a_seed_just_below_the_big_rescale(self):
        # the first rescale interval then starts where the bound allows and
        # the growth per step is steepest, near the pole at k = 3200
        l, k = 6400, 3200
        x = _bit_test_points(l, k)
        mant, e = _sectoral_seed(k, x)
        mant, e = mant * 2.0**510, e - 510
        ref = _per_step_loop(l, k, x, mant, e)
        assert _raise_degree(l, k, x, mant, e).tobytes() == ref.tobytes()


class TestSzegoMainTerm:
    @pytest.mark.parametrize("k", [200, 500, 1000, 2000])
    @pytest.mark.parametrize("theta", [np.pi / 3, np.pi / 2, 2 * np.pi / 3])
    def test_error_bound_interior(self, k, theta):
        exact = float(legendre_P(k, np.cos(theta)))
        main = szego_main_term(k, theta)
        assert abs(exact - main) <= 5.0 * k ** (-1.5)

    def test_near_pole_rejected(self):
        with pytest.raises(ValueError):
            szego_main_term(100, 0.01)


class TestTurningPoints:
    def test_half_width_limit(self):
        # l = 2k: sin(theta0) = k h -> 1/2, so theta0 -> pi/6 from below
        prev = 0.0
        for k in (10, 100, 1000):
            th0, th1 = turning_points(HarmonicIndex(2 * k, k))
            assert th0 == pytest.approx(
                np.arcsin(k / np.sqrt(2 * k * (2 * k + 1))), abs=1e-14
            )
            assert th1 == pytest.approx(np.pi - th0, abs=1e-14)
            assert prev < th0 < np.pi / 6
            prev = th0

    def test_zonal_rejected(self):
        with pytest.raises(ValueError):
            turning_points(HarmonicIndex(4, 0))
