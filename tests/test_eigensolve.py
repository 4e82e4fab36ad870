"""Radial discretization, joint modes, and the disk cache."""

import json

import numpy as np
import pytest

from qcilab import (
    HarmonicIndex,
    assemble_operator,
    assoc_legendre_norm,
    eigenpairs,
    load_modes,
    save_modes,
    solve_modes,
    solve_modes_cached,
)


def _apply(system, v):
    out = system.diag * v
    out[:-1] += system.offdiag * v[1:]
    out[1:] += system.offdiag * v[:-1]
    return out


class TestAssembleOperator:
    def test_shape_and_grid(self, sphere):
        system = assemble_operator(sphere, 3, 1024)
        assert system.size == 1024
        assert len(system.offdiag) == 1023
        assert system.step == pytest.approx(2.0 / 1024, abs=1e-18)
        # interior half-offset grid never touches the chart boundary
        assert system.grid[0] == pytest.approx(-1 + 1 / 1024, abs=1e-15)
        assert system.grid[-1] == pytest.approx(1 - 1 / 1024, abs=1e-15)

    def test_small_grid_rejected(self, sphere):
        with pytest.raises(ValueError):
            assemble_operator(sphere, 0, 128)

    def test_grid_too_coarse_for_order_rejected(self, sphere):
        with pytest.raises(ValueError):
            assemble_operator(sphere, 100, 1024)

    def test_negative_order_rejected(self, sphere):
        with pytest.raises(ValueError):
            assemble_operator(sphere, -1, 1024)


class TestEigenpairs:
    def test_sphere_spectrum_k0(self, sphere):
        system = assemble_operator(sphere, 0, 2048)
        pairs = eigenpairs(system, 5)
        assert abs(pairs[0][0]) <= 1e-8
        for j, (lam, _) in enumerate(pairs[1:], start=1):
            assert lam == pytest.approx(j * (j + 1), rel=1e-6)

    def test_sphere_lowest_mode_k2(self, sphere):
        system = assemble_operator(sphere, 2, 4096)
        lam, vec = eigenpairs(system, 1)[0]
        assert lam == pytest.approx(6.0, rel=1e-6)
        # normalization: 2 pi * sum(w^2) * dt = 1
        assert 2 * np.pi * system.step * np.sum(vec**2) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rayleigh_quotient_consistency(self, sphere):
        system = assemble_operator(sphere, 10, 4096)
        for lam, vec in eigenpairs(system, 5):
            r = float(np.dot(vec, _apply(system, vec)) / np.dot(vec, vec))
            assert r == pytest.approx(lam, rel=1e-8)

    def test_eigenvectors_orthonormal(self, sphere):
        system = assemble_operator(sphere, 10, 2048)
        vecs = np.array([v for _, v in eigenpairs(system, 5)]).T
        gram = 2 * np.pi * system.step * (vecs.T @ vecs)
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-7

    def test_second_order_convergence(self, sphere):
        errs = []
        for N in (512, 1024, 2048):
            system = assemble_operator(sphere, 2, N)
            lam = eigenpairs(system, 3)[2][0]
            errs.append(abs(lam - 20.0) / 20.0)
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_perturbed_profile_spectrum_is_simple(self, perturbed):
        system = assemble_operator(perturbed, 1, 2048)
        pairs = eigenpairs(system, 8)
        lams = np.array([lam for lam, _ in pairs])
        assert np.all(np.diff(lams) > 0)
        # Sturm oscillation: the j-th radial mode changes sign j times
        for j, (_, vec) in enumerate(pairs):
            changes = int(np.sum(np.sign(vec[:-1]) * np.sign(vec[1:]) < 0))
            assert changes == j

    def test_count_out_of_range_rejected(self, sphere):
        system = assemble_operator(sphere, 0, 512)
        with pytest.raises(ValueError):
            eigenpairs(system, 200)


class TestSolveModes:
    def test_high_mode_eigenvalue(self, sphere):
        modes = solve_modes(sphere, 100, 101, N=8192)
        lam = modes[100].eigenvalue
        assert lam == pytest.approx(200 * 201, rel=1e-5)

    def test_eigenvector_matches_normalized_legendre(self, sphere):
        modes = solve_modes(sphere, 10, 11, N=4096)
        mode = modes[10]  # l = 20
        ref = assoc_legendre_norm(20, 10, mode.radial_grid)
        sign = np.sign(np.dot(ref, mode.radial_values))
        assert np.max(np.abs(sign * mode.radial_values - ref)) <= 1e-5

    def test_mode_metadata(self, sphere):
        modes = solve_modes(sphere, 2, 3, N=1024)
        assert [m.l_index for m in modes] == [0, 1, 2]
        assert all(m.k == 2 for m in modes)
        idx = HarmonicIndex(3, 2)
        assert modes[1].h == pytest.approx(idx.h, rel=1e-8)

    def test_constant_mode_has_no_scale(self, sphere):
        modes = solve_modes(sphere, 0, 1, N=1024)
        assert modes[0].h is None

    def test_odd_grid_rejected(self, sphere):
        with pytest.raises(ValueError):
            solve_modes(sphere, 0, 1, N=1025)

    def test_too_small_grid_rejected(self, sphere):
        with pytest.raises(ValueError):
            solve_modes(sphere, 0, 1, N=256)


class TestJointEigenfunction:
    def test_value_on_the_equator(self, sphere):
        modes = solve_modes(sphere, 2, 3, N=4096)
        mode = modes[2]  # l = 4, k = 2
        ref = assoc_legendre_norm(4, 2, 0.0)
        sign = np.sign(mode.radial(0.0) / ref)
        val = mode.value(0.0, 0.7)
        expect = sign * ref * np.exp(2j * 0.7)
        assert val == pytest.approx(expect, abs=1e-8)

    def test_modulus_is_phi_invariant(self, sphere):
        mode = solve_modes(sphere, 5, 6, N=2048)[5]
        vals = [abs(mode.value(0.2, p)) for p in (0.0, 1.1, 2.9)]
        assert max(vals) - min(vals) <= 1e-14

    def test_zonal_mode_is_phi_independent(self, sphere):
        mode = solve_modes(sphere, 0, 3, N=1024)[2]
        a = mode.value(0.3, 0.0)
        b = mode.value(0.3, 2.0)
        assert a == b
        assert a.imag == 0.0

    def test_radial_outside_chart_rejected(self, sphere):
        mode = solve_modes(sphere, 0, 1, N=1024)[0]
        with pytest.raises(ValueError):
            mode.radial(1.5)

    def test_spline_is_built_on_first_radial_call(self, sphere):
        mode = solve_modes(sphere, 1, 2, N=1024)[1]
        assert "_spline" not in vars(mode)
        mode.radial(0.25)
        assert "_spline" in vars(mode)

    def test_cached_mode_evaluates_bit_identically(self, sphere, tmp_path):
        saved = solve_modes(sphere, 2, 3, N=1024)
        save_modes(saved, str(tmp_path))
        loaded = load_modes(sphere, 2, 1024, 3, str(tmp_path))
        t = np.linspace(-1.0, 1.0, 257)  # reaches past the end nodes, into extrapolation
        for a, b in zip(saved, loaded):
            assert "_spline" not in vars(b)
            assert a.radial(t).tobytes() == b.radial(t).tobytes()
            assert a.value(t, 0.7).tobytes() == b.value(t, 0.7).tobytes()


class TestModeCache:
    def test_round_trip_and_hit_flag(self, sphere, tmp_path):
        cache = str(tmp_path / "cache")
        first, hit1 = solve_modes_cached(sphere, 3, 4, N=1024, cache_dir=cache)
        again, hit2 = solve_modes_cached(sphere, 3, 4, N=1024, cache_dir=cache)
        assert not hit1 and hit2
        for a, b in zip(first, again):
            assert a.eigenvalue == b.eigenvalue
            assert np.array_equal(a.radial_values, b.radial_values)

    def test_cache_distinguishes_profiles(self, sphere, perturbed, tmp_path):
        cache = str(tmp_path / "cache")
        solve_modes_cached(sphere, 1, 2, N=1024, cache_dir=cache)
        _, hit = solve_modes_cached(perturbed, 1, 2, N=1024, cache_dir=cache)
        assert not hit

    def test_larger_count_misses(self, sphere, tmp_path):
        cache = str(tmp_path / "cache")
        modes, _ = solve_modes_cached(sphere, 1, 2, N=1024, cache_dir=cache)
        assert load_modes(sphere, 1, 1024, 6, cache) is None

    def test_save_then_load_explicit(self, sphere, tmp_path):
        modes = solve_modes(sphere, 2, 3, N=1024)
        save_modes(modes, str(tmp_path))
        loaded = load_modes(sphere, 2, 1024, 3, str(tmp_path))
        assert loaded is not None
        for a, b in zip(modes, loaded):
            assert a.eigenvalue == b.eigenvalue
            assert np.array_equal(a.radial_values, b.radial_values)


def _meta(edit):
    def apply(text):
        meta = json.loads(text)
        edit(meta)
        return json.dumps(meta)

    return apply


def _rows(edit):
    def apply(text):
        lines = text.splitlines()
        return "\n".join([lines[0]] + edit(lines[1:])) + "\n"

    return apply


# unparsable meta.json, a one-word radial.csv and too few columns are
# covered end to end in test_cli
_CORRUPTIONS = {
    "meta-missing-key": ("meta.json", _meta(lambda m: m.pop("eigenvalues"))),
    "meta-not-an-object": ("meta.json", lambda text: "[1, 2]"),
    "meta-few-eigenvalues": ("meta.json", _meta(lambda m: m["eigenvalues"].pop())),
    "csv-unparsable": ("radial.csv", lambda text: text.replace("0", "x", 5)),
    "csv-one-row": ("radial.csv", _rows(lambda rows: rows[:1])),
    "csv-one-column": ("radial.csv", _rows(lambda rows: [r.split(",")[0] for r in rows])),
    "csv-short-rows": ("radial.csv", _rows(lambda rows: rows[:-1])),
}


class TestCorruptCacheSlot:
    @pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
    def test_corrupt_slot_is_a_miss_and_is_rewritten(self, sphere, tmp_path, case):
        name, edit = _CORRUPTIONS[case]
        cache = str(tmp_path / "cache")
        modes, _ = solve_modes_cached(sphere, 1, 3, N=1024, cache_dir=cache)
        (slot,) = (tmp_path / "cache").iterdir()
        target = slot / name
        target.write_text(edit(target.read_text()))
        assert load_modes(sphere, 1, 1024, 3, cache) is None

        again, hit = solve_modes_cached(sphere, 1, 3, N=1024, cache_dir=cache)
        assert not hit
        reloaded = load_modes(sphere, 1, 1024, 3, cache)
        assert reloaded is not None
        for a, b in zip(modes, reloaded):
            assert a.eigenvalue == b.eigenvalue
            assert np.array_equal(a.radial_values, b.radial_values)
