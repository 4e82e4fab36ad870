"""Radial discretization, joint modes, and the disk cache."""

import io
import os

import numpy as np
import pytest
from scipy.linalg import LinAlgError, eigh_tridiagonal

from qcilab import (
    HarmonicIndex,
    assemble_operator,
    assoc_legendre_norm,
    eigenpairs,
    load_modes,
    make_profile,
    profile_hash,
    save_modes,
    solve_modes,
    solve_modes_cached,
)
from qcilab import _atomic, eigensolve
from qcilab.eigensolve import RadialOperator, _interp, _refine


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
        assert np.max(np.abs(mode.radial_values - ref)) <= 1e-5

    @pytest.mark.parametrize("k, count, N", [(20, 60, 4096), (50, 30, 4096), (40, 18, 16384)])
    def test_sphere_modes_carry_the_sign_of_normalized_legendre(self, sphere, k, count, N):
        # no sign alignment: the largest-t entry of at least 1e-3 of the peak
        # is positive, and so is N_l^k there
        for i, mode in enumerate(solve_modes(sphere, k, count, N=N)):
            ref = assoc_legendre_norm(k + i, k, mode.radial_grid)
            assert np.max(np.abs(mode.radial_values - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_count_beyond_an_eighth_of_the_grid_rejected(self, sphere):
        with pytest.raises(ValueError):
            solve_modes(sphere, 0, 129, N=1024)

    def test_unresolved_mode_raises(self, sphere):
        # at k = 2, N = 1024 the coarse eigenvalue of mode 36 misses the fine
        # one by more than half a gap, so the coarse grid no longer resolves it
        solve_modes(sphere, 2, 36, N=1024)
        with pytest.raises(LinAlgError, match="does not resolve") as info:
            solve_modes(sphere, 2, 40, N=1024)
        # the message names the first unresolved mode and the largest count that works
        assert "does not resolve mode 36;" in str(info.value)
        assert "count <= 36 or a larger N works" in str(info.value)

    def test_other_refine_failures_pass_through(self, sphere, monkeypatch):
        # only a window miss means the coarse grid does not resolve a mode
        def fail_on_the_fine_grid(system, x, lo, hi):
            if system.size == 1024:
                raise LinAlgError("did not converge")
            return _refine(system, x, lo, hi)

        monkeypatch.setattr(eigensolve, "_refine", fail_on_the_fine_grid)
        with pytest.raises(LinAlgError) as info:
            solve_modes(sphere, 2, 3, N=1024)
        assert str(info.value) == "did not converge"

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
        val = mode.value(0.0, 0.7)
        expect = ref * np.exp(2j * 0.7)
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

    def test_cached_mode_evaluates_bit_identically(self, sphere, tmp_path):
        saved = solve_modes(sphere, 2, 3, N=1024)
        save_modes(saved, str(tmp_path))
        loaded = load_modes(sphere, 2, 1024, 3, str(tmp_path))
        t = np.linspace(-1.0, 1.0, 257)  # reaches past the end nodes, into extrapolation
        for a, b in zip(saved, loaded):
            assert a.radial(t).tobytes() == b.radial(t).tobytes()
            assert a.value(t, 0.7).tobytes() == b.value(t, 0.7).tobytes()


class TestInterpolant:
    def test_reproduces_a_cubic_beyond_the_outer_nodes(self):
        grid = -1.0 + (np.arange(32) + 0.5) * (2.0 / 32)
        cubic = np.polynomial.Polynomial([0.3, -1.7, 2.1, -0.9])
        t = np.linspace(-1.0, 1.0, 2001)  # includes both segments past the outer nodes
        assert t[0] < grid[0] and t[-1] > grid[-1]
        assert np.max(np.abs(_interp(grid, cubic(grid), t) - cubic(t))) <= 1e-14

    def test_radial_matches_normalized_legendre(self, sphere):
        mode = solve_modes(sphere, 2, 3, N=4096)[2]  # l = 4, k = 2
        t = np.linspace(-1.0, 1.0, 2001)
        ref = assoc_legendre_norm(4, 2, t)
        assert np.max(np.abs(mode.radial(t) - ref)) <= 1e-8


def _refined_pairs(monkeypatch, profile, k, count, N):
    """The fine pairs solve_modes refines, before the Richardson step.

    eigenpairs refines the coarse pairs through the same _refine; only the
    calls on the N-point grid are recorded.
    """
    pairs = []

    def record(system, x, lo, hi):
        pair = _refine(system, x, lo, hi)
        if system.size == N:
            pairs.append(pair)
        return pair

    monkeypatch.setattr(eigensolve, "_refine", record)
    solve_modes(profile, k, count, N=N)
    return pairs


def _norm(system):
    return np.max(np.abs(system.diag)) + 2 * np.max(np.abs(system.offdiag))


def _full_precision_pairs(system, count):
    """LAPACK's full-precision bisection and inverse iteration, normalized."""
    lams, vecs = eigh_tridiagonal(system.diag, system.offdiag, select="i", select_range=(0, count - 1))
    return [(lams[i], eigensolve._normalize(vecs[:, i], system.step)) for i in range(count)]


class TestRefine:
    @pytest.mark.parametrize("k", [0, 1, 2, 30, 100])
    @pytest.mark.parametrize("surface", ["sphere", "perturbed"])
    def test_refined_pairs_match_bisection_on_the_fine_grid(
        self, request, monkeypatch, surface, k
    ):
        profile = request.getfixturevalue(surface)
        fine = assemble_operator(profile, k, 4096)
        # not eigenpairs, which shares _refine with the path under test
        reference = _full_precision_pairs(fine, 12)
        refined = _refined_pairs(monkeypatch, profile, k, 12, 4096)
        assert len(refined) == 12
        # bisection itself is accurate to about eps ||T|| in the eigenvalue,
        # and its vectors to eps ||T|| / gap (1e-9 of the sup norm at k = 0)
        for (lam, vec), (lam_ref, vec_ref) in zip(refined, reference):
            assert abs(lam - lam_ref) <= 2 * np.finfo(float).eps * _norm(fine)
            w = eigensolve._normalize(vec, fine.step)
            assert np.max(np.abs(w - vec_ref)) <= 2e-8 * np.max(np.abs(vec_ref))

    def test_refined_vectors_obey_sturm_oscillation(self, perturbed, monkeypatch):
        # the j-th radial mode changes sign j times
        for j, (_, vec) in enumerate(_refined_pairs(monkeypatch, perturbed, 1, 8, 2048)):
            assert int(np.sum(np.sign(vec[:-1]) * np.sign(vec[1:]) < 0)) == j

    def test_constant_mode_converges_without_a_solve(self, sphere, monkeypatch):
        # T times the constant vector is exactly 0 at k = 0, so the shift 0
        # would make the tridiagonal solve exactly singular
        import scipy.linalg.lapack

        def no_solve(*args, **kwargs):
            raise AssertionError("dgtsv called")

        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", no_solve)
        system = assemble_operator(sphere, 0, 1024)
        lam, vec = _refine(system, np.ones(1024), -1.0, 1.0)
        assert lam == 0.0
        assert np.all(vec == vec[0])

    def test_constant_mode_of_solve_modes(self, perturbed):
        mode = solve_modes(perturbed, 0, 3, N=1024)[0]
        assert abs(mode.eigenvalue) <= 1e-8 and mode.h is None
        # the positive constant of unit surface norm: 2 pi * 2 * w^2 = 1
        assert np.max(np.abs(mode.radial_values * np.sqrt(4 * np.pi) - 1.0)) <= 1e-11

    def test_constant_mode_at_a_fine_grid(self, sphere):
        # the last inverse-iteration solve of each coarse pair takes the
        # constant mode here from 1.7e-10 to 2.7e-13 of 1/sqrt(4 pi)
        mode = solve_modes(sphere, 0, 3, N=16384)[0]
        assert np.max(np.abs(mode.radial_values * np.sqrt(4 * np.pi) - 1.0)) <= 1e-11

    def test_exactly_singular_shift_steps_off(self):
        # the start vector's Rayleigh quotient is exactly the middle eigenvalue
        system = RadialOperator(
            diag=np.array([0.0, 1.0, 2.0]), offdiag=np.zeros(2), grid=np.zeros(3), step=1.0, k=0
        )
        lam, vec = _refine(system, np.array([1.0, 1e-3, 1.0]), 0.5, 1.5)
        assert lam == pytest.approx(1.0, abs=1e-14)
        assert np.abs(vec) == pytest.approx([0.0, 1.0, 0.0], abs=1e-14)

    def test_guard_rejects_a_start_vector_from_another_mode(self, sphere):
        fine = assemble_operator(sphere, 2, 2048)
        coarse = assemble_operator(sphere, 2, 1024)
        pairs = eigenpairs(coarse, 7)
        start = _interp(coarse.grid, pairs[3][1], fine.grid)
        lo, hi = ((pairs[5][0] + pairs[j][0]) / 2 for j in (4, 6))
        with pytest.raises(LinAlgError, match="window"):
            _refine(fine, start, lo, hi)
        lo, hi = ((pairs[3][0] + pairs[j][0]) / 2 for j in (2, 4))
        assert _refine(fine, start, lo, hi)[0] == pytest.approx(5 * 6, rel=1e-5)

    def test_no_convergence_within_the_step_cap_raises(self, sphere, monkeypatch):
        monkeypatch.setattr(eigensolve, "_RQI_STEPS", 1)
        system = assemble_operator(sphere, 2, 1024)
        with pytest.raises(LinAlgError, match="did not converge"):
            _refine(system, np.linspace(1.0, 2.0, 1024), -np.inf, np.inf)


def _two_blocks(shift):
    """Two uncoupled copies of tridiag(-1, 2, -1) of size 8, the second shifted by `shift`."""
    diag = np.concatenate([np.full(8, 2.0), np.full(8, 2.0 + shift)])
    off = np.concatenate([-np.ones(7), [0.0], -np.ones(7)])
    return RadialOperator(diag=diag, offdiag=off, grid=np.zeros(16), step=1.0, k=0)


def _bisection_tolerances(monkeypatch):
    import scipy.linalg

    tols = []
    bisect = scipy.linalg.eigvalsh_tridiagonal

    def record(*args, **kwargs):
        tols.append(kwargs["tol"])
        return bisect(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", record)
    return tols


class TestCoarsePairs:
    @pytest.mark.parametrize("N, count", [(2048, 12), (2048, 60), (4096, 12), (8192, 16)])
    @pytest.mark.parametrize("k", [0, 1, 2, 30, 100])
    @pytest.mark.parametrize("coeffs", [[], [1.0, 0.2, 0.05]])
    def test_pairs_match_full_precision_bisection(self, coeffs, k, N, count):
        profile = make_profile("polynomial-perturbed", coeffs) if coeffs else make_profile("sphere", [])
        system = assemble_operator(profile, k, N)
        eps = np.finfo(float).eps
        for (lam, vec), (lam_ref, vec_ref) in zip(
            eigenpairs(system, count), _full_precision_pairs(system, count), strict=True
        ):
            assert abs(lam - lam_ref) <= 2 * eps * _norm(system)
            assert np.max(np.abs(vec - vec_ref)) <= 2e-8 * np.max(np.abs(vec_ref))

    def test_gap_below_the_certified_tolerance_is_bisected_again(self, monkeypatch):
        # eigenvalues 5e-7 apart, below 16 times the first tolerance 1e-8 ||T||
        system = _two_blocks(5e-7)
        tols = _bisection_tolerances(monkeypatch)
        pairs = eigenpairs(system, 4)
        # the smallest gap does not certify the first tolerance: full precision
        assert tols == [1e-8 * _norm(system), 0.0]
        for (lam, vec), (lam_ref, vec_ref) in zip(pairs, _full_precision_pairs(system, 4), strict=True):
            assert abs(lam - lam_ref) <= 2 * np.finfo(float).eps * _norm(system)
            assert np.max(np.abs(vec - vec_ref)) <= 2e-8 * np.max(np.abs(vec_ref))

    def test_eigenvalues_bisection_cannot_separate_get_orthogonal_vectors(self, monkeypatch):
        # two identical blocks: every eigenvalue is double, so full precision
        # (tol = 0) is reached and each pair shares one window
        system = _two_blocks(0.0)
        tols = _bisection_tolerances(monkeypatch)
        pairs = eigenpairs(system, 3)
        assert tols[-1] == 0.0
        lams_ref = [lam for lam, _ in _full_precision_pairs(system, 3)]
        vecs = np.array([vec for _, vec in pairs])
        for (lam, vec), lam_ref in zip(pairs, lams_ref, strict=True):
            assert abs(lam - lam_ref) <= 2 * np.finfo(float).eps * _norm(system)
            residual = np.linalg.norm(_apply(system, vec) - lam * vec) / np.linalg.norm(vec)
            assert residual <= 16 * np.finfo(float).eps * _norm(system)
        assert np.max(np.abs(2 * np.pi * vecs @ vecs.T - np.eye(3))) <= 1e-12

    def test_eigenvalues_just_apart_get_orthogonal_vectors(self):
        # a gap of about 34 eps ||T||: separate windows, but inverse iteration
        # alone leaves the two vectors only eps ||T|| / gap apart
        system = _two_blocks(3e-14)
        pairs = eigenpairs(system, 3)
        assert np.diff([lam for lam, _ in pairs])[0] > 32 * np.finfo(float).eps * _norm(system)
        for lam, vec in pairs:
            residual = np.linalg.norm(_apply(system, vec) - lam * vec) / np.linalg.norm(vec)
            assert residual <= 16 * np.finfo(float).eps * _norm(system)
        vecs = np.array([vec for _, vec in pairs])
        assert np.max(np.abs(2 * np.pi * vecs @ vecs.T - np.eye(3))) <= 1e-12

    def test_degenerate_coarse_pole_pairs_do_not_stop_the_solve(self, sphere):
        # at k = 20 the N/2 = 2048 sphere grid has pole-localised eigenvalue
        # pairs equal in floating point from index 371 on; the solve still
        # reaches the first mode the coarse grid does not resolve, 153
        with pytest.raises(LinAlgError, match="does not resolve mode 153;"):
            solve_modes(sphere, 20, 512, N=4096)

    def test_solve_modes_runs_without_eigh_tridiagonal_or_stein(self, sphere, monkeypatch):
        import scipy.linalg
        import scipy.linalg.lapack

        def refuse(*args, **kwargs):
            raise AssertionError("full-precision eigenvector routine called")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
        monkeypatch.setattr(scipy.linalg.lapack, "dstein", refuse)
        for i, mode in enumerate(solve_modes(sphere, 20, 10, N=4096)):
            l = 20 + i
            assert mode.eigenvalue == pytest.approx(l * (l + 1), rel=1e-9)


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

    def test_slot_is_one_npz_file_published_by_one_rename(
        self, sphere, tmp_path, monkeypatch
    ):
        renames = []

        def replace(src, dst):
            renames.append(dst)
            os.rename(src, dst)

        monkeypatch.setattr(_atomic.os, "replace", replace)
        modes = solve_modes(sphere, 2, 3, N=1024)
        slot = save_modes(modes, str(tmp_path / "cache"))
        assert renames == [slot]
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [os.path.basename(slot)]
        assert slot.endswith("_k2_N1024.npz")
        with np.load(slot) as data:
            assert sorted(data.files) == [
                "N", "eigenvalues", "grid", "k", "profile", "radial", "version"
            ]
            assert data["version"].item() == eigensolve._SLOT_VERSION
            assert data["profile"].item() == sphere.canonical_text()
            assert (data["k"].item(), data["N"].item()) == (2, 1024)
            assert data["eigenvalues"].shape == (3,)
            assert data["grid"].shape == (1024,)
            assert data["radial"].shape == (3, 1024)

    def test_saving_twice_gives_identical_bytes(self, sphere, tmp_path):
        modes = solve_modes(sphere, 1, 2, N=1024)
        first = save_modes(modes, str(tmp_path / "a"))
        second = save_modes(modes, str(tmp_path / "b"))
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_old_slot_directory_is_a_miss(self, sphere, tmp_path):
        cache = tmp_path / "cache"
        old = cache / f"{profile_hash(sphere)}_k1_N1024"
        old.mkdir(parents=True)
        (old / "meta.json").write_text('{"k": 1, "N": 1024, "count": 2}')
        (old / "radial.csv").write_text("t,mode_0,mode_1\n")
        assert load_modes(sphere, 1, 1024, 2, str(cache)) is None
        _, hit = solve_modes_cached(sphere, 1, 2, N=1024, cache_dir=str(cache))
        assert not hit
        assert sorted(p.name for p in old.iterdir()) == ["meta.json", "radial.csv"]


def _rewrite(**edits):
    """Rewrite the slot with each named member replaced by edit(member), or dropped."""

    def apply(raw):
        with np.load(io.BytesIO(raw)) as slot:
            members = dict(slot)
        for name, edit in edits.items():
            if edit is _DROP:
                del members[name]
            else:
                members[name] = np.asarray(edit(members[name]))
        buf = io.BytesIO()
        np.savez(buf, **members)
        return buf.getvalue()

    return apply


_DROP = object()


def _flip_radial_byte(raw):
    with np.load(io.BytesIO(raw)) as slot:
        data = slot["radial"].tobytes()
    at = raw.index(data) + len(data) // 2
    return raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1 :]


def _central_header(offset, value):
    """Set one byte of the zip's first central directory header."""

    def apply(raw):
        at = raw.index(b"PK\x01\x02") + offset
        return raw[:at] + bytes([value]) + raw[at + 1 :]

    return apply


# Each case damages the slot written for (sphere, k=1, N=1024, count=3).
# The meta-* and csv-* ids name the damage to the two-file slot (meta.json
# and radial.csv) that each case replaces: the metadata members, and the
# grid and radial arrays.
_CORRUPTIONS = {
    "meta-missing-key": _rewrite(eigenvalues=_DROP),
    "meta-not-an-object": _rewrite(profile=lambda text: [1, 2]),
    "meta-few-eigenvalues": _rewrite(eigenvalues=lambda a: a[:2], radial=lambda a: a[:2]),
    "csv-unparsable": _flip_radial_byte,
    "csv-one-row": _rewrite(grid=lambda a: a[:1], radial=lambda a: a[:, :1]),
    "csv-one-column": _rewrite(radial=_DROP),
    "csv-short-rows": _rewrite(grid=lambda a: a[:-1], radial=lambda a: a[:, :-1]),
    "empty-file": lambda raw: b"",
    "not-a-zip": lambda raw: b"t,mode_0\n0.5,garbage\n",
    "truncated": lambda raw: raw[: len(raw) // 2],
    "k-differs": _rewrite(k=lambda k: k + 1),
    "N-differs": _rewrite(N=lambda N: 2 * N),
    "profile-differs": _rewrite(profile=lambda text: str(text).replace("sphere", "polynomial-perturbed")),
    "grid-short": _rewrite(grid=lambda a: a[:-1]),
    "radial-transposed": _rewrite(radial=lambda a: a.T),
    "eigenvalues-as-text": _rewrite(eigenvalues=lambda a: a.astype(str)),
    # zipfile raises RuntimeError and NotImplementedError for these two,
    # and the .npy header parser tokenize.TokenError for the third
    "encryption-flag": _central_header(8, 1),
    "unknown-compression": _central_header(10, 99),
    "npy-header": lambda raw: raw.replace(b"'shape': (1024,)", b"'shape': )1024,)", 1),
    # the six-member layout of slots written before the version member
    "version-missing": _rewrite(version=_DROP),
    "version-differs": _rewrite(version=lambda v: v - 1),
}


class TestCorruptCacheSlot:
    @pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
    def test_corrupt_slot_is_a_miss_and_is_rewritten(self, sphere, tmp_path, case):
        cache = str(tmp_path / "cache")
        modes, _ = solve_modes_cached(sphere, 1, 3, N=1024, cache_dir=cache)
        (slot,) = (tmp_path / "cache").iterdir()
        clean = slot.read_bytes()
        slot.write_bytes(_CORRUPTIONS[case](clean))
        assert slot.read_bytes() != clean
        assert load_modes(sphere, 1, 1024, 3, cache) is None

        again, hit = solve_modes_cached(sphere, 1, 3, N=1024, cache_dir=cache)
        assert not hit
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [slot.name]
        assert slot.read_bytes() == clean
        reloaded = load_modes(sphere, 1, 1024, 3, cache)
        assert reloaded is not None
        for a, b in zip(modes, reloaded):
            assert a.eigenvalue == b.eigenvalue
            assert np.array_equal(a.radial_values, b.radial_values)
