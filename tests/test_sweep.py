"""Decay-law fits, experiment sweeps, and report round trips."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcilab import (
    FitError,
    QuadratureSpec,
    ReportFormatError,
    SweepReport,
    SweepRow,
    fit_decay,
    latitude_arc,
    legendre_P0,
    load_report,
    longitude_arc,
    run_tesseral_sweep,
    run_transition_peak_sweep,
    run_zonal_sweep,
    save_report,
)


class TestFitDecay:
    def test_exact_power_law(self):
        hs = np.geomspace(1e-3, 1e-1, 9)
        fit = fit_decay([(h, 2.0 * h**0.5) for h in hs])
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept_logC == pytest.approx(np.log(2.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_flat_data_has_zero_slope(self):
        hs = np.geomspace(1e-3, 1e-1, 9)
        fit = fit_decay([(h, 0.7) for h in hs])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0  # zero residual on zero variance

    def test_noisy_half_power(self):
        rng = np.random.default_rng(11)
        hs = np.geomspace(1e-4, 1e-1, 40)
        mags = hs**0.5 * np.exp(rng.normal(0.0, 0.02, hs.size))
        fit = fit_decay(list(zip(hs, mags)))
        assert 0.45 <= fit.slope <= 0.55
        assert fit.r_squared >= 0.95

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_decay([(0.1, 1.0), (0.01, 0.3)])

    def test_degenerate_scales(self):
        with pytest.raises(FitError):
            fit_decay([(0.1, 1.0), (0.1, 0.9), (0.1, 1.1)])

    def test_zero_magnitudes_filtered_with_warning(self):
        hs = np.geomspace(1e-3, 1e-1, 6)
        pts = [(h, h**0.5) for h in hs] + [(0.05, 0.0), (0.02, 0.0)]
        with pytest.warns(UserWarning, match="2"):
            fit = fit_decay(pts)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)

    def test_all_zeros_is_an_error(self):
        with pytest.warns(UserWarning):
            with pytest.raises(FitError):
                fit_decay([(0.1, 0.0), (0.01, 0.0), (0.001, 0.0)])

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_amplitude_scaling_moves_only_the_intercept(self, c, slope):
        hs = np.geomspace(1e-3, 1e-1, 7)
        base = fit_decay([(h, h**slope) for h in hs])
        scaled = fit_decay([(h, c * h**slope) for h in hs])
        assert scaled.slope == pytest.approx(base.slope, abs=1e-9)
        assert scaled.intercept_logC == pytest.approx(
            base.intercept_logC + np.log(c), abs=1e-9
        )


class TestZonalSweep:
    def test_rows_match_closed_form(self, sphere, equator_arc):
        ks = [100, 200, 300, 400]
        report = run_zonal_sweep(ks, equator_arc)
        assert report.experiment == "zonal-equator"
        assert [r.k for r in report.rows] == ks
        for row in report.rows:
            expect = (
                (np.pi / 3)
                * np.sqrt((2 * row.k + 1) / (4 * np.pi))
                * legendre_P0(row.k)
            )
            assert row.abs_I == pytest.approx(abs(expect), rel=1e-10)
            assert row.l == row.k
            assert row.h == pytest.approx(
                1 / np.sqrt(row.k * (row.k + 1)), rel=1e-14
            )

    def test_limit_approached_monotonically(self, sphere, equator_arc):
        ks = list(range(100, 1001, 100))
        report = run_zonal_sweep(ks, equator_arc)
        dev = [abs(r.abs_I - 1.0 / 3.0) for r in _rows_by_k(report)]
        assert all(a > b for a, b in zip(dev, dev[1:]))
        assert abs(report.slope) <= 0.05

    def test_odd_order_rejected(self, sphere, equator_arc):
        with pytest.raises(ValueError):
            run_zonal_sweep([100, 101], equator_arc)

    def test_longitude_arc_rejected(self, sphere):
        arc = longitude_arc(sphere, (0.3, 0.8), 0.0)
        with pytest.raises(ValueError):
            run_zonal_sweep([100, 200, 300], arc)

    def test_perturbed_equator_arc_rejected(self, perturbed):
        # the closed form holds for the sphere's N_k^0 only
        arc = latitude_arc(perturbed, (0.2, 1.4))
        with pytest.raises(ValueError, match="sphere"):
            run_zonal_sweep([100, 200, 300], arc)


def _rows_by_k(report):
    return sorted(report.rows, key=lambda r: r.k)


class TestTesseralSweep:
    def test_forbidden_side_structure(self, sphere):
        ks = [25, 50, 100]
        report = run_tesseral_sweep(ks, delta0=0.3)
        assert report.experiment == "tesseral-caustic"
        assert report.delta0 == 0.3
        assert report.quadrature == QuadratureSpec()
        assert [r.l for r in _rows_by_k(report)] == [50, 100, 200]
        # rows are ordered by decreasing h (increasing k)
        hs = [r.h for r in report.rows]
        assert hs == sorted(hs, reverse=True)
        for row in report.rows:
            assert row.abs_I > 0.0

    def test_magnitudes_shrink_with_h(self, sphere):
        report = run_tesseral_sweep([25, 50, 100], delta0=0.3)
        mags = [r.abs_I for r in _rows_by_k(report)]
        assert mags[0] > mags[1] > mags[2]

    def test_allowed_side_runs(self, sphere):
        report = run_tesseral_sweep([25, 50, 100], delta0=0.3, side="allowed")
        assert all(r.abs_I > 0 for r in report.rows)

    def test_single_point_cannot_be_fit(self, sphere):
        with pytest.raises(FitError):
            run_tesseral_sweep([50], delta0=0.3)

    def test_oversized_offset_rejected(self, sphere):
        # theta0 - delta0 must stay on the forbidden side of the pole
        with pytest.raises(ValueError):
            run_tesseral_sweep([25, 50, 100], delta0=0.6)


class TestTransitionPeakSweep:
    def test_peak_grows_like_shrinking_window(self, sphere):
        report = run_transition_peak_sweep([50, 100, 200])
        assert report.experiment == "transition-peak"
        mags = [r.abs_I for r in _rows_by_k(report)]
        assert mags[0] < mags[1] < mags[2]
        assert report.slope < 0.0

    def test_signed_peak_recorded(self, sphere):
        report = run_transition_peak_sweep([50, 100, 200])
        for row in report.rows:
            assert abs(row.re_I) == pytest.approx(row.abs_I, abs=1e-15)
            assert row.im_I == 0.0


class TestReportIO:
    def test_round_trip(self, sphere, equator_arc, tmp_path):
        report = run_zonal_sweep([100, 200, 300, 400], equator_arc)
        path = str(tmp_path / "zonal.csv")
        save_report(report, path)
        assert load_report(path) == report

    def test_round_trip_with_quadrature(self, sphere, tmp_path):
        report = run_tesseral_sweep([25, 50, 100], delta0=0.3)
        path = str(tmp_path / "tess.csv")
        save_report(report, path)
        assert load_report(path) == report

    def test_header_is_stable(self, sphere, equator_arc, tmp_path):
        report = run_zonal_sweep([100, 200, 300], equator_arc)
        path = str(tmp_path / "z.csv")
        save_report(report, path)
        first = open(path).readline().strip()
        assert first == "k,l,h,abs_I,re_I,im_I"

    def test_written_twice_is_byte_identical(self, sphere, equator_arc, tmp_path):
        report = run_zonal_sweep([100, 200, 300], equator_arc)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_report(report, p1)
        save_report(report, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_corrupt_row_named_by_line(self, sphere, equator_arc, tmp_path):
        report = run_zonal_sweep([100, 200, 300], equator_arc)
        path = str(tmp_path / "z.csv")
        save_report(report, path)
        lines = open(path).read().splitlines()
        lines[2] = "100,100,garbage,0.3,0.3,0.0"
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ReportFormatError, match="line 3"):
            load_report(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        open(path, "w").write("k,l,h,absI\n1,1,0.5,0.1\n")
        open(str(tmp_path / "bad.json"), "w").write("{}")
        with pytest.raises(ReportFormatError, match="line 1"):
            load_report(path)

    def test_missing_sidecar_rejected(self, sphere, equator_arc, tmp_path):
        report = run_zonal_sweep([100, 200, 300], equator_arc)
        path = str(tmp_path / "z.csv")
        save_report(report, path)
        (tmp_path / "z.json").unlink()
        with pytest.raises(ReportFormatError):
            load_report(path)

    def test_empty_report_round_trips(self, tmp_path):
        report = SweepReport(
            experiment="custom",
            rows=(),
            slope=None,
            intercept_logC=None,
            r_squared=None,
        )
        path = str(tmp_path / "empty.csv")
        save_report(report, path)
        assert load_report(path) == report

    def test_writes_do_not_share_a_fixed_temp_name(self, equator_arc, tmp_path):
        # a leftover at the old fixed temp name must not block the write
        report = run_zonal_sweep([100, 200, 300], equator_arc)
        path = tmp_path / "z.csv"
        (tmp_path / "z.csv.tmp").mkdir()
        save_report(report, str(path))
        assert load_report(str(path)) == report
        assert sorted(p.name for p in tmp_path.iterdir()) == ["z.csv", "z.csv.tmp", "z.json"]

    def test_failed_write_leaves_no_temp_file(self, equator_arc, tmp_path, monkeypatch):
        report = run_zonal_sweep([100, 200, 300], equator_arc)
        path = tmp_path / "z.csv"
        path.write_text("old\n")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            save_report(report, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["z.csv"]
        assert path.read_text() == "old\n"

    def test_written_files_follow_the_umask(self, equator_arc, tmp_path):
        report = run_zonal_sweep([100, 200, 300], equator_arc)
        path = tmp_path / "z.csv"
        save_report(report, str(path))
        umask = os.umask(0o022)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_row_fields_are_plain_python(self, sphere, equator_arc):
        report = run_zonal_sweep([100, 200, 300], equator_arc)
        row = report.rows[0]
        assert type(row.k) is int and type(row.l) is int
        for field in ("h", "abs_I", "re_I", "im_I"):
            assert type(getattr(row, field)) is float
