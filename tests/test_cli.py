"""End-to-end runs of the command line interface."""

import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qcilab
from qcilab import cli, latitude_arc, load_report, make_profile, run_zonal_sweep


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SPHERE = {"kind": "sphere"}


def admissible_config(geodesic, energies):
    return {
        "profile": SPHERE,
        "geodesic": geodesic,
        "energies": energies,
        "admissibility": {"grid": [64, 64]},
    }


class TestAdmissibleCommand:
    def test_equator_arc_exits_not_admissible(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "case1.json",
            admissible_config(
                {"kind": "equator-latitude", "phi_range": [0.0, 1.0471975511965976]},
                {"E1": 1.0, "E2": 0.0},
            ),
        )
        code = cli.main(["admissible", "--config", cfg])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert out["verdict"] == "not-admissible"
        assert out["min_derivative"] <= 1e-8

    def test_longitude_arc_exits_admissible(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "case2.json",
            admissible_config(
                {"kind": "longitude", "t_range": [0.3, 0.8]},
                {"E1": 1.0, "E2": 0.5},
            ),
        )
        code = cli.main(["admissible", "--config", cfg])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "admissible"
        assert out["min_derivative"] >= 0.1

    def test_unreachable_band_exits_empty(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "empty.json",
            admissible_config(
                {"kind": "longitude", "t_range": [0.3, 0.8]},
                {"E1": 1.0, "E2": 5.0},
            ),
        )
        assert cli.main(["admissible", "--config", cfg]) == 4

    def test_custom_symbols_accepted(self, tmp_path, capsys):
        payload = admissible_config(
            {"kind": "longitude", "t_range": [0.3, 0.8]},
            {"E1": 1.0, "E2": 0.5},
        )
        payload["p1"] = "xi_t^2 + xi_phi^2 / f(t)^2"
        payload["p2"] = "xi_phi"
        payload["admissibility"] = {"grid": [32, 32]}
        cfg = write_config(tmp_path, "dsl.json", payload)
        code = cli.main(["admissible", "--config", cfg])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "admissible"

    @pytest.mark.parametrize(
        "p1, error",
        [
            (
                "xi_t^2 + xi_phi^2 / (xi_t - xi_t)",
                "division by zero in 'xi_phi^2 / (xi_t - xi_t)'",
            ),
            ("xi_t^2 + sqrt(xi_phi - 10)", "sqrt of negative value in 'sqrt(xi_phi - 10)'"),
        ],
    )
    def test_domain_error_is_a_config_error(self, tmp_path, capsys, p1, error):
        payload = admissible_config(
            {"kind": "longitude", "t_range": [0.3, 0.8]},
            {"E1": 1.0, "E2": 0.5},
        )
        payload["p1"] = p1
        cfg = write_config(tmp_path, "domain.json", payload)
        assert cli.main(["admissible", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {error}"]

    @pytest.mark.parametrize(
        "p1, offset",
        [("xi_t^2 + xi_phi^2 / (1e999 - f(t))", 22), ("xi_t^2 + xi_phi^2 + 1e999", 21)],
        ids=["inside-a-division", "bare"],
    )
    def test_overflowing_literal_is_a_config_error(self, tmp_path, capsys, p1, offset):
        payload = admissible_config(
            {"kind": "longitude", "t_range": [0.3, 0.8]},
            {"E1": 1.0, "E2": 0.5},
        )
        payload["p1"] = p1
        cfg = write_config(tmp_path, "overflow.json", payload)
        assert cli.main(["admissible", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: number 1e999 overflows to infinity (offset {offset})"
        ]

    def test_symbol_without_xi_exits_empty_fiber(self, tmp_path, capsys):
        payload = admissible_config(
            {"kind": "longitude", "t_range": [0.3, 0.8]},
            {"E1": 1.0, "E2": 0.5},
        )
        payload["p1"] = "t^2 + 2"
        cfg = write_config(tmp_path, "flat.json", payload)
        assert cli.main(["admissible", "--config", cfg]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: empty fiber")

    def test_syntax_error_is_a_config_error(self, tmp_path, capsys):
        payload = admissible_config(
            {"kind": "longitude", "t_range": [0.3, 0.8]},
            {"E1": 1.0, "E2": 0.5},
        )
        payload["p1"] = "sin(t"
        cfg = write_config(tmp_path, "bad.json", payload)
        assert cli.main(["admissible", "--config", cfg]) == 2
        assert "offset 6" in capsys.readouterr().err


class TestEigenCommand:
    def test_spectrum_table(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "eigen.json",
            {"profile": SPHERE, "eigen": {"k": 0, "count": 5, "N": 1024}},
        )
        code = cli.main(["eigen", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["l_index", "lambda", "h"]
        lams = [float(row.split()[1]) for row in lines[1:]]
        for lam, expect in zip(lams, (0.0, 2.0, 6.0, 12.0, 20.0)):
            assert lam == pytest.approx(expect, abs=1e-6)
        assert lines[1].split()[2] == "-"  # the constant mode has no scale

    def test_second_run_hits_cache_and_is_identical(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "eigen.json",
            {"profile": SPHERE, "eigen": {"k": 2, "count": 3, "N": 1024}},
        )
        assert cli.main(["eigen", "--config", cfg, "--out", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert cli.main(["eigen", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == first
        assert (tmp_path / "cache").is_dir()

    def test_incompatible_grid_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "eigen.json",
            {"profile": SPHERE, "eigen": {"k": 50, "count": 1, "N": 100}},
        )
        assert cli.main(["eigen", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: b"garbage\n",
            lambda raw: raw[: len(raw) // 2],
            # one radial row where the eigenvalues promise three modes
            lambda raw: _rewrite_npz(raw, radial=lambda r: r[:1]),
        ],
        ids=["garbage-csv", "truncated-meta", "too-few-columns"],
    )
    def test_corrupt_cache_slot_is_solved_again(self, tmp_path, capsys, corrupt):
        # the ids name the damage to the two-file slot that each case replaces
        cfg = write_config(
            tmp_path,
            "eigen.json",
            {"profile": SPHERE, "eigen": {"k": 2, "count": 3, "N": 1024}},
        )
        argv = ["eigen", "--config", cfg, "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        clean_out = capsys.readouterr().out
        (slot,) = (tmp_path / "cache").iterdir()
        clean = slot.read_bytes()
        slot.write_bytes(corrupt(clean))

        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out == clean_out and err == ""
        lams = [float(row.split()[1]) for row in out.strip().splitlines()[1:]]
        for lam, expect in zip(lams, (6.0, 12.0, 20.0)):  # l(l+1) for l = 2, 3, 4
            assert lam == pytest.approx(expect, abs=1e-6)
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [slot.name]
        assert slot.read_bytes() == clean


def _rewrite_npz(raw, **edits):
    """The .npz bytes with each named member replaced by edit(member)."""
    with np.load(io.BytesIO(raw)) as slot:
        members = dict(slot)
    for name, edit in edits.items():
        members[name] = edit(members[name])
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


class TestIntegrateCommand:
    def test_zonal_value_matches_closed_form(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "single.json",
            {
                "profile": SPHERE,
                "geodesic": {
                    "kind": "equator-latitude",
                    "phi_range": [0.0, 1.0471975511965976],
                },
                "integrate": {"l": 100, "k": 0},
            },
        )
        code = cli.main(["integrate", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        from qcilab import legendre_P0

        expect = (np.pi / 3) * np.sqrt(201 / (4 * np.pi)) * legendre_P0(100)
        assert float(fields["re"]) == pytest.approx(expect, rel=1e-9)
        assert float(fields["err_est"]) <= 1e-10

    @pytest.mark.parametrize(
        "profile, l, error",
        [
            (
                {"kind": "polynomial-perturbed", "coefficients": [1.0, 0.2]},
                40,
                "integrate uses the exact sphere mode family; profile must be sphere",
            ),
            (SPHERE, 0, "integrate needs l >= 1"),
        ],
        ids=["perturbed-profile", "constant-mode"],
    )
    def test_unsupported_mode_is_a_config_error(self, tmp_path, capsys, profile, l, error):
        cfg = write_config(
            tmp_path,
            "single.json",
            {
                "profile": profile,
                "geodesic": {"kind": "longitude", "t_range": [0.3, 0.8]},
                "integrate": {"l": l, "k": 0},
            },
        )
        assert cli.main(["integrate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {error}"]


class TestSweepCommand:
    def test_zonal_sweep_writes_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "zonal.json",
            {
                "profile": SPHERE,
                "sweep": {
                    "experiment": "zonal-equator",
                    "k_range": {"start": 100, "stop": 400, "step": 100},
                },
            },
        )
        code = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        summary = capsys.readouterr().out
        assert summary.startswith("slope=")
        report = load_report(str(tmp_path / "zonal-equator.csv"))
        assert len(report.rows) == 4
        assert abs(report.slope) <= 0.05

    def test_zonal_sweep_on_the_configured_arc(self, tmp_path, capsys):
        phi_range = [0.5, 2.5]
        cfg = write_config(
            tmp_path,
            "zonal.json",
            {
                "profile": SPHERE,
                "geodesic": {"kind": "equator-latitude", "phi_range": phi_range},
                "sweep": {"experiment": "zonal-equator", "k_list": [100, 200, 300]},
            },
        )
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        arc = latitude_arc(make_profile("sphere", []), tuple(phi_range))
        expect = run_zonal_sweep([100, 200, 300], arc)
        assert load_report(str(tmp_path / "zonal-equator.csv")) == expect

    def test_tesseral_sweep_named_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "tess.json",
            {
                "profile": SPHERE,
                "sweep": {
                    "experiment": "tesseral-caustic",
                    "k_list": [25, 50, 100],
                    "delta0": 0.3,
                },
                "output": {"basename": "tess"},
            },
        )
        code = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        report = load_report(str(tmp_path / "tess.csv"))
        assert report.experiment == "tesseral-caustic"
        assert report.delta0 == 0.3

    def test_sweeps_are_reproducible_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "zonal.json",
            {
                "profile": SPHERE,
                "sweep": {
                    "experiment": "zonal-equator",
                    "k_list": [100, 200, 300],
                },
            },
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        out1.mkdir(), out2.mkdir()
        assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        a = (out1 / "zonal-equator.csv").read_bytes()
        b = (out2 / "zonal-equator.csv").read_bytes()
        assert a == b
        assert (out1 / "zonal-equator.json").read_bytes() == (
            out2 / "zonal-equator.json"
        ).read_bytes()

    def test_single_point_sweep_exits_fit_degenerate(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "one.json",
            {
                "profile": SPHERE,
                "sweep": {"experiment": "tesseral-caustic", "k_list": [50]},
            },
        )
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 5

    def test_missing_out_directory_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "zonal.json",
            {"sweep": {"experiment": "zonal-equator", "k_list": [100, 200, 300]}},
        )
        missing = tmp_path / "no" / "such" / "dir"
        assert cli.main(["sweep", "--config", cfg, "--out", str(missing)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not missing.exists()

    def test_custom_experiment_has_no_runner(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "custom.json",
            {
                "profile": SPHERE,
                "sweep": {"experiment": "custom", "k_list": [10, 20, 30]},
            },
        )
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestPlotdataCommand:
    def test_columns_follow_the_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "zonal.json",
            {
                "profile": SPHERE,
                "sweep": {"experiment": "zonal-equator", "k_list": [100, 200, 300]},
            },
        )
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code = cli.main(["plotdata", str(tmp_path / "zonal-equator.csv")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert any("experiment=zonal-equator" in ln for ln in header)
        assert len(data) == 3
        report = load_report(str(tmp_path / "zonal-equator.csv"))
        logh, logI = map(float, data[0].split())
        assert logh == pytest.approx(np.log(report.rows[0].h), abs=1e-12)
        assert logI == pytest.approx(np.log(report.rows[0].abs_I), abs=1e-12)

    def test_corrupt_report_exits_config_error(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("k,l,h,abs_I,re_I,im_I\n1,1,x,1,1,0\n")
        (tmp_path / "bad.json").write_text(
            json.dumps(
                {
                    "experiment": "custom",
                    "slope": None,
                    "intercept_logC": None,
                    "r_squared": None,
                    "delta0": None,
                    "quadrature": None,
                }
            )
        )
        assert cli.main(["plotdata", str(tmp_path / "bad.csv")]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row",
        [
            "10,20,-0.05,0.1,0.1,0.0",
            "10,20,0.0,0.1,0.1,0.0",
            "10,20,nan,0.1,0.1,0.0",
            "10,20,inf,0.1,0.1,0.0",
            "10,20,0.05,inf,0.1,0.0",
            "10,20,0.05,nan,0.1,0.0",
            "10,20,0.05,-0.1,0.1,0.0",
            "10,20,0.05,0.1,nan,0.0",
            "10,20,0.05,0.1,0.1,-inf",
        ],
    )
    def test_unplottable_row_exits_config_error(self, tmp_path, capsys, row):
        csv = tmp_path / "r.csv"
        csv.write_text(f"k,l,h,abs_I,re_I,im_I\n10,20,0.05,0.1,0.1,0.0\n{row}\n")
        (tmp_path / "r.json").write_text(json.dumps(_SIDECAR))
        assert cli.main(["plotdata", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {csv}: line 3: ")

    def test_zero_magnitude_row_is_skipped(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        csv.write_text("k,l,h,abs_I,re_I,im_I\n10,20,0.05,0.1,0.1,0.0\n12,24,0.04,0.0,0.0,0.0\n")
        (tmp_path / "r.json").write_text(json.dumps(_SIDECAR))
        assert cli.main(["plotdata", str(csv)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "# skipped 1 rows with |I| = 0" in captured.out
        data = [ln for ln in captured.out.splitlines() if not ln.startswith("#")]
        assert data == [f"{math.log(0.05)!r} {math.log(0.1)!r}"]


_SIDECAR = {
    "experiment": "custom",
    "slope": -0.5,
    "intercept_logC": 0.1,
    "r_squared": 0.99,
    "delta0": 0.3,
    "quadrature": {"nodes_per_panel": 12, "panels_per_wavelength": 4.0, "max_panels": 1000},
}


_DROP = object()


def _sidecar(**edits):
    meta = dict(_SIDECAR)
    for key, value in edits.items():
        if value is _DROP:
            del meta[key]
        else:
            meta[key] = value
    return meta


class TestMalformedSidecar:
    @pytest.mark.parametrize(
        "meta, problem",
        [
            ([1, 2], "expected a JSON object, found list"),
            ("text", "expected a JSON object, found str"),
            (_sidecar(slope="abc"), "slope must be a number or null, found 'abc'"),
            (_sidecar(intercept_logC=[0.1]), "intercept_logC must be a number or null"),
            (_sidecar(r_squared=True), "r_squared must be a number or null, found True"),
            (_sidecar(delta0={"value": 0.3}), "delta0 must be a number or null"),
            (
                _sidecar(quadrature={"panels_per_wavelength": 4.0, "max_panels": 1000}),
                "quadrature must be null or an object",
            ),
            (_sidecar(quadrature=[12, 4.0, 1000]), "quadrature must be null or an object"),
            (
                _sidecar(quadrature=dict(_SIDECAR["quadrature"], max_panels="many")),
                "quadrature must be null or an object",
            ),
            (
                _sidecar(quadrature=dict(_SIDECAR["quadrature"], nodes_per_panel=float("inf"))),
                "quadrature: cannot convert float infinity to integer",
            ),
            (
                _sidecar(quadrature=dict(_SIDECAR["quadrature"], nodes_per_panel=2)),
                "quadrature: nodes_per_panel must be at least 4",
            ),
        ],
        ids=[
            "list",
            "string",
            "string-slope",
            "list-intercept",
            "bool-r-squared",
            "object-delta0",
            "quadrature-missing-key",
            "quadrature-list",
            "quadrature-string-value",
            "quadrature-infinite-count",
            "quadrature-out-of-range",
        ],
    )
    def test_plotdata_exits_config_error(self, tmp_path, capsys, meta, problem):
        (tmp_path / "r.csv").write_text("k,l,h,abs_I,re_I,im_I\n10,20,0.05,0.1,0.1,0.0\n")
        sidecar = tmp_path / "r.json"
        sidecar.write_text(json.dumps(meta))
        assert cli.main(["plotdata", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {sidecar}: ") and problem in line

    @pytest.mark.parametrize(
        "edits", [{}, {"slope": None, "intercept_logC": None, "r_squared": None}, {"delta0": _DROP}]
    )
    def test_well_formed_sidecar_is_accepted(self, tmp_path, capsys, edits):
        (tmp_path / "r.csv").write_text("k,l,h,abs_I,re_I,im_I\n10,20,0.05,0.1,0.1,0.0\n")
        (tmp_path / "r.json").write_text(json.dumps(_sidecar(**edits)))
        assert cli.main(["plotdata", str(tmp_path / "r.csv")]) == 0
        assert capsys.readouterr().err == ""


_LONGITUDE = admissible_config({"kind": "longitude", "t_range": [0.3, 0.8]}, {"E1": 1.0, "E2": 0.5})


class TestLibraryDefaults:
    @pytest.mark.parametrize(
        "command, cfg, section, key, default",
        [
            ("admissible", dict(_LONGITUDE, admissibility={}), "admissibility", "grid", [128, 128]),
            ("eigen", {"profile": SPHERE, "eigen": {"k": 2, "count": 2}}, "eigen", "N", 4096),
            *[
                ("sweep", {"sweep": {"experiment": experiment, "k_list": [20, 40, 80]}}, "sweep", key, default)
                for experiment, key, default in [
                    ("tesseral-caustic", "delta0", 0.3),
                    ("tesseral-caustic", "side", "forbidden"),
                    ("transition-peak", "width_scale", 1.0),
                    ("transition-peak", "samples", 801),
                ]
            ],
        ],
        ids=["grid", "N", "delta0", "side", "width_scale", "samples"],
    )
    def test_omitted_key_gives_the_same_bytes(
        self, tmp_path, capsys, command, cfg, section, key, default
    ):
        given = dict(cfg, **{section: dict(cfg[section], **{key: default})})
        runs = []
        for name, payload in (("given", given), ("omitted", cfg)):
            out = tmp_path / name
            out.mkdir()
            path = write_config(tmp_path, f"{name}.json", payload)
            code = cli.main([command, "--config", path, "--out", str(out)])
            files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            runs.append((code, capsys.readouterr(), files))
        assert runs[0] == runs[1]
        assert runs[0][0] in (0, 3) and runs[0][1].err == ""

    def test_integer_delta0_is_written_as_a_float(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "tess.json",
            {
                "sweep": {
                    "experiment": "tesseral-caustic",
                    "k_list": [20, 40, 80],
                    "delta0": 1,
                    "side": "allowed",
                },
            },
        )
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert '"delta0": 1.0,' in (tmp_path / "tesseral-caustic.json").read_text()


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "unknown.json", {"profile": SPHERE, "bogus": 1}
        )
        assert cli.main(["admissible", "--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_flag(self, capsys):
        assert cli.main(["admissible"]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["admissible", "--config", str(tmp_path / "no.json")]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert cli.main(["admissible", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "command, cfg, section",
        [
            ("admissible", {"geodesic": {"kind": "longitude", "t_range": [0.3, 0.8]}}, "profile"),
            ("admissible", {"profile": SPHERE}, "geodesic"),
            (
                "admissible",
                {"profile": SPHERE, "geodesic": {"kind": "longitude", "t_range": [0.3, 0.8]}},
                "energies",
            ),
            ("eigen", {"profile": SPHERE}, "eigen"),
            ("integrate", {"profile": SPHERE}, "integrate"),
            ("sweep", {"profile": SPHERE}, "sweep"),
        ],
    )
    def test_missing_section_is_a_config_error(self, tmp_path, capsys, command, cfg, section):
        path = write_config(tmp_path, "partial.json", cfg)
        assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: config is missing the '{section}' section"]

    def test_schema_type_violation_names_the_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "bad.json",
            {"profile": {"kind": "sphere"}, "energies": {"E1": "one", "E2": 0.0}},
        )
        assert cli.main(["admissible", "--config", cfg]) == 2
        assert "energies" in capsys.readouterr().err

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, number):
        # json accepts NaN and Infinity, and 1e400 overflows to inf
        path = tmp_path / "nan.json"
        path.write_text(
            '{"profile": {"kind": "sphere"}, '
            '"geodesic": {"kind": "longitude", "t_range": [0.3, 0.8]}, '
            f'"energies": {{"E1": {number}, "E2": 0.5}}}}'
        )
        assert cli.main(["admissible", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "non-finite" in err[0]

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--seed", "1"]])
    def test_removed_flags_are_unknown(self, tmp_path, capsys, flag):
        cfg = write_config(
            tmp_path,
            "zonal.json",
            {"sweep": {"experiment": "zonal-equator", "k_list": [100, 200, 300]}},
        )
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", cfg, "--out", str(tmp_path), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# The child interpreter runs main() on each argv in process and reports
# which scipy modules it loaded; only a fresh interpreter shows that.
_CHILD = """
import contextlib, io, json, sys
from qcilab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"code": code, "scipy": scipy}))
"""


def _child_env():
    src = os.path.dirname(os.path.dirname(qcilab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_child(script, *argv):
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        check=True,
    )
    return json.loads(done.stdout)


def _child_argv(tmp_path, command):
    if command == "admissible":
        cfg = admissible_config(
            {"kind": "longitude", "t_range": [0.3, 0.8]}, {"E1": 1.0, "E2": 0.5}
        )
        return ["admissible", "--config", write_config(tmp_path, "a.json", cfg)]
    if command == "schema-error":
        cfg = write_config(tmp_path, "bad.json", {"profile": SPHERE, "bogus": 1})
        return ["admissible", "--config", cfg]
    if command == "plotdata":
        cfg = write_config(
            tmp_path,
            "zonal.json",
            {"sweep": {"experiment": "zonal-equator", "k_list": [100, 200, 300]}},
        )
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        return ["plotdata", str(tmp_path / "zonal-equator.csv")]
    if command == "integrate":
        cfg = write_config(
            tmp_path,
            "single.json",
            {
                "profile": SPHERE,
                "geodesic": {"kind": "longitude", "t_range": [0.3, 0.8]},
                "integrate": {"l": 40, "k": 20},
            },
        )
        return ["integrate", "--config", cfg]
    if command == "sweep":
        cfg = write_config(
            tmp_path,
            "tesseral.json",
            {"sweep": {"experiment": "tesseral-caustic", "k_list": [20, 40, 80]}},
        )
        return ["sweep", "--config", cfg, "--out", str(tmp_path)]
    if command == "eigen-warm":
        cfg = write_config(
            tmp_path,
            "eigen.json",
            {"profile": SPHERE, "eigen": {"k": 1, "count": 2, "N": 1024}},
        )
        argv = ["eigen", "--config", cfg, "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        return argv
    raise AssertionError(command)


class TestScipyLoading:
    def test_importing_the_cli_loads_no_scipy(self):
        script = (
            "import json, sys, qcilab.cli\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
        )
        assert _run_child(script) == []

    @pytest.mark.parametrize(
        "command, code",
        [
            ("admissible", 0),
            ("schema-error", 2),
            ("plotdata", 0),
            ("eigen-warm", 0),
            ("integrate", 0),
            ("sweep", 0),
        ],
    )
    def test_command_loads_no_scipy(self, tmp_path, capsys, command, code):
        result = _run_child(_CHILD, json.dumps(_child_argv(tmp_path, command)))
        assert result == {"code": code, "scipy": []}

    def test_uncached_eigen_solve_loads_scipy(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "eigen.json",
            {"profile": SPHERE, "eigen": {"k": 1, "count": 2, "N": 1024}},
        )
        argv = ["eigen", "--config", cfg, "--out", str(tmp_path)]
        result = _run_child(_CHILD, json.dumps(argv))
        assert result["code"] == 0
        assert "scipy.linalg" in result["scipy"]


_CHILD_JSONSCHEMA = """
import contextlib, io, json, sys
from qcilab.cli import main
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "jsonschema": "jsonschema" in sys.modules, "err": err.getvalue()}))
"""


class TestJsonschemaLoading:
    def test_importing_the_cli_loads_no_jsonschema(self):
        script = "import json, sys, qcilab.cli\nprint(json.dumps('jsonschema' in sys.modules))"
        assert _run_child(script) is False

    def test_plotdata_loads_no_jsonschema(self, tmp_path):
        argv = _child_argv(tmp_path, "plotdata")
        result = _run_child(_CHILD_JSONSCHEMA, json.dumps(argv))
        assert result == {"code": 0, "jsonschema": False, "err": ""}

    def test_schema_violation_still_exits_config_error(self, tmp_path):
        argv = _child_argv(tmp_path, "schema-error")
        result = _run_child(_CHILD_JSONSCHEMA, json.dumps(argv))
        assert result["code"] == 2 and result["jsonschema"]
        assert result["err"].splitlines() == [
            "error: config schema violation at config root: "
            "Additional properties are not allowed ('bogus' was unexpected)"
        ]
