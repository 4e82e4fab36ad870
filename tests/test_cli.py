"""End-to-end runs of the command line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qcilab
from qcilab import cli, load_report


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
        "name, corrupt",
        [
            ("radial.csv", lambda text: "garbage\n"),
            ("meta.json", lambda text: text[: len(text) // 2]),
            # two columns (t, mode_0) where meta.json promises three modes
            ("radial.csv", lambda text: "".join(
                ",".join(row.split(",")[:2]) + "\n" for row in text.splitlines()
            )),
        ],
        ids=["garbage-csv", "truncated-meta", "too-few-columns"],
    )
    def test_corrupt_cache_slot_is_solved_again(self, tmp_path, capsys, name, corrupt):
        cfg = write_config(
            tmp_path,
            "eigen.json",
            {"profile": SPHERE, "eigen": {"k": 2, "count": 3, "N": 1024}},
        )
        argv = ["eigen", "--config", cfg, "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        clean_out = capsys.readouterr().out
        (slot,) = (tmp_path / "cache").iterdir()
        clean = {p.name: p.read_bytes() for p in slot.iterdir()}
        target = slot / name
        target.write_text(corrupt(target.read_text()))

        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out == clean_out and err == ""
        lams = [float(row.split()[1]) for row in out.strip().splitlines()[1:]]
        for lam, expect in zip(lams, (6.0, 12.0, 20.0)):  # l(l+1) for l = 2, 3, 4
            assert lam == pytest.approx(expect, abs=1e-6)
        assert {p.name: p.read_bytes() for p in slot.iterdir()} == clean


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
        [("admissible", 0), ("schema-error", 2), ("plotdata", 0), ("eigen-warm", 0)],
    )
    def test_command_loads_no_scipy(self, tmp_path, capsys, command, code):
        result = _run_child(_CHILD, json.dumps(_child_argv(tmp_path, command)))
        assert result == {"code": code, "scipy": []}

    def test_integrate_loads_scipy_special_not_interpolate(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "single.json",
            {
                "profile": SPHERE,
                "geodesic": {"kind": "equator-latitude", "phi_range": [0.0, 1.0]},
                "integrate": {"l": 20, "k": 0},
            },
        )
        result = _run_child(_CHILD, json.dumps(["integrate", "--config", cfg]))
        assert result["code"] == 0
        assert "scipy.special" in result["scipy"]
        assert "scipy.interpolate" not in result["scipy"]


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
