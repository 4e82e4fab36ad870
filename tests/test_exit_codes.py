"""Fuzzed exit-code contract of `qcilab`.

Generated configs, eigen-cache slots and report sidecars drive
`cli.main()`. Whatever the input, the exit code is one of 0, 2, 3, 4 and
5, and an exit of 2 or 5 prints exactly one `error:` line. Sizes are
bounded (grids <= 64, N <= 1024, l <= 200, samples <= 1000) so that no
example allocates much memory, and the examples are derandomized so that
every run draws the same ones.
"""

import contextlib
import functools
import io
import json
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcilab import cli
from qcilab.symbol_dsl import BUILTINS, VARIABLES

_FUZZ = settings(derandomize=True, deadline=None, max_examples=60, database=None)

# stands for a JSON number that overflows to infinity; json.dumps cannot
# write one, so _write swaps the text in
_OVERFLOW = "__overflow__"

_WRONG = st.sampled_from(
    [None, True, "1", [], {}, [1, 2], float("nan"), float("inf"), -float("inf"), _OVERFLOW]
)


def _or_wrong(good):
    """Mostly a good value, sometimes one of the wrong type or not finite."""
    return st.one_of(good, good, good, _WRONG)


def _floats(lo, hi):
    return _or_wrong(st.floats(lo, hi, allow_nan=False))


def _ints(lo, hi):
    return _or_wrong(st.integers(lo, hi))


def _write(path: Path, payload) -> str:
    text = json.dumps(payload).replace(f'"{_OVERFLOW}"', "1e400")
    path.write_text(text)
    return str(path)


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5), (code, err.getvalue())
    if code in (2, 5):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    return code, out.getvalue()


def _run_config(command: str, cfg) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "cfg.json", cfg)
        return _run([command, "--config", path, "--out", tmp])


# -- configs ------------------------------------------------------------------

_LITERALS = st.sampled_from(
    ["0", "1", "2", "0.5", "007", "2.5e+1", "1e-400", "1e308", "1e999", "1e400", "99999999999999999999"]
)


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        st.tuples(st.sampled_from(BUILTINS), inner).map(lambda c: f"{c[0]}({c[1]})"),
        inner.map(lambda e: f"({e})^2"),
        inner.map(lambda e: f"-{e}"),
    )


_DSL = st.one_of(
    st.recursive(st.one_of(st.sampled_from(VARIABLES), _LITERALS), _extend, max_leaves=6),
    st.text(alphabet="xi_tph f()+-*/^.e0123456789", max_size=16),
)

_PROFILE = st.one_of(
    st.just({"kind": "sphere"}),
    st.just({"kind": "sphere"}),
    st.fixed_dictionaries(
        {
            "kind": st.just("polynomial-perturbed"),
            "coefficients": st.lists(_floats(-1.0, 1.0), max_size=3),
        }
    ),
    _WRONG,
)

_PAIR = st.lists(_floats(-1.5, 1.5), min_size=0, max_size=3)

_GEODESIC = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("longitude"), "t_range": _PAIR}, optional={"phi0": _floats(-7.0, 7.0)}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("equator-latitude"), "phi_range": st.lists(_floats(-7.0, 7.0), max_size=3)}
    ),
    st.fixed_dictionaries({"kind": st.just("longitude")}),
    _WRONG,
)

_QUADRATURE = st.fixed_dictionaries(
    {},
    optional={
        "nodes_per_panel": _ints(0, 16),
        "panels_per_wavelength": _floats(0.0, 8.0),
        "max_panels": _ints(0, 10**5),
    },
)

_ADMISSIBLE = st.fixed_dictionaries(
    {
        "profile": _PROFILE,
        "geodesic": _GEODESIC,
        "energies": st.fixed_dictionaries(
            {"E1": _floats(-1.0, 4.0), "E2": _floats(-2.0, 2.0)},
            optional={"epsilon": _floats(0.0, 1.0)},
        ),
    },
    optional={
        "p1": _DSL,
        "p2": _DSL,
        "admissibility": st.fixed_dictionaries(
            {
                "grid": st.one_of(
                    st.lists(_ints(-1, 64), max_size=3),
                    st.lists(st.sampled_from([31, 32, 33, 64]), min_size=2, max_size=2),
                )
            },
            optional={"threshold": _floats(0.0, 1.0)},
        ),
    },
)

_EIGEN = st.fixed_dictionaries(
    {
        "profile": _PROFILE,
        "eigen": st.fixed_dictionaries(
            {"k": _ints(-1, 60), "count": _ints(-1, 40)},
            optional={"N": st.one_of(_ints(0, 1024), st.sampled_from([255, 256, 511, 512, 513, 1024]))},
        ),
    }
)

_INTEGRATE = st.fixed_dictionaries(
    {
        "profile": _PROFILE,
        "geodesic": _GEODESIC,
        "integrate": st.fixed_dictionaries({"l": _ints(-1, 200), "k": _ints(-1, 200)}),
    },
    optional={"quadrature": _QUADRATURE},
)

_KS = _ints(-2, 60)

_SWEEP = st.fixed_dictionaries(
    {
        "sweep": st.fixed_dictionaries(
            {
                "experiment": st.sampled_from(
                    ["zonal-equator", "tesseral-caustic", "transition-peak", "custom", "bogus"]
                )
            },
            optional={
                "k_list": st.lists(_KS, max_size=5),
                "k_range": st.fixed_dictionaries(
                    {"start": _KS, "stop": _KS}, optional={"step": _ints(-3, 20)}
                ),
                "delta0": _floats(-0.5, 2.0),
                "side": _or_wrong(st.sampled_from(["forbidden", "allowed", "middle"])),
                "width_scale": _floats(-0.5, 3.0),
                "samples": _ints(-1, 1000),
            },
        ),
    },
    optional={
        "profile": _PROFILE,
        "geodesic": _GEODESIC,
        "quadrature": _QUADRATURE,
        "output": st.fixed_dictionaries({"basename": _or_wrong(st.sampled_from(["r", "", "a/b"]))}),
    },
)


@_FUZZ
@given(_ADMISSIBLE)
def test_admissible_exit_codes(cfg):
    _run_config("admissible", cfg)


_CRITERION_1 = {
    "profile": {"kind": "sphere"},
    "geodesic": {"kind": "longitude", "t_range": [0.3, 0.8]},
    "energies": {"E1": 1.0, "E2": 0.5},
    "admissibility": {"grid": [32, 32]},
}


@_FUZZ
@given(st.fixed_dictionaries({}, optional={"p1": _DSL, "p2": _DSL}))
def test_symbol_text_exit_codes(symbols):
    _run_config("admissible", dict(_CRITERION_1, **symbols))


@pytest.mark.parametrize(
    "p1",
    [
        # d/dxi_phi is xi_phi / sqrt(xi_phi^2), 0/0 on the sigma = 0 ray
        "xi_t^2 + sqrt(xi_phi^2)",
        # d/dxi_t is sign(xi_t), which jumps across the vertical rays
        "abs(xi_t) + xi_phi^2",
    ],
)
def test_symbol_with_a_singular_derivative_exits_cleanly(p1):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "cfg.json", dict(_CRITERION_1, p1=p1))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["admissible", "--config", path])
    assert code in (0, 2, 3, 4, 5)
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1


@_FUZZ
@given(_EIGEN)
def test_eigen_exit_codes(cfg):
    _run_config("eigen", cfg)


@_FUZZ
@given(_INTEGRATE)
def test_integrate_exit_codes(cfg):
    _run_config("integrate", cfg)


@_FUZZ
@given(_SWEEP)
def test_sweep_exit_codes(cfg):
    _run_config("sweep", cfg)


# -- a corrupted eigen-cache slot is solved again -----------------------------

_EIGEN_CFG = {"profile": {"kind": "sphere"}, "eigen": {"k": 2, "count": 3, "N": 1024}}


@functools.cache
def _clean_slot():
    """The slot file's name and bytes and the stdout of the solve that wrote it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "cfg.json", _EIGEN_CFG)
        code, out = _run(["eigen", "--config", path, "--out", tmp])
        assert code == 0
        (slot,) = (Path(tmp) / "cache").iterdir()
        return slot.name, slot.read_bytes(), out


def _split(raw):
    """A slot's parsed header and its payload bytes."""
    end = raw.index(b"\n") + 1
    return json.loads(raw[:end]), raw[end:-4]


def _join(meta, payload):
    """A slot with this header and payload, written as save_modes writes one, CRC included."""
    line = json.dumps(meta, sort_keys=True).encode()
    body = line + b" " * (-(len(line) + 1) % 8) + b"\n" + payload
    return body + zlib.crc32(body).to_bytes(4, "little")


@st.composite
def _damaged_slots(draw):
    _, raw, _ = _clean_slot()
    kind = draw(st.sampled_from(["truncate", "flip", "field", "drop", "payload", "bytes"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        at = draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1 :]
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    # the edits below re-stamp the CRC, so only the edit itself can make a miss
    meta, payload = _split(raw)
    if kind == "payload":
        # a payload length that disagrees with count (N + 1) float64 values
        cut = 8 * draw(st.integers(1, 4096))
        return _join(meta, draw(st.sampled_from([payload[:-cut], payload + payload[:cut]])))
    name = draw(st.sampled_from(sorted(meta)))
    if kind == "drop":
        del meta[name]
    else:
        meta[name] = draw(
            st.one_of(
                st.integers(-3, 2048),
                st.floats(allow_nan=False),
                st.text(max_size=8),
                st.lists(st.integers(0, 4), max_size=2),
                st.none(),
            )
        )
    return _join(meta, payload)


@_FUZZ
@given(_damaged_slots())
def test_damaged_cache_slot_is_solved_again(damaged):
    name, clean, clean_out = _clean_slot()
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "cache"
        cache.mkdir()
        (cache / name).write_bytes(damaged)
        path = _write(Path(tmp) / "cfg.json", _EIGEN_CFG)
        assert _run(["eigen", "--config", path, "--out", tmp]) == (0, clean_out)
        assert [p.name for p in cache.iterdir()] == [name]
        # rewritten, or a field set to the value it had, which leaves the slot intact
        assert (cache / name).read_bytes() == clean


# -- malformed report sidecars --------------------------------------------------

_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**20), 10**20),
        st.floats(allow_nan=True),
        st.text(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)

_QUADRATURE_JSON = {"nodes_per_panel": 12, "panels_per_wavelength": 4.0, "max_panels": 1000}

_SIDECARS = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {"experiment": st.sampled_from(["custom", "zonal-equator", "bogus"])},
        optional={
            "slope": st.one_of(_JSON, st.floats()),
            "intercept_logC": st.one_of(_JSON, st.floats()),
            "r_squared": st.one_of(_JSON, st.floats()),
            "delta0": st.one_of(_JSON, st.floats()),
            "quadrature": st.one_of(
                _JSON,
                st.fixed_dictionaries(
                    {},
                    optional={
                        key: st.one_of(st.just(value), _JSON) for key, value in _QUADRATURE_JSON.items()
                    },
                ),
            ),
        },
    ),
)


@_FUZZ
@given(_SIDECARS)
def test_plotdata_exit_codes(meta):
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "r.csv"
        csv.write_text("k,l,h,abs_I,re_I,im_I\n10,20,0.05,0.1,0.1,0.0\n20,40,0.025,0.05,0.05,0.0\n")
        _write(Path(tmp) / "r.json", meta)
        _run(["plotdata", str(csv)])


# -- documents nested too deeply for the JSON parser -----------------------------


def _stderr(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def test_deeply_nested_config_exits_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[" * 5000)
    message = f"error: config {path} is nested too deeply to read\n"
    assert _stderr(["admissible", "--config", str(path)]) == (2, message)


def test_deeply_nested_sidecar_exits_config_error(tmp_path):
    csv = tmp_path / "r.csv"
    csv.write_text("k,l,h,abs_I,re_I,im_I\n10,20,0.05,0.1,0.1,0.0\n")
    (tmp_path / "r.json").write_text("[" * 5000)
    message = f"error: {tmp_path / 'r.json'}: nested too deeply to read\n"
    assert _stderr(["plotdata", str(csv)]) == (2, message)
