"""The package surface: each module's __all__, re-exported once."""

import os
import re
import subprocess
import sys

import qcilab
import qcilab.cli  # noqa: F401  (the tracer patches its load_config too)
from qcilab import admissibility, eigensolve, geometry, lineintegral, specfun, sweep, symbol_dsl

MODULES = (admissibility, eigensolve, geometry, lineintegral, specfun, sweep, symbol_dsl)

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def test_package_all_is_the_module_lists():
    expect = [name for module in MODULES for name in module.__all__]
    assert qcilab.__all__ == expect
    assert len(set(expect)) == len(expect)


def test_every_public_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qcilab, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_every_name_the_tracer_patches_exists():
    # perfbench/spans.py replaces these attributes by name and subclasses
    # MomentMap and Geodesic; a missing one would break `--trace 1`
    with open(SPANS) as fh:
        patched = re.findall(r'_patch\("(qcilab(?:\.\w+)*)", "(\w+)"', fh.read())
    assert patched
    for module, attr in patched:
        assert callable(getattr(sys.modules[module], attr)), f"{module}.{attr}"
    assert callable(symbol_dsl.MomentMap.p1) and callable(symbol_dsl.MomentMap.p2)
    assert callable(geometry.Geodesic.point)


def test_importing_one_layer_loads_every_layer():
    # the tracer imports qcilab.admissibility and then patches every layer
    script = "import sys, qcilab.admissibility; print(' '.join(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(qcilab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    loaded = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert {module.__name__ for module in MODULES} <= set(loaded)
