"""The in-package config validator against the shipped draft-07 schema.

`qcilab._schema.violation` must accept and reject exactly what
jsonschema does and report the same `<where>: <message>`, so that
`qcilab` prints the same `error:` line without importing jsonschema.
jsonschema is only a test dependency; the tests that compare against it
skip when it is not installed.
"""

import copy
import json
import random
from importlib import resources

import pytest

from qcilab._schema import ANNOTATIONS, KEYWORDS, violation

SCHEMA = json.loads(resources.files("qcilab").joinpath("config.schema.json").read_text())


def _subschemas(schema):
    """Every schema the validator can visit: the root, then through properties and items."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_the_schema_uses_only_implemented_keywords():
    for sub in _subschemas(SCHEMA):
        assert set(sub) <= KEYWORDS | ANNOTATIONS, sub
        # the forms implemented: one schema for every item, no extra keys
        assert isinstance(sub.get("items", {}), dict), sub
        assert sub.get("additionalProperties", False) is False, sub


def test_the_schema_is_valid_draft_07():
    jsonschema = pytest.importorskip("jsonschema")
    assert jsonschema.validators.validator_for(SCHEMA) is jsonschema.Draft7Validator
    jsonschema.Draft7Validator.check_schema(SCHEMA)


@pytest.mark.parametrize(
    "document, expected",
    [
        ({"eigen": {"k": 2.0, "count": 1}}, None),
        ({"eigen": {"k": 2.5, "count": 1}}, "eigen/k: 2.5 is not of type 'integer'"),
        ({"eigen": {"k": True, "count": 1}}, "eigen/k: True is not of type 'integer'"),
        ({"energies": {"E1": False, "E2": 1}}, "energies/E1: False is not of type 'number'"),
        (
            {"profile": {"kind": True}},
            "profile/kind: True is not one of ['sphere', 'polynomial-perturbed']",
        ),
        ({"p1": ""}, "p1: '' should be non-empty"),
        ({"sweep": {"experiment": "custom", "k_list": []}}, "sweep/k_list: [] should be non-empty"),
        ({"geodesic": {"kind": "longitude", "t_range": [0.1]}}, "geodesic/t_range: [0.1] is too short"),
        (
            {"zeta": 1, "alpha": 2, "profile": {"kind": "sphere"}},
            "config root: Additional properties are not allowed ('alpha', 'zeta' were unexpected)",
        ),
        ({"energies": {"E2": 1}}, "energies: 'E1' is a required property"),
        (
            {"energies": {"E1": 1, "E2": 1, "epsilon": 0}},
            "energies/epsilon: 0 is less than or equal to the minimum of 0",
        ),
        # of two siblings, the later one is reported
        (
            {"admissibility": {"grid": [31, 31]}},
            "admissibility/grid/1: 31 is less than the minimum of 32",
        ),
        # of two errors at one path, the first in schema order
        (
            {"admissibility": {"grid": [64, 31.5]}},
            "admissibility/grid/1: 31.5 is not of type 'integer'",
        ),
        # a shallower error beats a deeper one
        (
            {"admissibility": {"grid": [31.5]}},
            "admissibility/grid: [31.5] is too short",
        ),
        ([], "config root: [] is not of type 'object'"),
    ],
)
def test_messages(document, expected):
    assert violation(document, SCHEMA) == expected


@pytest.mark.parametrize(
    "value, expected",
    [
        (True, "config root: True is not one of [1, 0.0]"),
        (False, "config root: False is not one of [1, 0.0]"),
        (1, None),
        (1.0, None),
        (0, None),
        ("1", "config root: '1' is not one of [1, 0.0]"),
    ],
)
def test_enum_keeps_booleans_apart_from_numbers(value, expected):
    # the shipped schema's enums hold only strings, so this one is made up
    assert violation(value, {"enum": [1, 0.0]}) == expected


# -- against jsonschema -------------------------------------------------------

_VALID = [
    {
        "profile": {"kind": "polynomial-perturbed", "coefficients": [1.0, 0.2, -0.1]},
        "p1": "xi_t^2 + xi_phi^2 / f(t)^2",
        "p2": "xi_phi",
        "geodesic": {"kind": "longitude", "t_range": [0.3, 0.8], "phi0": 0.5},
        "energies": {"E1": 1.0, "E2": 0.5, "epsilon": 0.05},
        "admissibility": {"grid": [64, 64], "threshold": 1e-6},
        "output": {"basename": "run"},
    },
    {
        "profile": {"kind": "sphere"},
        "geodesic": {"kind": "equator-latitude", "phi_range": [0.0, 1.0]},
        "eigen": {"k": 2, "count": 3, "N": 1024},
        "integrate": {"l": 40, "k": 20},
        "quadrature": {"nodes_per_panel": 12, "panels_per_wavelength": 4.0, "max_panels": 1000},
    },
    {
        "sweep": {
            "experiment": "tesseral-caustic",
            "k_list": [20, 40, 80],
            "k_range": {"start": 10, "stop": 40, "step": 10},
            "delta0": 0.3,
            "side": "forbidden",
            "width_scale": 1.0,
            "samples": 9,
        },
        "quadrature": {"nodes_per_panel": 8},
    },
]

_VALUES = [
    None, True, False, 0, 1, -1, 2, 3, 4, 2.0, 0.5, -0.5, 31, 32, 32.0, 33.5, 1e300, 10**20,
    "", "x", "sphere", "longitude", "forbidden", "custom",
    [], [1], [1, 2], [0.5, 1.5, 2.5], ["a"], [True, 2], [31, 64.0],
    {}, {"kind": "sphere"}, {"bogus": 1}, {"start": 1, "stop": 2},
]  # fmt: skip

_NAMES = ["bogus", "Zeta", "alpha", "kind", "E1", "k", "start", "profile", ""]


def _nodes(document, path=()):
    """(path, value) of the document and of everything in it."""
    yield path, document
    if isinstance(document, dict):
        for key, value in document.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(document, list):
        for i, value in enumerate(document):
            yield from _nodes(value, path + (i,))


def _set(document, path, value):
    if not path:
        return value
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


def _mutated(rng: random.Random):
    document = copy.deepcopy(rng.choice(_VALID))
    for _ in range(rng.randint(0, 4)):
        nodes = list(_nodes(document))
        path, node = rng.choice(nodes)
        move = rng.choice(["replace", "replace", "drop", "add", "grow", "shrink"])
        if move == "replace":
            document = _set(document, path, copy.deepcopy(rng.choice(_VALUES)))
        elif move == "drop" and isinstance(node, dict) and node:
            del node[rng.choice(sorted(node))]
        elif move == "add" and isinstance(node, dict):
            node[rng.choice(_NAMES)] = copy.deepcopy(rng.choice(_VALUES))
        elif move == "grow" and isinstance(node, list):
            node.append(copy.deepcopy(rng.choice(_VALUES)))
        elif move == "shrink" and isinstance(node, list) and node:
            node.pop(rng.randrange(len(node)))
    return document


def _jsonschema_violation(jsonschema, document):
    """What `jsonschema.validate` reports, as `qcilab` used to print it."""
    validator = jsonschema.Draft7Validator(SCHEMA)
    error = jsonschema.exceptions.best_match(validator.iter_errors(document))
    if error is None:
        return None
    return f"{'/'.join(str(p) for p in error.absolute_path) or 'config root'}: {error.message}"


@pytest.mark.parametrize("seed", range(5))
def test_matches_jsonschema_on_mutated_configs(seed):
    jsonschema = pytest.importorskip("jsonschema")
    rng = random.Random(seed)
    rejected = 0
    for _ in range(500):
        document = _mutated(rng)
        expected = _jsonschema_violation(jsonschema, document)
        assert violation(document, SCHEMA) == expected, document
        rejected += expected is not None
    # both outcomes are exercised
    assert 100 < rejected < 480
