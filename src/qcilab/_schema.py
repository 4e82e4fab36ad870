"""Validation of a config document against the shipped draft-07 schema.

Only the keywords that `config.schema.json` uses are implemented, each
worded as the Python JSON Schema library (version 4) words it, which
the test suite uses as its oracle. The walk descends only through
`properties` and `items`, so its depth is the schema's, not the
document's, and each path in the document meets exactly one subschema.

The error reported is the one that library's `best_match` picks: the first
error whose (-len(path), path, value does not match its schema's type)
is largest. The last term never decides here, because errors at one path
all come from one subschema and so share it.
"""

from __future__ import annotations

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # a JSON true is not the number 1, although Python's True is an int
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


# Each check takes (keyword value, document value, schema) and returns the
# message of a violation, or None.


def _type(arg, v, schema):
    return None if _TYPES[arg](v) else f"{v!r} is not of type {arg!r}"


def _enum(arg, v, schema):
    if any(isinstance(each, bool) == isinstance(v, bool) and each == v for each in arg):
        return None
    return f"{v!r} is not one of {arg!r}"


def _required(arg, v, schema):
    # each missing name ties in best_match, so the first is the one reported
    missing = [name for name in arg if name not in v] if isinstance(v, dict) else []
    return f"{missing[0]!r} is a required property" if missing else None


def _no_additional(arg, v, schema):
    extras = sorted(set(v) - set(schema.get("properties", {}))) if isinstance(v, dict) else []
    if arg is not False or not extras:
        return None
    names, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
    return f"Additional properties are not allowed ({names} {verb} unexpected)"


def _min_size(kind: str):
    def check(arg, v, schema):
        if not (_TYPES[kind](v) and len(v) < arg):
            return None
        return f"{v!r} {'should be non-empty' if arg == 1 else 'is too short'}"

    return check


def _max_items(arg, v, schema):
    if not (isinstance(v, list) and len(v) > arg):
        return None
    return f"{v!r} {'is expected to be empty' if arg == 0 else 'is too long'}"


def _minimum(arg, v, schema):
    if _TYPES["number"](v) and v < arg:
        return f"{v!r} is less than the minimum of {arg!r}"
    return None


def _exclusive_minimum(arg, v, schema):
    if _TYPES["number"](v) and v <= arg:
        return f"{v!r} is less than or equal to the minimum of {arg!r}"
    return None


_CHECKS = {
    "type": _type,
    "enum": _enum,
    "required": _required,
    "additionalProperties": _no_additional,
    "minItems": _min_size("array"),
    "maxItems": _max_items,
    "minLength": _min_size("string"),
    "minimum": _minimum,
    "exclusiveMinimum": _exclusive_minimum,
}

# Each descent takes (keyword value, document value) and returns the
# (key, child value, child schema) triples to check.


def _properties(arg, v):
    if not isinstance(v, dict):
        return []
    return [(name, v[name], sub) for name, sub in arg.items() if name in v]


def _items(arg, v):
    return [(i, item, arg) for i, item in enumerate(v)] if isinstance(v, list) else []


_DESCENTS = {"properties": _properties, "items": _items}

KEYWORDS = frozenset(_CHECKS) | frozenset(_DESCENTS)
# keywords that annotate the schema and constrain nothing
ANNOTATIONS = frozenset({"$schema", "title"})


def _errors(value, schema: dict, path: tuple):
    """(path, message) of every violation, in the library's order."""
    for keyword, arg in schema.items():
        if keyword in _CHECKS:
            message = _CHECKS[keyword](arg, value, schema)
            if message is not None:
                yield path, message
        elif keyword in _DESCENTS:
            for key, child, sub in _DESCENTS[keyword](arg, value):
                yield from _errors(child, sub, path + (key,))


def violation(document, schema: dict) -> str | None:
    """`<path, or "config root">: <message>` of the reported error, or None."""
    errors = _errors(document, schema, ())
    best = max(errors, key=lambda e: (-len(e[0]), e[0]), default=None)
    if best is None:
        return None
    path, message = best
    return f"{'/'.join(map(str, path)) or 'config root'}: {message}"
