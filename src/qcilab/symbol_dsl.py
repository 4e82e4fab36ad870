"""Tiny expression language for user-supplied momentum-space symbols.

Users may override the two commuting classical Hamiltonians with
expressions in the variables t, phi, xi_t, xi_phi. The grammar is a
conventional precedence-climbing arithmetic:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' uint)?
    atom   := number | ident | builtin '(' expr ')' | '(' expr ')' | '-' atom

Builtin single-argument functions: sin, cos, sqrt, abs, f, fp. Here f is
the surface profile and fp its derivative, so symbols can reference the
metric without hardcoding a profile.

Error positions are reported as 1-based byte offsets into the source
string. The one evaluator is a straight-line program (_Program): one or
more ASTs compiled together, once, into a list of numpy calls, one step
for each distinct sub-expression. Run on float arrays, it writes each
step that depends on xi into block buffers that steps take again once
the value they hold is last read, and keeps steps of t and phi alone at
the shape of a row. compile_expr is its one-expression case and takes
scalars or numpy arrays alike.

Partial derivatives are taken exactly on the AST (_diff), so the
derivatives of a symbol are symbols too, compiled and checked the same
way. They may call two functions the parser does not accept: sign (the
derivative of abs) and fpp (the profile's second derivative, that of fp).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Union

import numpy as np

from .geometry import ProfileFunction

__all__ = [
    "SymbolSyntaxError",
    "SymbolNameError",
    "SymbolDomainError",
    "parse_expr",
    "format_expr",
    "compile_expr",
    "MomentMap",
    "builtin_moment_map",
    "moment_map_from_config",
    "BUILTIN_P1_TEXT",
    "BUILTIN_P2_TEXT",
    "BUILTINS",
    "VARIABLES",
]

VARIABLES = ("t", "phi", "xi_t", "xi_phi")
BUILTINS = ("sin", "cos", "sqrt", "abs", "f", "fp")

# canonical text of the builtin symbols (what the overrides default to)
BUILTIN_P1_TEXT = "xi_t^2 + xi_phi^2 / f(t)^2"
BUILTIN_P2_TEXT = "xi_phi"


class SymbolSyntaxError(ValueError):
    """Parse failure; .offset is the 1-based byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class SymbolNameError(ValueError):
    """Unknown identifier in an expression."""


class SymbolDomainError(ValueError):
    """Evaluation hit a domain error (division by zero, sqrt of negative)."""


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Num, Var, Call, Neg, BinOp, Pow]

_NUMBER = re.compile(r"\d+(\.\d+)?([eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    """Recursive descent over a single expression string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # 0-based cursor

    def _err(self, message: str, pos: int | None = None):
        p = self.pos if pos is None else pos
        raise SymbolSyntaxError(message, p + 1)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Expr:
        node = self.expr()
        self._skip_ws()
        if self.pos < len(self.text):
            self._err(f"unexpected {self.text[self.pos]!r}")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self._peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.atom()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            start = self.pos
            m = _NUMBER.match(self.text, self.pos)
            if m is None:
                self._err("expected integer exponent after '^'")
            if m.group(1) is not None or m.group(2) is not None:
                self._err("exponent must be a non-negative integer", start)
            self.pos = m.end()
            node = Pow(node, int(m.group(0)))
        return node

    def atom(self) -> Expr:
        ch = self._peek()
        if ch == "":
            self._err("unexpected end of input")
        if ch == "-":
            self.pos += 1
            return Neg(self.atom())
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self._peek() != ")":
                self._err("expected ')'")
            self.pos += 1
            return node
        if ch.isdigit():
            m = _NUMBER.match(self.text, self.pos)
            value = float(m.group(0))
            if not math.isfinite(value):
                self._err(f"number {m.group(0)} overflows to infinity")
            self.pos = m.end()
            return Num(value)
        m = _IDENT.match(self.text, self.pos)
        if m is None:
            self._err(f"unexpected {ch!r}")
        name = m.group(0)
        start = self.pos
        self.pos = m.end()
        if self._peek() == "(":
            if name not in BUILTINS:
                raise SymbolNameError(f"unknown function {name!r}")
            self.pos += 1
            arg = self.expr()
            if self._peek() != ")":
                self._err("expected ')'")
            self.pos += 1
            return Call(name, arg)
        if name not in VARIABLES:
            raise SymbolNameError(f"unknown identifier {name!r}")
        return Var(name)


def parse_expr(text: str) -> Expr:
    """Parse an expression string into an AST."""
    return _Parser(text).parse()


# -- printing ----------------------------------------------------------------

# precedence levels used for minimal parenthesization
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 1
    if isinstance(node, Pow):
        return 3
    return 9


def format_expr(node: Expr) -> str:
    """Render an AST back to source text; parse(format(x)) == x."""
    if isinstance(node, Num):
        v = node.value
        return repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({format_expr(node.arg)})"
    if isinstance(node, Neg):
        inner = format_expr(node.operand)
        # the printed '-' sits at atom level, so anything the factor/term
        # parser could capture after it (a BinOp tail or a '^') must be
        # fenced off; only atom-shaped operands stay bare
        bare = isinstance(node.operand, (Var, Call)) or (
            isinstance(node.operand, Num) and node.operand.value >= 0
        )
        if not bare:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = format_expr(node.base)
        if _prec(node.base) <= 3 and not isinstance(node.base, (Num, Var, Call)):
            base = f"({base})"
        elif isinstance(node.base, Num) and node.base.value < 0:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        lhs = format_expr(node.left)
        rhs = format_expr(node.right)
        if _prec(node.left) < _PREC[node.op]:
            lhs = f"({lhs})"
        # right operand needs parens at equal precedence: a - (b + c)
        if _prec(node.right) <= _PREC[node.op] and _prec(node.right) < 3:
            rhs = f"({rhs})"
        return f"{lhs} {node.op} {rhs}"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation ---------------------------------------------------------------


def compile_expr(node: Expr, profile: ProfileFunction):
    """Compile an AST once into a numpy function fn(t, phi, xi_t, xi_phi).

    The tree becomes one straight-line program of numpy calls (_Program),
    one step per distinct sub-expression, so evaluating the result walks
    no tree. Arguments may be scalars or arrays that broadcast together;
    omitted ones are 0.0. Each call returns fresh arrays. Calling fn
    raises SymbolDomainError on division by zero, sqrt of a negative, or
    f/fp without a profile, naming the offending sub-expression. Any
    other floating-point overflow, invalid value or division by zero, such
    as f or fp off the chart, raises it too, naming the whole expression.
    The calls sign and fpp, which only derivatives hold, compile as well.
    """
    program = _Program((node,), profile)

    def evaluate(t=0.0, phi=0.0, xi_t=0.0, xi_phi=0.0):
        return program(t, phi, xi_t, xi_phi)[0]

    return evaluate


_BINARY = {
    "+": (operator.add, np.add),
    "-": (operator.sub, np.subtract),
    "*": (operator.mul, np.multiply),
    "/": (operator.truediv, np.divide),
}
_UFUNC = {"sin": np.sin, "cos": np.cos, "abs": np.abs, "sign": np.sign, "sqrt": np.sqrt}


def _power(x, n, out):
    """x ** n into out, by the ufunc that ** takes for a float array x."""
    return np.square(x, out=out) if n == 2 else np.power(x, n, out=out)


class _Program:
    """Expressions compiled together into one straight-line program.

    The outputs' trees are walked post-order, left to right and one after
    another, with a memo on their (frozen) nodes, so each distinct
    sub-expression is one step, and so is its domain check. A run takes
    the steps in order: the first error it meets is the one that
    evaluating each tree in turn would meet first. An output of None is
    never evaluated and reads 0.0.

    Values are held in slots: the four inputs (VARIABLES), then the
    constants, then one slot a step; a run lets a value go after the last
    step that reads it. A step whose operands reach xi_t or xi_phi is
    block-shaped in a run where those two are float arrays of one shape
    that t and phi broadcast to. Such a run writes each block-shaped step
    but a profile curve with out= into one of nbuf block buffers, assigned
    by last use: a step may write over a value it reads for the last time.
    Every other step, and every step of any other run, makes its value as
    the operator would, so a step of t and phi alone keeps a row's shape.
    """

    def __init__(self, outputs: tuple, profile: ProfileFunction):
        self.outputs = outputs
        self.values = [None] * len(VARIABLES)  # a run's slots before its first step
        self.block = [name in ("xi_t", "xi_phi") for name in VARIABLES]
        self.steps = []  # (slot, node, operator form, out= form or None, operand slots, guard)
        self.owner = []  # the output whose walk made each step
        memo = {Var(name): k for k, name in enumerate(VARIABLES)}
        self.results = tuple(
            None if node is None else self._emit(node, k, profile, memo) for k, node in enumerate(outputs)
        )
        last = {a: i for i, step in enumerate(self.steps) for a in step[4]}
        last.update((slot, len(self.steps)) for slot in self.results)  # outputs are read after the last step
        # each step gains its buffer (or None) and the slots it reads last
        held, free = {}, []
        for i, (slot, node, fn, ufunc, args, guard) in enumerate(self.steps):
            gone = tuple(a for a in set(args) if last[a] == i)
            free += [held.pop(a) for a in gone if a in held]
            dest = None
            if self.block[slot] and ufunc is not None:
                dest = held[slot] = free.pop() if free else len(held) + len(free)
            self.steps[i] = (slot, node, fn, ufunc, args, guard, dest, gone)
        self.nbuf = len(held) + len(free)

    def _slot(self, value, block: bool) -> int:
        self.values.append(value)
        self.block.append(block)
        return len(self.values) - 1

    def _emit(self, node: Expr, owner: int, profile, memo: dict) -> int:
        """The slot of node's value, emitting the steps it needs."""
        slot = memo.get(node)
        if slot is not None:
            return slot
        if isinstance(node, Num):
            # a numpy scalar, so that arithmetic on constants obeys errstate
            slot = memo[node] = self._slot(np.float64(node.value), False)
            return slot

        def emit(child):
            return self._emit(child, owner, profile, memo)

        guard = None
        if isinstance(node, Neg):
            fn, ufunc, args = operator.neg, np.negative, (emit(node.operand),)
        elif isinstance(node, Pow):
            fn, ufunc, args = operator.pow, _power, (emit(node.base), self._slot(node.exponent, False))
        elif isinstance(node, BinOp):
            (fn, ufunc), args = _BINARY[node.op], (emit(node.left), emit(node.right))
            if node.op == "/":
                guard = ("/", args[1], node)
        elif isinstance(node, Call):
            args = (emit(node.arg),)
            if node.func in _UFUNC:
                fn = ufunc = _UFUNC[node.func]
                if node.func == "sqrt":
                    guard = ("sqrt", args[0], node)
            elif profile is None:
                fn, ufunc, guard = None, None, ("profile", args[0], node)
            else:
                fn = {"f": profile.value, "fp": profile.derivative, "fpp": profile.second_derivative}[node.func]
                ufunc = None
        else:
            raise TypeError(f"not an expression node: {node!r}")
        slot = memo[node] = self._slot(None, any(self.block[a] for a in args))
        self.steps.append((slot, node, fn, ufunc, args, guard))
        self.owner.append(owner)
        return slot

    def __call__(self, t=0.0, phi=0.0, xi_t=0.0, xi_phi=0.0, buffers=None) -> tuple:
        """The outputs' values at (t, phi, xi_t, xi_phi).

        buffers, nbuf arrays of the block shape, take the block-shaped
        steps of an in-place run, and then the outputs among them live
        there; by default each run makes its own.
        """
        # scalars become numpy scalars, which obey errstate as arrays do
        values = [v if isinstance(v, np.ndarray) else np.float64(v) for v in (t, phi, xi_t, xi_phi)]
        shape = _block_shape(*values)
        if shape is None:
            buffers = None
        elif buffers is None:
            buffers = [np.empty(shape) for _ in range(self.nbuf)]
        values += self.values[len(VARIABLES):]
        step = 0
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for step, (slot, _, fn, ufunc, args, guard, dest, gone) in enumerate(self.steps):
                    operands = [values[a] for a in args]
                    if guard is not None:
                        _check(guard, values)
                    for a in gone:
                        values[a] = None
                    if dest is None or buffers is None:
                        values[slot] = fn(*operands)
                    else:
                        values[slot] = ufunc(*operands, out=buffers[dest])
        except FloatingPointError as exc:
            raise SymbolDomainError(f"{exc} in '{format_expr(self.outputs[self.owner[step]])}'") from None
        return tuple(0.0 if slot is None else values[slot] for slot in self.results)


def _block_shape(t, phi, xi_t, xi_phi):
    """The shape of a run's block-shaped steps, or None where the run is not in place."""
    shape = xi_t.shape
    if not (
        type(xi_t) is type(xi_phi) is np.ndarray
        and xi_t.ndim
        and xi_phi.shape == shape
        and xi_t.dtype == xi_phi.dtype == np.float64
    ):
        return None
    return shape if np.broadcast_shapes(t.shape, phi.shape, shape) == shape else None


def _check(guard, values):
    """Raise SymbolDomainError where a step's operand is outside its domain."""
    kind, slot, node = guard
    if kind == "/" and np.any(np.asarray(values[slot]) == 0.0):
        raise SymbolDomainError(f"division by zero in '{format_expr(node)}'")
    if kind == "sqrt" and np.any(np.asarray(values[slot]) < 0.0):
        raise SymbolDomainError(f"sqrt of negative value in '{format_expr(node)}'")
    if kind == "profile":
        raise SymbolDomainError(f"'{node.func}' needs a surface profile in '{format_expr(node)}'")


# -- differentiation ----------------------------------------------------------

_ZERO, _ONE = Num(0.0), Num(1.0)
_MAX_SPAN = 4  # the widest grade map _grades builds: ray polynomials of degree <= 4


def _is(node: Expr, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _add(a: Expr, b: Expr) -> Expr:
    return b if _is(a, 0.0) else a if _is(b, 0.0) else BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    return a if _is(b, 0.0) else _neg(b) if _is(a, 0.0) else BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    return b if _is(a, 1.0) else a if _is(b, 1.0) else BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    return a if _is(a, 0.0) or _is(b, 1.0) else BinOp("/", a, b)


def _neg(a: Expr) -> Expr:
    return a if _is(a, 0.0) else a.operand if isinstance(a, Neg) else Neg(a)


# the derivative of each call but sqrt and sign, at its argument u
_OUTER = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "abs": lambda u: Call("sign", u),
    "f": lambda u: Call("fp", u),
    "fp": lambda u: Call("fpp", u),
}


def _diff(node: Expr, var: str) -> Expr:
    """The partial derivative of node in the variable var, as an AST.

    Sums, products and quotients with 0 or 1 are folded as the tree is
    built, so a node free of var gives exactly Num(0). A quotient u / v
    differentiates to (u' - (u / v) v') / v, which divides by nothing
    u / v does not divide by; sqrt(u) gives u' / (2 sqrt(u)), a division
    by zero where u = 0. abs(u) gives sign(u) u', and sign is taken as
    flat. fpp is never differentiated: the parser does not accept it, so
    it only appears in first derivatives.
    """
    if isinstance(node, Num):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Neg):
        return _neg(_diff(node.operand, var))
    if isinstance(node, Pow):
        n = node.exponent
        if n == 0:
            return _ZERO
        power = _ONE if n == 1 else node.base if n == 2 else Pow(node.base, n - 1)
        return _mul(_mul(Num(float(n)), power), _diff(node.base, var))
    if isinstance(node, BinOp):
        du, dv = _diff(node.left, var), _diff(node.right, var)
        if node.op == "+":
            return _add(du, dv)
        if node.op == "-":
            return _sub(du, dv)
        if node.op == "*":
            return _add(_mul(du, node.right), _mul(node.left, dv))
        return _div(_sub(du, _mul(node, dv)), node.right)
    if isinstance(node, Call):
        du = _diff(node.arg, var)
        if _is(du, 0.0) or node.func == "sign":
            return _ZERO
        if node.func == "sqrt":
            return _div(du, _mul(Num(2.0), node))
        if node.func not in _OUTER:
            raise TypeError(f"no derivative of {node.func!r}")
        return _mul(_OUTER[node.func](node.arg), du)
    raise TypeError(f"not an expression node: {node!r}")


def _grades(node: Expr) -> Optional[dict]:
    """node read along rays, {d: a_d} with node(t, phi, r xi) = sum_d r^d a_d(t, phi, xi), or None.

    A node of one degree d, node(t, phi, r xi) = r^d node(t, phi, xi) for
    all r > 0, is its own coefficient, {d: node}. xi_t and xi_phi have
    degree 1; constants, t and phi 0. Of nodes whose operands have one
    degree each, '*' adds the degrees, '/' subtracts them and '^n'
    multiplies by n, while '^0' has degree 0 whatever its base; '+' and '-'
    of equal degrees keep it; abs keeps the degree, sqrt halves an even
    one; sin, cos, f and fp need degree 0. Otherwise '+' and '-' merge the
    maps of their operands, '*' convolves them and '^n' convolves n copies;
    '/' by a node of degree e shifts every grade by -e. Any other node has
    no grades, nor has one whose grades span more than _MAX_SPAN. No
    operation narrows a map, so none wider is built: a node of more than
    one grade spans at least 1, so '^n' convolves at most _MAX_SPAN copies.
    """
    if isinstance(node, Num):
        return {0: node}
    if isinstance(node, Var):
        return {int(node.name in ("xi_t", "xi_phi")): node}
    if isinstance(node, Pow) and node.exponent == 0:
        return {0: node}
    if isinstance(node, Call):
        g = _grades(node.arg)
        if g is None or len(g) > 1:
            return None
        (d,) = g
        if node.func == "abs":
            return {d: node}
        if node.func == "sqrt":
            return None if d % 2 else {d // 2: node}
        return {0: node} if d == 0 and node.func in ("sin", "cos", "f", "fp") else None
    if isinstance(node, Neg):
        g = _grades(node.operand)
        if g is None:
            return None
        return {d: node for d in g} if len(g) == 1 else {k: _neg(a) for k, a in g.items()}
    if isinstance(node, Pow):
        g = _grades(node.base)
        if g is None or (max(g) - min(g)) * node.exponent > _MAX_SPAN:
            return None
        return {d * node.exponent: node for d in g} if len(g) == 1 else reduce(_convolve, [g] * node.exponent)
    a, b = _grades(node.left), _grades(node.right)
    if a is None or b is None:
        return None
    if len(a) == len(b) == 1 and (node.op in "*/" or a.keys() == b.keys()):
        (d,), (e,) = a, b
        return {{"+": d, "-": d, "*": d + e, "/": d - e}[node.op]: node}
    if node.op == "/":
        if len(b) > 1:
            return None
        (e,) = b
        return {k - e: BinOp("/", c, node.right) for k, c in a.items()}
    if node.op == "*":
        out = _convolve(a, b)
    else:
        merge = _add if node.op == "+" else _sub
        out = dict(a)
        for k, c in b.items():
            out[k] = merge(out.get(k, _ZERO), c)
    return out if max(out) - min(out) <= _MAX_SPAN else None


def _convolve(a: dict, b: dict) -> dict:
    """The grades of the product of two graded nodes."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = _add(out.get(i + j, _ZERO), _mul(x, y))
    return out


# -- moment maps ---------------------------------------------------------------


@dataclass(frozen=True)
class MomentMap:
    """Pair of commuting classical symbols p1, p2 on T*M.

    Each slot is a DSL expression, compiled once into a program (_Program)
    on its first evaluation. The slots default to BUILTIN_P1_TEXT, the
    metric Hamiltonian p1 = xi_t^2 + xi_phi^2 / f(t)^2, and BUILTIN_P2_TEXT,
    the angular momentum p2 = xi_phi, so the builtin symbols and their text
    are one map.

    The exact partials of one or both slots in a tuple of variables are
    differentiated on the AST and compiled together, once, on first use,
    into one program (_program), so a sub-expression they share, such as
    f(t)^2, is computed once. p1_grades reads p1 along rays (_grades): its
    degrees and one program for the coefficient of each power of r. A p1
    homogeneous in (xi_t, xi_phi) has one grade, and that program is p1's.
    """

    surface: ProfileFunction
    p1_expr: Expr = parse_expr(BUILTIN_P1_TEXT)
    p2_expr: Expr = parse_expr(BUILTIN_P2_TEXT)

    @cached_property
    def _p1(self) -> _Program:
        return _Program((self.p1_expr,), self.surface)

    @cached_property
    def _p2(self) -> _Program:
        return _Program((self.p2_expr,), self.surface)

    @cached_property
    def _programs(self) -> dict:
        """{(slots, over): _Program}, each compiled on its first use (_program)."""
        return {}

    def _program(self, slots: tuple, over: tuple) -> "_Program":
        """One program for the partials of each slot in slots, in the variables over.

        Its outputs are the partials of slots[0] in over's order, then those
        of slots[1], and so on; one that is identically zero is None, so it
        reads 0.0 and is never evaluated.
        """
        program = self._programs.get((slots, over))
        if program is None:
            exprs = {"p1": self.p1_expr, "p2": self.p2_expr}
            partials = (_diff(exprs[slot], var) for slot in slots for var in over)
            outputs = tuple(None if _is(d, 0.0) else d for d in partials)
            program = self._programs[slots, over] = _Program(outputs, self.surface)
        return program

    @cached_property
    def p1_grades(self) -> tuple:
        """(degrees, program): p1(t, phi, r xi) = sum_k r^degrees[k] a_k(t, phi, xi).

        degrees ascend, and program's outputs are the a_k in their order; a
        homogeneous p1, of one grade, is its own coefficient and program
        (_p1). Only two readings are supported: one grade d > 0, or grades
        within 0 ... _MAX_SPAN. Any other p1, or one with no grades, raises
        ValueError.
        """
        grades = _grades(self.p1_expr) or {}
        degrees = tuple(sorted(grades))
        if not (len(degrees) == 1 and degrees[0] > 0 or degrees and 0 <= degrees[0] and degrees[-1] <= _MAX_SPAN):
            raise ValueError(
                "p1 must be homogeneous of a positive degree in (xi_t, xi_phi) or a polynomial of "
                f"degree at most {_MAX_SPAN} along each fiber ray; '{format_expr(self.p1_expr)}' is neither"
            )
        if len(degrees) == 1:
            return degrees, self._p1
        return degrees, _Program(tuple(grades[d] for d in degrees), self.surface)

    def p1(self, t, phi, xi_t, xi_phi):
        return self._p1(t, phi, xi_t, xi_phi)[0]

    def p2(self, t, phi, xi_t, xi_phi):
        return self._p2(t, phi, xi_t, xi_phi)[0]


def builtin_moment_map(profile: ProfileFunction) -> MomentMap:
    """The metric Hamiltonian and angular momentum for a profile."""
    return MomentMap(surface=profile)


def moment_map_from_config(
    profile: ProfileFunction, p1_text: Optional[str], p2_text: Optional[str]
) -> MomentMap:
    """Build a MomentMap from expression strings; a slot given as None keeps its builtin text."""
    given = {"p1_expr": p1_text, "p2_expr": p2_text}
    return MomentMap(profile, **{slot: parse_expr(text) for slot, text in given.items() if text is not None})
