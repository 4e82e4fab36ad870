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
string. compile_expr turns an AST into one numpy function, once; it
evaluates on scalars or numpy arrays alike, and eval_expr is a one-off
call of it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
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
    "eval_expr",
    "MomentMap",
    "builtin_moment_map",
    "BUILTIN_P1_TEXT",
    "BUILTIN_P2_TEXT",
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

    Each node becomes one closure, so evaluating the result walks no tree
    and makes one numpy call per operator. Arguments may be scalars or
    arrays that broadcast together; omitted ones are 0.0. Calling fn
    raises SymbolDomainError on division by zero, sqrt of a negative, or
    f/fp without a profile, naming the offending sub-expression. Any
    other floating-point overflow, invalid value or division by zero, such
    as f or fp off the chart, raises it too, naming the whole expression.
    """
    fn = _compile(node, profile)
    text = format_expr(node)

    def evaluate(t=0.0, phi=0.0, xi_t=0.0, xi_phi=0.0):
        # scalars become numpy scalars, which obey errstate as arrays do
        env = tuple(v if isinstance(v, np.ndarray) else np.float64(v) for v in (t, phi, xi_t, xi_phi))
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fn(env)
        except FloatingPointError as exc:
            raise SymbolDomainError(f"{exc} in '{text}'") from None

    return evaluate


def _compile(node: Expr, profile: ProfileFunction):
    """Closure env -> value for one node; env is (t, phi, xi_t, xi_phi)."""
    if isinstance(node, Num):
        value = np.float64(node.value)  # so that arithmetic on constants obeys errstate
        return lambda env: value
    if isinstance(node, Var):
        slot = VARIABLES.index(node.name)
        return lambda env: env[slot]
    if isinstance(node, Neg):
        operand = _compile(node.operand, profile)
        return lambda env: -operand(env)
    if isinstance(node, Pow):
        base, exponent = _compile(node.base, profile), node.exponent
        return lambda env: base(env) ** exponent
    if isinstance(node, BinOp):
        left, right = _compile(node.left, profile), _compile(node.right, profile)
        if node.op == "+":
            return lambda env: left(env) + right(env)
        if node.op == "-":
            return lambda env: left(env) - right(env)
        if node.op == "*":
            return lambda env: left(env) * right(env)
        message = f"division by zero in '{format_expr(node)}'"

        def divide(env):
            a, b = left(env), right(env)
            if np.any(np.asarray(b) == 0.0):
                raise SymbolDomainError(message)
            return a / b

        return divide
    if isinstance(node, Call):
        arg = _compile(node.arg, profile)
        if node.func in ("sin", "cos", "abs"):
            ufunc = {"sin": np.sin, "cos": np.cos, "abs": np.abs}[node.func]
            return lambda env: ufunc(arg(env))
        if node.func == "sqrt":
            message = f"sqrt of negative value in '{format_expr(node)}'"

            def sqrt(env):
                x = arg(env)
                if np.any(np.asarray(x) < 0.0):
                    raise SymbolDomainError(message)
                return np.sqrt(x)

            return sqrt
        if profile is None:
            message = f"'{node.func}' needs a surface profile in '{format_expr(node)}'"

            def unavailable(env):
                arg(env)
                raise SymbolDomainError(message)

            return unavailable
        curve = profile.value if node.func == "f" else profile.derivative
        return lambda env: curve(arg(env))
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(node: Expr, env: dict, profile: ProfileFunction):
    """Evaluate an AST on an environment of scalars or numpy arrays.

    Parameters
    ----------
    node : Expr
    env : dict
        Values for t, phi, xi_t, xi_phi (missing names evaluate to 0.0).
    profile : ProfileFunction
        Supplies the builtins f and fp.

    Raises
    ------
    SymbolDomainError
        On division by zero or sqrt of a negative, naming the offending
        sub-expression.
    """
    return compile_expr(node, profile)(*(env.get(name, 0.0) for name in VARIABLES))


# -- moment maps ---------------------------------------------------------------


@dataclass(frozen=True)
class MomentMap:
    """Pair of commuting classical symbols p1, p2 on T*M.

    When an expression slot is None the corresponding builtin closed form
    is used: p1 = xi_t^2 + xi_phi^2 / f(t)^2 (metric Hamiltonian) and
    p2 = xi_phi (angular momentum). Overrides are DSL expressions, each
    compiled once (compile_expr) on its first evaluation.
    """

    surface: ProfileFunction
    p1_expr: Optional[Expr] = None
    p2_expr: Optional[Expr] = None

    @cached_property
    def _p1(self):
        return compile_expr(self.p1_expr, self.surface)

    @cached_property
    def _p2(self):
        return compile_expr(self.p2_expr, self.surface)

    @property
    def is_builtin_p1(self) -> bool:
        return self.p1_expr is None

    @property
    def is_builtin_p2(self) -> bool:
        return self.p2_expr is None

    def p1(self, t, phi, xi_t, xi_phi):
        if self.p1_expr is None:
            fsq = self.surface.sq(t)
            return xi_t * xi_t + xi_phi * xi_phi / fsq
        return self._p1(t, phi, xi_t, xi_phi)

    def p2(self, t, phi, xi_t, xi_phi):
        if self.p2_expr is None:
            return xi_phi if np.ndim(xi_phi) else float(xi_phi)
        return self._p2(t, phi, xi_t, xi_phi)


def builtin_moment_map(profile: ProfileFunction) -> MomentMap:
    """The metric Hamiltonian and angular momentum for a profile."""
    return MomentMap(surface=profile)


def moment_map_from_config(
    profile: ProfileFunction, p1_text: Optional[str], p2_text: Optional[str]
) -> MomentMap:
    """Build a MomentMap from optional expression strings."""
    p1 = parse_expr(p1_text) if p1_text is not None else None
    p2 = parse_expr(p2_text) if p2_text is not None else None
    return MomentMap(surface=profile, p1_expr=p1, p2_expr=p2)
