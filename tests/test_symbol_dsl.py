"""Expression parser, printer, evaluator, and phase-space function pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcilab import (
    BUILTIN_P1_TEXT,
    BUILTIN_P2_TEXT,
    MomentMap,
    SymbolDomainError,
    SymbolNameError,
    SymbolSyntaxError,
    builtin_moment_map,
    compile_expr,
    format_expr,
    moment_map_from_config,
    parse_expr,
)


def ev(text, profile=None, **env):
    return compile_expr(parse_expr(text), profile)(**env)


class TestParser:
    def test_numbers(self):
        assert ev("1e-3") == 1e-3
        assert ev("2.5E+2") == 250.0
        assert ev("0.125") == 0.125

    def test_precedence(self):
        assert ev("2*3+4") == 10.0
        assert ev("2+3*4") == 14.0
        assert ev("2*(3+4)") == 14.0
        assert ev("2 - 3 - 4") == -5.0
        assert ev("2^3") == 8.0
        assert ev("-2^2") == 4.0  # unary minus is part of the atom: (-2)^2

    def test_whitespace_insignificant(self):
        assert ev("  1+ 2 *3 ") == ev("1+2*3")

    def test_variables_default_to_zero(self):
        assert ev("t + xi_phi", t=2.0) == 2.0

    def test_profile_builtins(self, sphere):
        assert ev("f(t)", profile=sphere, t=0.6) == pytest.approx(0.8, abs=1e-14)
        assert ev("fp(t)", profile=sphere, t=0.6) == pytest.approx(
            -0.6 / 0.8, abs=1e-13
        )

    def test_vectorized_eval(self, sphere):
        t = np.linspace(-0.5, 0.5, 7)
        out = ev("f(t)^2 + t", profile=sphere, t=t)
        assert np.max(np.abs(out - (1 - t * t + t))) <= 1e-14

    def test_unclosed_call_offset(self):
        with pytest.raises(SymbolSyntaxError) as exc:
            parse_expr("sin(t")
        assert exc.value.offset == 6

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SymbolSyntaxError):
            parse_expr("1 + 2 )")

    def test_empty_input_rejected(self):
        with pytest.raises(SymbolSyntaxError):
            parse_expr("   ")

    def test_unknown_name_rejected(self):
        with pytest.raises(SymbolNameError):
            parse_expr("xi_theta")

    def test_unknown_function_rejected(self):
        with pytest.raises(SymbolNameError):
            parse_expr("tan(t)")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(SymbolSyntaxError):
            parse_expr("t^1.5")

    def test_negative_exponent_rejected(self):
        with pytest.raises(SymbolSyntaxError):
            parse_expr("t^-2")

    @pytest.mark.parametrize("text, offset", [("1e999", 1), ("xi_t + 2.5e400 * t", 8)])
    def test_overflowing_literal_rejected(self, text, offset):
        with pytest.raises(SymbolSyntaxError) as exc:
            parse_expr(text)
        assert exc.value.offset == offset
        assert "overflows to infinity" in str(exc.value)


class TestEvalErrors:
    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(SymbolDomainError) as exc:
            ev("1/(t - t)", t=1.0)
        assert "t - t" in str(exc.value)

    def test_sqrt_of_nonnegative(self):
        assert ev("sqrt(t^2 + 9)", t=4.0) == 5.0
        np.testing.assert_array_equal(ev("sqrt(xi_t)", xi_t=np.array([0.0, 2.25])), [0.0, 1.5])

    def test_sqrt_of_negative(self):
        with pytest.raises(SymbolDomainError):
            ev("sqrt(0 - t^2)", t=2.0)

    def test_profile_function_without_profile(self):
        with pytest.raises(SymbolDomainError):
            ev("f(t)", t=0.0)


    @pytest.mark.parametrize(
        "text, env, message",
        [
            ("1/(t - t)", {"t": 1.0}, "division by zero in '1 / (t - t)'"),
            (
                "xi_t + 1/(xi_t - 1)",
                {"xi_t": np.array([0.5, 1.0, 2.0])},
                "division by zero in '1 / (xi_t - 1)'",
            ),
            ("sqrt(0 - t^2)", {"t": 2.0}, "sqrt of negative value in 'sqrt(0 - t^2)'"),
            (
                "sqrt(xi_phi)",
                {"xi_phi": np.array([[1.0, 4.0], [-1e-300, 9.0]])},
                "sqrt of negative value in 'sqrt(xi_phi)'",
            ),
            ("2 * f(t)", {"t": 0.0}, "'f' needs a surface profile in 'f(t)'"),
            ("fp(t + 1)", {"t": 0.0}, "'fp' needs a surface profile in 'fp(t + 1)'"),
        ],
    )
    def test_compiled_errors_name_the_subexpression(self, text, env, message):
        # a domain error anywhere in a batch raises, with the message the
        # tree-walking evaluator gave
        with pytest.raises(SymbolDomainError) as exc:
            compile_expr(parse_expr(text), None)(**env)
        assert str(exc.value) == message


    @pytest.mark.parametrize(
        "text, env, message",
        [
            # f^2 < 0 off the chart, and fp divides by f = 0 at its ends
            (
                "xi_t + f(xi_t)",
                {"xi_t": np.array([0.5, 1.5])},
                "invalid value encountered in sqrt in 'xi_t + f(xi_t)'",
            ),
            ("fp(t)", {"t": np.array([0.0, -1.0])}, "divide by zero encountered in divide in 'fp(t)'"),
            (
                "(t + 1e308)^2",
                {"t": np.array([0.0, 1.0])},
                "overflow encountered in square in '(t + 1e+308)^2'",
            ),
            (
                "xi_t + (1e308)^2",
                {"xi_t": 0.5},
                "overflow encountered in scalar power in 'xi_t + 1e+308^2'",
            ),
            ("t * t", {"t": 1e200}, "overflow encountered in scalar multiply in 't * t'"),
            (
                "sin(xi_t * 1e308 * 10)",
                {"xi_t": np.array([1.0])},
                "overflow encountered in multiply in 'sin(xi_t * 1e+308 * 10)'",
            ),
        ],
    )
    def test_floating_point_errors_are_domain_errors(self, sphere, text, env, message):
        with pytest.raises(SymbolDomainError) as exc:
            compile_expr(parse_expr(text), sphere)(**env)
        assert str(exc.value) == message

    def test_profile_builtins_reach_the_chart_ends(self, sphere):
        f = compile_expr(parse_expr("f(t)"), sphere)
        assert f(t=np.array([-1.0, 1.0])).tolist() == [0.0, 0.0]

# strategies for random well-formed expression trees
_leaf = st.one_of(
    st.sampled_from(["t", "phi", "xi_t", "xi_phi"]),
    st.floats(
        min_value=0.001, max_value=100.0, allow_nan=False, allow_infinity=False
    ).map(lambda v: format(v, ".6g")),
)


def _grow(children):
    binary = st.tuples(st.sampled_from("+-*/"), children, children).map(
        lambda p: f"({p[1]}) {p[0]} ({p[2]})"
    )
    call = st.tuples(st.sampled_from(["sin", "cos", "abs"]), children).map(
        lambda p: f"{p[0]}({p[1]})"
    )
    power = st.tuples(children, st.integers(0, 4)).map(lambda p: f"({p[0]})^{p[1]}")
    neg = children.map(lambda s: f"-({s})")
    return st.one_of(binary, call, power, neg)


expression_texts = st.recursive(_leaf, _grow, max_leaves=12)


class TestPrinter:
    @given(expression_texts)
    @settings(max_examples=200, deadline=None)
    def test_format_parse_round_trip(self, text):
        tree = parse_expr(text)
        printed = format_expr(tree)
        assert parse_expr(printed) == tree
        # printing is a fixed point after one round
        assert format_expr(parse_expr(printed)) == printed

    def test_minimal_parentheses(self):
        assert format_expr(parse_expr("(2*3)+4")) == "2 * 3 + 4"
        assert format_expr(parse_expr("2*(3+4)")) == "2 * (3 + 4)"

    def test_left_associative_subtraction_kept(self):
        a = parse_expr("(2 - 3) - 4")
        b = parse_expr("2 - (3 - 4)")
        assert a != b
        assert parse_expr(format_expr(a)) == a
        assert parse_expr(format_expr(b)) == b


class TestMomentMap:
    def test_builtin_values(self, sphere_map):
        # kinetic form at a hand-checked phase point on the sphere
        val = sphere_map.p1(0.6, 0.0, 1.0, 0.8)
        assert val == pytest.approx(1.0 + 0.8**2 / 0.64, abs=1e-13)
        assert sphere_map.p2(0.6, 0.0, 1.0, 0.5) == 0.5

    def test_builtin_flags(self, sphere_map):
        assert sphere_map.is_builtin_p1 and sphere_map.p2_expr is None

    def test_symbols_are_compiled_once(self, sphere, monkeypatch):
        import qcilab.symbol_dsl as dsl

        compiled = []

        def counting(node, profile):
            compiled.append(node)
            return real(node, profile)

        real = dsl.compile_expr
        monkeypatch.setattr(dsl, "compile_expr", counting)
        m = moment_map_from_config(sphere, BUILTIN_P1_TEXT, "2 * xi_phi")
        for xi_t in (0.5, np.linspace(0.0, 1.0, 5)):
            assert m.p1(0.6, 0.0, xi_t, 0.8) == pytest.approx(1.0 + xi_t**2, rel=1e-14)
            assert m.p2(0.6, 0.0, xi_t, 0.8) == 1.6
        assert compiled == [m.p1_expr, m.p2_expr]

    def test_parsed_builtin_text_matches_builtin(self, sphere, sphere_map):
        parsed = moment_map_from_config(sphere, BUILTIN_P1_TEXT, BUILTIN_P2_TEXT)
        assert not (parsed.is_builtin_p1 or parsed.p2_expr is None)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.9, 0.9, (1000, 4))
        pts[:, 1] *= np.pi
        pts[:, 2:] *= 3.0
        for t, phi, xt, xp in pts:
            b1 = sphere_map.p1(t, phi, xt, xp)
            d1 = parsed.p1(t, phi, xt, xp)
            assert abs(b1 - d1) <= 1e-12 * max(1.0, abs(b1))
            assert parsed.p2(t, phi, xt, xp) == sphere_map.p2(t, phi, xt, xp)

    def test_custom_symbols(self, sphere):
        m = moment_map_from_config(sphere, "xi_t^2", "xi_t * xi_phi")
        assert m.p1(0.0, 0.0, 3.0, 9.0) == 9.0
        assert m.p2(0.0, 0.0, 3.0, 9.0) == 27.0

    def test_bad_symbol_text_raises_at_build(self, sphere):
        with pytest.raises(SymbolSyntaxError):
            moment_map_from_config(sphere, "sin(t", None)

    def test_builtin_defaults_when_text_none(self, sphere):
        m = moment_map_from_config(sphere, None, None)
        assert m.is_builtin_p1 and m.p2_expr is None
        assert m == builtin_moment_map(sphere)
