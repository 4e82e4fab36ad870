"""Expression parser, printer, evaluator, derivatives and phase-space function pairs."""

import re
import weakref

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
from qcilab.symbol_dsl import VARIABLES, BinOp, Call, Num, Var, _diff, _grades


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


def _record_programs(monkeypatch):
    """A list that gets the outputs of every program compiled from now on."""
    import qcilab.symbol_dsl as dsl

    compiled = []

    class Recording(dsl._Program):
        def __init__(self, outputs, profile):
            compiled.append(outputs)
            super().__init__(outputs, profile)

    monkeypatch.setattr(dsl, "_Program", Recording)
    return compiled


class TestMomentMap:
    def test_builtin_values(self, sphere_map):
        # kinetic form at a hand-checked phase point on the sphere
        val = sphere_map.p1(0.6, 0.0, 1.0, 0.8)
        assert val == pytest.approx(1.0 + 0.8**2 / 0.64, abs=1e-13)
        assert sphere_map.p2(0.6, 0.0, 1.0, 0.5) == 0.5

    def test_builtin_flags(self, sphere_map):
        # the builtin slots are the parsed builtin text
        assert sphere_map.p1_expr == parse_expr(BUILTIN_P1_TEXT)
        assert sphere_map.p2_expr == parse_expr(BUILTIN_P2_TEXT)
        degrees, program = sphere_map.p1_grades
        assert degrees == (2,) and program is sphere_map._p1

    def test_symbols_are_compiled_once(self, sphere, monkeypatch):
        compiled = _record_programs(monkeypatch)
        m = moment_map_from_config(sphere, BUILTIN_P1_TEXT, "2 * xi_phi")
        for xi_t in (0.5, np.linspace(0.0, 1.0, 5)):
            assert m.p1(0.6, 0.0, xi_t, 0.8) == pytest.approx(1.0 + xi_t**2, rel=1e-14)
            assert m.p2(0.6, 0.0, xi_t, 0.8) == 1.6
        assert compiled == [(m.p1_expr,), (m.p2_expr,)]

    def test_parsed_builtin_text_matches_builtin(self, sphere, sphere_map):
        parsed = moment_map_from_config(sphere, BUILTIN_P1_TEXT, BUILTIN_P2_TEXT)
        assert parsed == sphere_map
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.9, 0.9, (1000, 4))
        pts[:, 1] *= np.pi
        pts[:, 2:] *= 3.0
        for t, phi, xt, xp in pts:
            assert parsed.p1(t, phi, xt, xp) == sphere_map.p1(t, phi, xt, xp)
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
        assert (m.p1_expr, m.p2_expr) == (parse_expr(BUILTIN_P1_TEXT), parse_expr(BUILTIN_P2_TEXT))
        assert m == builtin_moment_map(sphere)
        assert moment_map_from_config(sphere, None, "t").p1_expr == m.p1_expr


class TestGrades:
    @pytest.mark.parametrize(
        "text, grades",
        [
            # one grade: homogeneous in xi, its own coefficient
            (BUILTIN_P1_TEXT, [2]),
            (f"sqrt({BUILTIN_P1_TEXT})", [1]),
            ("(1 + t^2) * (xi_t^2 + xi_phi^2 / f(t)^2)", [2]),
            ("abs(xi_t) + abs(xi_phi)", [1]),
            ("-xi_t^3 / xi_phi", [2]),
            ("cos(phi) * xi_phi - fp(t) * xi_t", [1]),
            ("(xi_t^2 + xi_phi^2)^2", [4]),
            ("1 / xi_t", [-1]),
            ("2 * sin(t)", [0]),
            ("sin(xi_t)^0", [0]),
            ("(xi_t + 1)^0", [0]),
            ("((xi_t + 1)^0)^1000000", [0]),
            ("xi_t^1000000", [1000000]),
            # more than one grade
            (f"{BUILTIN_P1_TEXT} + 0.1", [0, 2]),
            ("xi_t - xi_t + 2", [0, 1]),
            ("xi_t^2 + 2*xi_phi^2/f(t)^2 + 0.1*sin(t)*xi_t", [1, 2]),
            ("(xi_t - 2)^2 + xi_phi^2/f(t)^2", [0, 1, 2]),
            (f"({BUILTIN_P1_TEXT} - 1)^2", [0, 2, 4]),
            ("-(xi_t + t)^3 - 1", [0, 1, 2, 3]),
            ("(xi_t^2 + 1) / xi_t", [-1, 1]),
            ("xi_t + 1/xi_t", [-1, 1]),
            ("xi_t^5 + xi_t", [1, 5]),
            # wider than degree 4: refused before the expansion is built
            ("(xi_t + 1)^5", None),
            ("(xi_t + 1)^40", None),
            ("(xi_t^2 + xi_phi^2 - 1)^1000000", None),
            ("(xi_t^3 + 1) * (xi_t^2 + t)", None),
            ("xi_t^6 + 1 - xi_t^6", None),
            # no reading along rays
            ("sin(xi_t)", None),
            ("f(xi_phi)", None),
            ("sqrt(xi_t)", None),
            ("sqrt(xi_t^2 + 1)", None),
            ("1 / (xi_t + 1)", None),
            ("cos(xi_t + 1) * xi_t", None),
        ],
    )
    def test_grades_of_a_symbol(self, text, grades):
        node = parse_expr(text)
        got = _grades(node)
        assert (None if got is None else sorted(got)) == grades
        if grades is not None and len(grades) == 1:
            assert got == {grades[0]: node}

    @pytest.mark.parametrize(
        "text",
        [
            BUILTIN_P1_TEXT,
            "(1 + t^2) * abs(xi_t)^3 / xi_phi",
            "sqrt(xi_t^2 + phi^2 * xi_phi^2)",
            "xi_t^2 + 2*xi_phi^2/f(t)^2 + 0.1*sin(t)*xi_t",
            f"({BUILTIN_P1_TEXT} - 1)*({BUILTIN_P1_TEXT} - 4)",
            "-(xi_t - phi * xi_phi + t)^3 / (2 + t^2) - abs(xi_phi) * (xi_t + 1)",
            "(xi_t^2 + 1) / xi_t - xi_phi",
        ],
    )
    def test_grades_are_the_coefficients_along_rays(self, perturbed, text):
        # p(t, phi, r xi) = sum_d r^d a_d(t, phi, xi) for r > 0; of one
        # grade d, the scaling law p(t, phi, r xi) = r^d p(t, phi, xi)
        node = parse_expr(text)
        p = compile_expr(node, perturbed)
        grades = {d: compile_expr(a, perturbed) for d, a in _grades(node).items()}
        rng = np.random.default_rng(7)
        t, phi, xt, xp = rng.uniform(-0.8, 0.8, 50), rng.uniform(0.0, 6.0, 50), *rng.uniform(0.1, 2.0, (2, 50))
        for r in (0.3, 2.0, 7.0):
            series = sum(r**d * a(t, phi, xt, xp) for d, a in grades.items())
            np.testing.assert_allclose(p(t, phi, r * xt, r * xp), series, rtol=1e-13)

    def test_a_homogeneous_p1_is_its_own_one_grade(self, sphere, monkeypatch):
        import qcilab.symbol_dsl as dsl

        m = moment_map_from_config(sphere, None, None)
        m.p1(0.5, 0.0, 1.0, 0.0)
        monkeypatch.setattr(dsl, "_Program", lambda *args: pytest.fail("compiled a grade"))
        degrees, program = m.p1_grades
        assert degrees == (2,) and program is m._p1
        monkeypatch.undo()
        # no reference cycle: the map is freed without the garbage collector
        ref = weakref.ref(m)
        del m
        assert ref() is None

    def test_a_ray_polynomial_is_one_program(self, sphere, monkeypatch):
        compiled = _record_programs(monkeypatch)
        m = moment_map_from_config(sphere, "(xi_t - 2)^2 + xi_phi^2/f(t)^2", None)
        degrees, program = m.p1_grades
        assert m.p1_grades[1] is program and compiled == [program.outputs]
        # (xi_t - 2)^2 + xi_phi^2/f^2 along a unit ray (c, s): 4 - 4 c r + r^2
        assert degrees == (0, 1, 2)
        c, s = 0.6, 0.8 * sphere.value(0.5)
        assert program(0.5, 0.0, c, s) == (4.0, pytest.approx(-4.0 * c), pytest.approx(1.0))

    @pytest.mark.parametrize("text", ["sin(xi_t)", "xi_t^5 + xi_t", "xi_t + 1 / xi_phi"])
    def test_unsupported_p1_is_refused(self, sphere, text):
        m = moment_map_from_config(sphere, text, None)
        with pytest.raises(ValueError) as exc:
            m.p1_grades
        assert str(exc.value) == (
            "p1 must be homogeneous of a positive degree in (xi_t, xi_phi) or a polynomial of "
            f"degree at most 4 along each fiber ray; '{text}' is neither"
        )


class TestDerivatives:
    # one symbol per grammar node (Num, Var, Neg, + - * / ^ and each call),
    # plus sign, which only derivatives hold and the parser does not accept;
    # fpp is checked against fp below
    TREES = [
        parse_expr(text)
        for text in (
            "2.5",
            "xi_t",
            "-(t * xi_phi)",
            "t + xi_t",
            "phi - xi_phi",
            "t * xi_t * xi_phi",
            "xi_t / (2 + cos(phi))",
            "(t + xi_phi)^3",
            "sin(t * xi_t)",
            "cos(phi + xi_phi)",
            "sqrt(1 + xi_t^2)",
            "abs(xi_t - phi)",
            "f(t) * xi_phi",
            "fp(t) * xi_t",
            BUILTIN_P1_TEXT,
        )
    ] + [BinOp("*", Var("xi_t"), Call("sign", BinOp("-", Var("xi_phi"), Num(3.0))))]

    @pytest.mark.parametrize("tree", TREES, ids=format_expr)
    def test_partials_match_central_differences(self, perturbed, tree):
        rng = np.random.default_rng(11)
        env = {
            "t": rng.uniform(-0.8, 0.8, 200),
            "phi": rng.uniform(0.0, 2.0 * np.pi, 200),
            "xi_t": rng.uniform(-2.0, 2.0, 200),
            "xi_phi": rng.uniform(-2.0, 2.0, 200),
        }
        value = compile_expr(tree, perturbed)
        for var in VARIABLES:
            exact = np.broadcast_to(compile_expr(_diff(tree, var), perturbed)(**env), (200,))
            h = 1e-6 * np.maximum(1.0, np.abs(env[var]))
            hi = value(**dict(env, **{var: env[var] + h}))
            lo = value(**dict(env, **{var: env[var] - h}))
            central = np.broadcast_to((hi - lo) / (2.0 * h), (200,))
            np.testing.assert_allclose(exact, central, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("tree", TREES, ids=format_expr)
    def test_a_symbol_free_of_a_variable_folds_to_zero(self, tree):
        text = format_expr(tree)
        free = [v for v in VARIABLES if not re.search(rf"\b{v}\b", text)]
        for var in free:
            assert _diff(tree, var) == Num(0.0)
        if "sign" not in text:
            assert all(_diff(tree, v) != Num(0.0) for v in set(VARIABLES) - set(free))

    def test_fpp_is_the_derivative_of_fp(self, perturbed):
        t = np.linspace(-0.9, 0.9, 37)
        fpp = compile_expr(Call("fpp", Var("t")), perturbed)(t=t)
        fp = compile_expr(parse_expr("fp(t)"), perturbed)
        central = (fp(t=t + 1e-6) - fp(t=t - 1e-6)) / 2e-6
        np.testing.assert_allclose(fpp, central, rtol=1e-6, atol=1e-6)
        with pytest.raises(TypeError):
            _diff(Call("fpp", Var("t")), "t")

    def test_derivative_domain_errors_name_the_derivative(self, sphere):
        # sqrt(xi_phi^2) is fine at xi_phi = 0; its derivative divides by 0
        m = moment_map_from_config(sphere, "xi_t^2 + sqrt(xi_phi^2)", None)
        assert m.p1(0.3, 0.0, 1.0, 0.0) == 1.0
        with pytest.raises(SymbolDomainError) as exc:
            m._program(("p1",), VARIABLES)(0.3, 0.0, 1.0, 0.0)
        assert str(exc.value) == "division by zero in '2 * xi_phi / (2 * sqrt(xi_phi^2))'"

    def test_builtin_partials_are_the_closed_forms(self, perturbed):
        m = builtin_moment_map(perturbed)
        t, phi, xt, xp = 0.4, 1.0, 0.7, -0.3
        f, fp = perturbed.value(t), perturbed.derivative(t)
        d_t, d_phi, d_xt, d_xp = m._program(("p1",), VARIABLES)(t, phi, xt, xp)
        assert d_phi == 0.0 and d_xt == 2 * xt
        assert d_xp == pytest.approx(2 * xp / f**2, rel=1e-15)
        assert d_t == pytest.approx(-2 * xp**2 * fp / f**3, rel=1e-14)
        assert m._program(("p2",), VARIABLES)(t, phi, xt, xp) == (0.0, 0.0, 0.0, 1.0)
        assert m._program(("p1",), ("xi_phi",))(t, phi, xt, xp) == (d_xp,)


def _liveness_bound(program):
    """The most block-shaped values of an in-place run that are alive at once.

    A step's value is alive from its step to the last step that reads it,
    or to the end for an output; a step that writes into a buffer needs
    one for as long as its value is alive, and a step reading a value for
    the last time may write over it.
    """
    steps = [(slot, ufunc, args) for slot, _, _, ufunc, args, *_ in program.steps]
    last = {a: i for i, (_, _, args) in enumerate(steps) for a in args}
    last.update((slot, len(steps)) for slot in program.results)
    buffered = [slot for slot, ufunc, _ in steps if program.block[slot] and ufunc is not None]
    made = {slot: i for i, (slot, _, _) in enumerate(steps)}
    return max((sum(made[s] <= i < last[s] for s in buffered) for i in range(len(steps))), default=0)


class TestProgram:
    # the builtin rate's partials and a few symbols with shared, constant,
    # profile and row-only sub-expressions
    SYMBOLS = [
        (None, None),
        ("(1 + t^2)*(xi_t^2 + xi_phi^2/f(t)^2)", "xi_phi*cos(phi) + 0.1*xi_t"),
        ("(xi_t - 2)^2 + xi_phi^2/f(t)^2", "xi_t + 0.1*t"),
        ("sqrt(xi_t^2 + xi_phi^2/f(t)^2) + f(xi_t/4)", "sin(xi_phi)^3 / (2 + cos(xi_t))"),
    ]

    def test_builtin_partials_compute_f_squared_once(self, perturbed):
        m = builtin_moment_map(perturbed)
        program = m._program(("p1", "p2"), ("xi_t", "xi_phi", "t"))
        nodes = [step[1] for step in program.steps]
        assert nodes.count(parse_expr("f(t)^2")) == 1
        assert len(nodes) == len(set(nodes))

    @pytest.mark.parametrize("symbols", SYMBOLS, ids=str)
    def test_block_buffers_meet_the_liveness_bound(self, perturbed, symbols):
        m = moment_map_from_config(perturbed, *symbols)
        for over in (("xi_t", "xi_phi"), ("xi_t", "xi_phi", "t"), VARIABLES):
            for slots in (("p1",), ("p2",), ("p1", "p2")):
                program = m._program(slots, over)
                assert program.nbuf == _liveness_bound(program)

    @pytest.mark.parametrize("symbols", SYMBOLS, ids=str)
    def test_in_place_runs_equal_fresh_ones_bit_for_bit(self, perturbed, symbols):
        # xi_phi with an extra leading axis holds the same values, but the
        # two shapes differ, so that run makes every value as the operator
        # would, at its own shape
        rng = np.random.default_rng(5)
        t, phi = rng.uniform(-0.8, 0.8, (6, 1)), rng.uniform(0.0, 6.0, (6, 1))
        xi_t, xi_phi = rng.uniform(-2.0, 2.0, (2, 6, 9))
        program = moment_map_from_config(perturbed, *symbols)._program(("p1", "p2"), VARIABLES)
        buffers = [np.full((6, 9), np.nan) for _ in range(program.nbuf)]
        in_place = program(t, phi, xi_t, xi_phi, buffers=buffers)
        fresh = program(t, phi, xi_t, xi_phi[None])
        for a, b in zip(in_place, fresh):
            a, b = (np.broadcast_to(v, (1, 6, 9)) for v in (a, b))
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_returned_arrays_are_not_overwritten(self, perturbed):
        rng = np.random.default_rng(3)
        t = rng.uniform(-0.8, 0.8, (5, 1))
        xi = rng.uniform(-2.0, 2.0, (4, 5, 7))
        fn = compile_expr(parse_expr("xi_t^2 + xi_phi^2 / f(t)^2 + sin(xi_t * xi_phi)"), perturbed)
        m = builtin_moment_map(perturbed)
        program = m._program(("p1",), VARIABLES)
        first, partials = fn(t, 0.0, xi[0], xi[1]), program(t, 0.0, xi[0], xi[1])
        kept = first.copy(), [np.copy(d) for d in partials]
        fn(t, 0.0, xi[2], xi[3])
        program(t, 0.0, xi[2], xi[3])
        assert np.array_equal(first, kept[0])
        assert all(np.array_equal(d, k) for d, k in zip(partials, kept[1]))
