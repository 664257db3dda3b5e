import pytest

from rigidlab.terms import App, ParseError, Symbol, TermInContext, Var
from rigidlab.theory import (
    Equation,
    Theory,
    load_theory,
    parse_equation,
    parse_theory,
    render_theory,
    save_theory,
    validate_linear_regular,
)

SEED_FILE = """\
symbol l 2
symbol r 2
symbol m 2
axiom [2] l(x1,x2) = r(x2,x1)
"""

L = Symbol("l", 2)
R = Symbol("r", 2)
M = Symbol("m", 2)


def x(i):
    return Var(i)


def eq(lhs, rhs, n):
    return Equation(TermInContext(lhs, n), TermInContext(rhs, n))


class TestEquation:
    def test_context_shared(self):
        with pytest.raises(ValueError):
            Equation(TermInContext(x(1), 1), TermInContext(x(1), 2))

    def test_context_len(self):
        e = eq(App(L, (x(1), x(2))), App(R, (x(2), x(1))), 2)
        assert e.context_len == 2


class TestTheory:
    def test_duplicate_symbol_names_rejected(self):
        with pytest.raises(ValueError):
            Theory((L, Symbol("l", 1)), ())

    def test_axiom_symbols_must_be_declared(self):
        bad = eq(App(Symbol("k", 1), (x(1),)), x(1), 1)
        with pytest.raises(ValueError):
            Theory((L,), (bad,))

    def test_symbol_lookup(self):
        th = Theory((L, R, M), ())
        assert th.symbol("l") is L
        assert th.has_symbol("m")
        assert not th.has_symbol("k")
        with pytest.raises(KeyError):
            th.symbol("k")


class TestValidateLinearRegular:
    def test_seed_axiom_clean(self):
        th = Theory((L, R, M), (eq(App(L, (x(1), x(2))), App(R, (x(2), x(1))), 2),))
        assert validate_linear_regular(th) == []

    def test_commutativity_clean(self):
        th = Theory((M,), (eq(App(M, (x(1), x(2))), App(M, (x(2), x(1))), 2),))
        assert validate_linear_regular(th) == []

    def test_contraction_flagged(self):
        th = Theory((M,), (eq(App(M, (x(1), x(1))), x(1), 2),))
        assert validate_linear_regular(th) == [0]


class TestParseTheory:
    def test_seed_file(self):
        th = parse_theory(SEED_FILE)
        assert [s.name for s in th.signature] == ["l", "r", "m"]
        assert all(s.arity == 2 for s in th.signature)
        assert len(th.axioms) == 1
        assert th.axioms[0] == eq(App(L, (x(1), x(2))), App(R, (x(2), x(1))), 2)

    def test_no_axioms(self):
        th = parse_theory("symbol m 2\n")
        assert th.axioms == ()

    def test_undeclared_symbol_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("symbol l 2\naxiom [2] l(x1,x2) = r(x2,x1)\n")

    def test_symbols_must_precede_use(self):
        with pytest.raises(ParseError):
            parse_theory("axiom [2] l(x1,x2) = l(x2,x1)\nsymbol l 2\n")

    def test_variable_beyond_context_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("symbol m 2\naxiom [1] m(x1,x2) = m(x2,x1)\n")

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nsymbol m 2  # trailing\naxiom [2] m(x1,x2) = m(x2,x1)\n"
        th = parse_theory(text)
        assert len(th.axioms) == 1

    def test_error_carries_line(self):
        with pytest.raises(ParseError) as e:
            parse_theory("symbol m 2\nnonsense line\n")
        assert e.value.line == 2

    def test_roundtrip(self):
        th = parse_theory(SEED_FILE)
        assert parse_theory(render_theory(th)) == th


class TestParseEquation:
    def test_basic(self):
        th = parse_theory(SEED_FILE)
        e = parse_equation("[2] l(x1,x2) = r(x2,x1)", th)
        assert e == th.axioms[0]

    def test_missing_context_rejected(self):
        th = parse_theory(SEED_FILE)
        with pytest.raises(ParseError):
            parse_equation("l(x1,x2) = r(x2,x1)", th)

    def test_two_equals_rejected(self):
        th = parse_theory(SEED_FILE)
        with pytest.raises(ParseError):
            parse_equation("[2] l(x1,x2) = r(x2,x1) = m(x1,x2)", th)


class TestFiles:
    def test_save_load(self, tmp_path):
        th = parse_theory(SEED_FILE)
        path = tmp_path / "seed.thy"
        save_theory(th, path)
        assert load_theory(path) == th
