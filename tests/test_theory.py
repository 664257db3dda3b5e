import pytest

from oracles import validate_linear_regular
from rigidlab.interp import parse_interpretation
from rigidlab.reduction import parse_wp
from rigidlab.terms import App, ParseError, Symbol, TermInContext, Var
from rigidlab.theory import (
    Equation,
    Theory,
    load_theory,
    parse_equation,
    parse_theory,
    render_theory,
    save_theory,
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


# The .thy, .wp and .itp readers share one line reader: each skips comment
# and blank lines, cuts a trailing comment, and numbers lines from 1.
@pytest.mark.parametrize(
    "parse, first",
    [
        (parse_theory, "symbol m 2"),
        (parse_wp, "alphabet a b"),
        (parse_interpretation, "map l = l(x1,x2)"),
    ],
    ids=["thy", "wp", "itp"],
)
def test_line_reader_numbers_lines_and_cuts_comments(parse, first):
    with pytest.raises(ParseError) as e:
        parse(f"# a comment\n\n{first}  # trailing comment\nbogus\n")
    assert e.value.line == 4
    assert str(e.value) == "4:1: unknown directive 'bogus'"


# Each reader's own malformed lines: the ParseError names the line, and a
# missing required line is reported at line 1.
@pytest.mark.parametrize(
    "parse, text, line, message",
    [
        (parse_theory, "symbol m\n", 1, "expected: symbol <name> <arity>"),
        (parse_theory, "symbol m 2 2\n", 1, "expected: symbol <name> <arity>"),
        (parse_theory, "# arity\nsymbol m two\n", 2, "bad arity 'two'"),
        (parse_theory, "symbol m 2\nsymbol m 1\n", 2, "duplicate symbol 'm'"),
        (parse_theory, "symbol x1 2\n", 1, "symbol name 'x1' is reserved for variables"),
        (parse_theory, "symbol m 2\naxiom m(x1,x2) = m(x2,x1)\n", 2, "expected: axiom [<context>] <lhs> = <rhs>"),
        (parse_wp, "alphabet a b\nrel ab\n", 2, "expected: rel <word> = <word>"),
        (parse_wp, "alphabet a b\n\ngoal a = b = a\n", 3, "expected: goal <word> = <word>"),
        (parse_wp, "# no alphabet\n", 1, "missing alphabet line"),
        (
            parse_interpretation,
            "map l = l(x1,x2)\nmap r r(x2,x1)\n",
            2,
            "expected: map <symbol> = <term>",
        ),
    ],
    ids=[
        "thy-symbol-one-field",
        "thy-symbol-three-fields",
        "thy-symbol-bad-arity",
        "thy-symbol-duplicate",
        "thy-symbol-reserved",
        "thy-axiom-no-context",
        "wp-rel-no-equals",
        "wp-goal-two-equals",
        "wp-no-alphabet",
        "itp-map-no-equals",
    ],
)
def test_reader_rejects_malformed_line(parse, text, line, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert e.value.line == line
    assert str(e.value) == f"{line}:1: {message}"


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
