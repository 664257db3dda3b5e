import copy
import gc
import pickle

import pytest
from hypothesis import assume, given, strategies as st

from oracles import naive_positions, naive_replace
from rigidlab.rewrite import bounded_closure, prove_bounded
from rigidlab.rigidity import search_flabby
from rigidlab.terms import (
    App,
    ParseError,
    Permutation,
    Symbol,
    TermInContext,
    Var,
    canonical,
    count_symbol,
    is_linear_regular,
    parse_term,
    render_term,
    replace_at,
    substitute_simple,
    substitute_terms,
    subterm_at,
    term_size,
    var_occurrences,
)
from rigidlab.theory import parse_equation, parse_theory

F = Symbol("f", 1)
G = Symbol("g", 2)
C = Symbol("c", 0)
SYMBOLS = {s.name: s for s in (F, G, C)}

M = Symbol("m", 2)
A = Symbol("a", 1)
B = Symbol("b", 1)
ALPHA = Symbol("alpha", 1)


def x(i):
    return Var(i)


def m(s, t):
    return App(M, (s, t))


def chain(*syms, below):
    t = below
    for s in reversed(syms):
        t = App(s, (t,))
    return t


def terms_strategy(max_vars=3, max_leaves=10):
    base = st.one_of(
        st.integers(1, max_vars).map(Var),
        st.just(App(C, ())),
    )
    return st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(lambda t: App(F, (t,))),
            st.tuples(kids, kids).map(lambda p: App(G, p)),
        ),
        max_leaves=max_leaves,
    )


def in_context(term, n=3):
    return TermInContext(term, n)


def linearised(term):
    """term with its variable occurrences numbered 1, 2, ... in pre-order:
    a canonical linear-regular term of the same shape."""
    leaves = iter(range(1, term.size + 1))

    def walk(s):
        if s.__class__ is Var:
            return Var(next(leaves))
        return App(s.sym, [walk(a) for a in s.args])

    return walk(term)


@st.composite
def terms_of_size(draw, size, n):
    """Any term of exactly size nodes over F, G, C and variables 1..n."""
    if size == 1:
        return draw(st.one_of(st.integers(1, n).map(Var), st.just(App(C, ()))))
    if size == 2 or draw(st.booleans()):
        return App(F, (draw(terms_of_size(size - 1, n)),))
    left = draw(st.integers(1, size - 2))
    return App(G, (draw(terms_of_size(left, n)), draw(terms_of_size(size - 1 - left, n))))


class TestConstruction:
    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            Symbol("", 1)
        with pytest.raises(ValueError):
            Symbol("x1", 2)
        with pytest.raises(ValueError):
            Symbol("f", -1)
        with pytest.raises(ValueError):
            Symbol("no spaces", 1)

    def test_var_index_positive(self):
        with pytest.raises(ValueError):
            Var(0)

    def test_app_arity_checked(self):
        with pytest.raises(ValueError):
            App(G, (x(1),))

    def test_context_bounds_vars(self):
        TermInContext(m(x(1), x(2)), 2)
        with pytest.raises(ValueError):
            TermInContext(m(x(1), x(3)), 2)
        with pytest.raises(ValueError):
            TermInContext(x(1), -1)

    def test_unused_context_variables_allowed(self):
        t = TermInContext(x(1), 4)
        assert t.context_len == 4

    def test_structural_equality(self):
        assert m(x(1), x(2)) == m(x(1), x(2))
        assert hash(m(x(1), x(2))) == hash(m(x(1), x(2)))
        assert m(x(1), x(2)) != m(x(2), x(1))


class TestVarOccurrences:
    def test_pair(self):
        assert var_occurrences(in_context(m(x(1), x(2)), 2)) == (1, 2)

    def test_single_variable(self):
        assert var_occurrences(in_context(x(1), 1)) == (1,)

    def test_repeats_in_order(self):
        t = m(m(x(2), x(1)), x(2))
        assert var_occurrences(in_context(t, 2)) == (2, 1, 2)


class TestLinearRegular:
    def test_pair_is(self):
        assert is_linear_regular(TermInContext(m(x(1), x(2)), 2))

    def test_repeat_is_not(self):
        assert not is_linear_regular(TermInContext(m(x(1), x(1)), 2))

    def test_marked_chain_is(self):
        t = m(chain(A, B, ALPHA, below=x(1)), x(2))
        assert is_linear_regular(TermInContext(t, 2))

    def test_unused_variable_is_not(self):
        assert not is_linear_regular(TermInContext(x(1), 2))


class TestSubstituteSimple:
    def test_transposition(self):
        t = TermInContext(m(x(1), x(2)), 2)
        swapped = substitute_simple(t, Permutation((2, 1)))
        assert swapped == TermInContext(m(x(2), x(1)), 2)

    def test_identity(self):
        t = TermInContext(m(x(1), m(x(2), x(3))), 3)
        assert substitute_simple(t, Permutation.identity(3)) == t

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            substitute_simple(TermInContext(x(1), 1), Permutation.identity(2))

    @given(terms_strategy(), st.permutations([1, 2, 3]))
    def test_shape_and_symbols_preserved(self, term, images):
        t = in_context(term)
        out = substitute_simple(t, Permutation(tuple(images)))
        assert term_size(out.term) == term_size(t.term)
        for sym in (F, G, C):
            assert count_symbol(out.term, sym) == count_symbol(t.term, sym)

    @given(terms_strategy(), st.permutations([1, 2, 3]))
    def test_permutation_preserves_linear_regular(self, term, images):
        t = in_context(term)
        sigma = Permutation(tuple(images))
        assert is_linear_regular(substitute_simple(t, sigma)) == is_linear_regular(t)

    @given(terms_strategy(), st.permutations([1, 2, 3]), st.permutations([1, 2, 3]))
    def test_composition(self, term, im1, im2):
        t = in_context(term)
        sigma = Permutation(tuple(im1))
        tau = Permutation(tuple(im2))
        once = substitute_simple(substitute_simple(t, sigma), tau)
        composed = Permutation(tuple(tau.apply(sigma.apply(i)) for i in (1, 2, 3)))
        assert once == substitute_simple(t, composed)


class TestCanonical:
    def test_bare_variable(self):
        assert canonical(x(3)) == (x(1), (3,))

    def test_ground_term(self):
        t = App(F, (App(C, ()),))
        out, order = canonical(t)
        assert out is t and order == ()

    def test_canonical_term_is_returned_as_it_is(self):
        t = m(x(1), m(x(2), x(3)))
        out, order = canonical(t)
        assert out is t and order == (1, 2, 3)

    def test_repeated_variables(self):
        # Fewer indices than the context: each variable is listed once.
        out, order = canonical(m(m(x(4), x(2)), x(4)))
        assert out == m(m(x(1), x(2)), x(1))
        assert order == (4, 2)

    @given(st.permutations([1, 2, 3]))
    def test_renaming_gives_its_image_tuple(self, images):
        t = m(App(F, (x(1),)), m(x(2), x(3)))
        u = substitute_simple(TermInContext(t, 3), Permutation(tuple(images)))
        assert canonical(u.term) == (t, tuple(images))

    @given(st.data())
    def test_canonical_form_is_t_exactly_for_renamings(self, data):
        # u has t's size and variables among 1..n: a renaming of t, t's
        # shape with any variables (repeats included), or any other shape.
        t = linearised(data.draw(terms_strategy(max_leaves=5)))
        n = t.max_var
        assume(n >= 2)
        tc = TermInContext(t, n)
        u = data.draw(
            st.one_of(
                st.permutations(range(1, n + 1)).map(
                    lambda images: substitute_simple(tc, Permutation(tuple(images))).term
                ),
                st.lists(st.integers(1, n), min_size=n, max_size=n).map(
                    lambda vs: substitute_terms(tc, [TermInContext(Var(v), n) for v in vs]).term
                ),
                terms_of_size(t.size, n),
            )
        )
        renamings = [s for s in Permutation.all_of(n) if substitute_simple(tc, s).term is u]
        out, order = canonical(u)
        assert (out is t) == bool(renamings)
        if renamings:
            assert [order] == [s.images for s in renamings]

    @given(terms_strategy())
    def test_renamings_share_one_canonical_form(self, term):
        out, order = canonical(term)
        assert canonical(out) == (out, tuple(range(1, len(order) + 1)))
        assert len(order) == len(set(var_occurrences(in_context(term))))
        for images in Permutation.all_of(3):
            renamed = substitute_simple(in_context(term), images).term
            assert canonical(renamed)[0] is out


class TestSubstituteTerms:
    def test_marked_chain_image(self):
        t = TermInContext(m(x(1), x(2)), 2)
        args = [
            TermInContext(chain(A, B, ALPHA, below=x(1)), 2),
            TermInContext(x(2), 2),
        ]
        out = substitute_terms(t, args)
        assert out == TermInContext(m(chain(A, B, ALPHA, below=x(1)), x(2)), 2)

    def test_variable_base_case(self):
        s = TermInContext(m(x(2), x(1)), 2)
        assert substitute_terms(TermInContext(x(1), 1), [s]) == s

    def test_swapping_substitution(self):
        t = TermInContext(m(x(2), x(1)), 2)
        args = [
            TermInContext(App(A, (x(1),)), 2),
            TermInContext(App(B, (x(2),)), 2),
        ]
        assert substitute_terms(t, args) == TermInContext(
            m(App(B, (x(2),)), App(A, (x(1),))), 2
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            substitute_terms(TermInContext(x(1), 1), [])

    def test_mismatched_arg_contexts_rejected(self):
        t = TermInContext(m(x(1), x(2)), 2)
        with pytest.raises(ValueError):
            substitute_terms(t, [TermInContext(x(1), 1), TermInContext(x(2), 2)])

    def test_explicit_context_must_agree(self):
        with pytest.raises(ValueError, match="context_len disagrees"):
            substitute_terms(TermInContext(x(1), 1), [TermInContext(x(1), 2)], context_len=3)

    def test_closed_term_needs_explicit_context(self):
        t = TermInContext(App(C, ()), 0)
        assert substitute_terms(t, [], context_len=2).context_len == 2

    @given(terms_strategy())
    def test_identity_substitution(self, term):
        t = in_context(term)
        assert substitute_terms(t, [TermInContext(x(i), 3) for i in (1, 2, 3)]) == t


class TestPositions:
    @given(terms_strategy())
    def test_subterm_replace_roundtrip(self, term):
        for pos, sub in naive_positions(term):
            assert subterm_at(term, pos) == sub
            assert replace_at(term, pos, sub) == term

    @given(terms_strategy(), terms_strategy(), st.integers(0, 2**20))
    def test_replace_matches_naive(self, term, replacement, pick):
        places = naive_positions(term)
        pos, _ = places[pick % len(places)]
        assert replace_at(term, pos, replacement) is naive_replace(term, pos, replacement)

    def test_replace_deep_spine(self):
        deep = x(1)
        for _ in range(5000):
            deep = App(F, (deep,))
        pos = (0,) * 5000
        assert subterm_at(replace_at(deep, pos, App(C, ())), pos) == App(C, ())

    def test_bad_position_rejected(self):
        with pytest.raises(ValueError):
            subterm_at(x(1), (0,))


class TestPermutations:
    def test_all_of_lexicographic(self):
        images = [p.images for p in Permutation.all_of(3)]
        assert images == sorted(images)
        assert len(images) == 6

    def test_transposition(self):
        assert Permutation.transposition(3, 1, 3).images == (3, 2, 1)

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))


class TestConcreteSyntax:
    def test_basic_parse(self):
        assert parse_term("g(x1,f(x2))", SYMBOLS) == App(G, (x(1), App(F, (x(2),))))

    def test_whitespace_insignificant(self):
        assert parse_term(" g( x1 , x2 ) ", SYMBOLS) == App(G, (x(1), x(2)))

    def test_nullary_written_with_parens(self):
        assert parse_term("c()", SYMBOLS) == App(C, ())
        with pytest.raises(ParseError):
            parse_term("c", SYMBOLS)

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_term("h(x1)", SYMBOLS)

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_term("g(x1)", SYMBOLS)

    def test_variables_take_no_arguments(self):
        with pytest.raises(ParseError):
            parse_term("x1(x2)", SYMBOLS)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_term("x1 x2", SYMBOLS)

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("g(,x1)", "expected a term, got ','", 3),
            ("g(x1 x2)", "expected ',' or '\\)' in argument list", 6),
        ],
    )
    def test_malformed_argument_list(self, text, message, column):
        with pytest.raises(ParseError, match=message) as e:
            parse_term(text, SYMBOLS)
        assert e.value.column == column

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse_term("g(x1, ?)", SYMBOLS)
        assert e.value.column == 7

    @given(terms_strategy())
    def test_render_parse_roundtrip(self, term):
        assert parse_term(render_term(term), SYMBOLS) == term


class TestHashConsing:
    def test_equal_constructions_are_one_object(self):
        assert Var(3) is Var(3)
        assert Symbol("g", 2) is G
        assert m(x(1), App(F, (x(2),))) is m(x(1), App(F, [x(2)]))
        assert parse_term("g(x1,f(x2))", SYMBOLS) is App(G, (x(1), App(F, (x(2),))))

    def test_term_in_context_compares_term_and_context(self):
        t = TermInContext(m(x(1), x(2)), 2)
        assert t == TermInContext(m(x(1), x(2)), 2)
        assert hash(t) == hash(TermInContext(m(x(1), x(2)), 2))
        assert t != TermInContext(m(x(1), x(2)), 3)
        assert t != m(x(1), x(2))

    def test_symbols_shared_across_parsed_theories(self):
        text = "symbol h 2\naxiom [2] h(x1,x2) = h(x2,x1)\n"
        one, two = parse_theory(text), parse_theory(text)
        assert one.signature[0] is two.signature[0]
        assert one.axioms[0].lhs.term is two.axioms[0].lhs.term

    def test_size_and_max_var_cached(self):
        t = m(App(F, (x(4),)), App(C, ()))
        assert (t.size, t.max_var) == (4, 4)
        assert term_size(t) == 4
        assert App(C, ()).max_var == 0

    def test_dead_nodes_leave_the_table(self):
        th = parse_theory(
            "symbol shrink 2\n"
            "axiom [3] shrink(shrink(x1,x2),x3) = shrink(x1,shrink(x2,x3))\n"
            "axiom [2] shrink(x1,x2) = shrink(x2,x1)\n"
        )
        table = th.signature[0]._apps
        gc.collect()
        before = len(table)
        start = TermInContext(parse_term("shrink(shrink(shrink(x1,x2),x3),x4)", th.symbols_by_name()), 4)
        cl = bounded_closure(th, start, 20)
        assert len(cl.entries) == 120
        assert len(table) > before + 100
        del cl, start
        gc.collect()
        assert len(table) == before
        # Nor does the compiled theory keep nodes alive across searches: a
        # proof and a rigidity search, twice on the same theory, leave the
        # table as they found it.
        goal = parse_equation("[4] shrink(shrink(x1,x2),shrink(x3,x4)) = shrink(x4,shrink(x3,shrink(x2,x1)))", th)
        with_goal = len(table)
        for _ in range(2):
            out = prove_bounded(th, goal, 8)
            assert out.found
            found = search_flabby(th, max_size=7, max_context=3, depth=6)
            assert found.found
            del out, found
            gc.collect()
            assert len(table) == with_goal
        del goal
        gc.collect()
        assert len(table) == before

    def test_copy_and_pickle_return_the_interned_node(self):
        t = m(App(F, (x(1),)), x(2))
        for node in (t, x(1), G):
            assert copy.copy(node) is node
            assert copy.deepcopy(node) is node
            assert pickle.loads(pickle.dumps(node)) is node
        tc = TermInContext(t, 2)
        assert pickle.loads(pickle.dumps(tc)) == tc
        assert copy.deepcopy(tc).term is t

    @pytest.mark.parametrize(
        "node, field",
        [
            (Symbol("f", 1), "name"),
            (Var(1), "index"),
            (App(F, (Var(1),)), "args"),
            (App(F, (Var(1),)), "size"),
            (TermInContext(Var(1), 1), "context_len"),
        ],
    )
    def test_fields_are_read_only(self, node, field):
        with pytest.raises(AttributeError):
            setattr(node, field, getattr(node, field))
        with pytest.raises(AttributeError):
            delattr(node, field)

    def test_deep_chain_needs_no_recursion(self):
        deep = x(1)
        for _ in range(5000):
            deep = App(F, (deep,))
        again = x(1)
        for _ in range(5000):
            again = App(F, (again,))
        assert deep == again and deep is again
        assert hash(deep) == hash(again)
        assert term_size(deep) == 5001
        assert TermInContext(deep, 1) == TermInContext(again, 1)

    @given(terms_strategy(), terms_strategy())
    def test_identity_agrees_with_rendering(self, s, t):
        assert (s is t) == (render_term(s) == render_term(t))
        assert parse_term(render_term(s), SYMBOLS) is s
