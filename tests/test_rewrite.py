import copy
import gc
import pickle
import random
import re
import sys
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidlab.rewrite as rewrite
from oracles import (
    identity_interpretation,
    naive_closure,
    naive_instantiate,
    naive_match,
    naive_one_step,
    naive_shortest,
    naive_size,
    naive_successors,
    random_term,
    random_walk,
    rebuild_up,
    reference_expand,
    reverse_derivation,
    walk,
)
from rigidlab.interp import probe_conservativity
from rigidlab.normalizer import WordOracle
from rigidlab.reduction import (
    WordDerivation,
    WordOutcome,
    WordStep,
    _word_step,
    instance,
    word_bfs,
    word_semidecide,
)
from rigidlab.rewrite import (
    BOUNDS,
    DEFAULT_NODE_BUDGET,
    DEFAULT_SLACK,
    EXHAUSTED,
    FOUND,
    LR,
    RL,
    Closure,
    Derivation,
    ProofOutcome,
    RewriteError,
    RewriteStep,
    SearchStats,
    apply_step,
    bounded_closure,
    derivation_from_doc,
    derivation_to_doc,
    flip_step,
    intermediates,
    prove_bounded,
    replay,
    successors,
    symbol_census,
)
from rigidlab.rigidity import search_flabby, verify_report
from rigidlab.terms import (
    App,
    Symbol,
    _Ref,
    TermInContext,
    Var,
    parse_term,
    render_term,
    term_size,
    var_occurrences,
)
from rigidlab.theory import Equation, Theory, parse_equation, parse_theory

SEED = parse_theory(
    "symbol l 2\nsymbol r 2\nsymbol m 2\naxiom [2] l(x1,x2) = r(x2,x1)\n"
)
L, R, M = (SEED.symbol(n) for n in "lrm")

INVOLUTION = parse_theory("symbol g 1\naxiom [1] g(g(x1)) = x1\n")
G = INVOLUTION.symbol("g")

COMPILED_LIKE = parse_theory(
    "symbol a 1\nsymbol b 1\naxiom [1] a(b(x1)) = b(a(x1))\n"
)
A, B = COMPILED_LIKE.symbol("a"), COMPILED_LIKE.symbol("b")


def x(i):
    return Var(i)


def sub(n, *terms):
    return tuple(tic(t, n) for t in terms)


def tic(term, n):
    return TermInContext(term, n)


class TestApplyStep:
    def test_root_rewrite(self):
        t = tic(App(L, (x(1), x(2))), 2)
        s = RewriteStep(0, LR, (), sub(2, x(1), x(2)))
        assert apply_step(t, SEED, s) == tic(App(R, (x(2), x(1))), 2)

    def test_rewrite_below_root(self):
        t = tic(App(M, (App(L, (x(1), x(2))), x(3))), 3)
        s = RewriteStep(0, LR, (0,), sub(3, x(1), x(2)))
        expected = tic(App(M, (App(R, (x(2), x(1))), x(3))), 3)
        assert apply_step(t, SEED, s) == expected

    def test_mismatched_pattern_raises(self):
        t = tic(App(R, (x(1), x(2))), 2)
        s = RewriteStep(0, LR, (), sub(2, x(1), x(2)))
        with pytest.raises(RewriteError):
            apply_step(t, SEED, s)

    def test_bad_position_raises(self):
        t = tic(x(1), 1)
        s = RewriteStep(0, LR, (0,), sub(1, x(1), x(1)))
        with pytest.raises(RewriteError):
            apply_step(t, SEED, s)

    def test_bad_axiom_index_raises(self):
        t = tic(App(L, (x(1), x(2))), 2)
        s = RewriteStep(5, LR, (), sub(2, x(1), x(2)))
        with pytest.raises(RewriteError):
            apply_step(t, SEED, s)

    def test_substitution_of_wrong_length_raises(self):
        t = tic(App(L, (x(1), x(2))), 2)
        s = RewriteStep(0, LR, (), sub(2, x(1)))
        with pytest.raises(RewriteError, match="substitution has 1 entries, axiom context is 2"):
            apply_step(t, SEED, s)

    def test_substitution_in_another_context_raises(self):
        t = tic(App(L, (x(1), x(2))), 2)
        s = RewriteStep(0, LR, (), sub(3, x(1), x(2)))
        with pytest.raises(RewriteError, match="do not live in the rewritten term's context"):
            apply_step(t, SEED, s)


class TestSuccessors:
    def test_seed_root(self):
        t = tic(App(L, (x(1), x(2))), 2)
        out = successors(t, SEED, 5)
        assert len(out) == 1
        got, s = out[0]
        assert got == tic(App(R, (x(2), x(1))), 2)
        assert s.axiom_index == 0 and s.direction == LR and s.position == ()

    def test_variable_has_none(self):
        assert successors(tic(x(1), 1), SEED, 5) == []

    def test_unary_chain(self):
        t = tic(App(A, (App(B, (x(1),)),)), 1)
        out = successors(t, COMPILED_LIKE, 5)
        assert [got for got, _ in out] == [tic(App(B, (App(A, (x(1),)),)), 1)]

    def test_self_loop_keeps_its_witness(self):
        # successors counts nothing as reached beforehand, so a step that
        # returns to t lists t itself, with that first witnessing step.
        th = parse_theory("symbol c 0\nsymbol m 2\naxiom [2] m(x1,x2) = m(x2,x1)\n")
        t = tic(parse_term("m(c(),c())", th.symbols_by_name()), 0)
        [(nt, step)] = successors(t, th, term_size(t.term))
        c = tic(t.term.args[0], 0)
        assert nt == t and step == RewriteStep(0, LR, (), (c, c))
        assert apply_step(t, th, step) == t

    def test_cap_below_term_size_rejected(self):
        t = tic(App(L, (x(1), x(2))), 2)
        with pytest.raises(ValueError):
            successors(t, SEED, 2)

    def test_matches_naive_on_samples(self):
        rng = random.Random(7)
        for _ in range(60):
            t = tic(random_term(rng, SEED, 9, 3), 3)
            cap = term_size(t.term) + 4
            got = {u for u, _ in successors(t, SEED, cap)}
            want = {u for u in naive_one_step(t, SEED) if term_size(u.term) <= cap}
            assert got == want

    def test_matches_naive_unary_theory(self):
        rng = random.Random(11)
        for _ in range(60):
            t = tic(random_term(rng, COMPILED_LIKE, 7, 2), 2)
            cap = term_size(t.term) + 4
            got = {u for u, _ in successors(t, COMPILED_LIKE, cap)}
            want = {
                u
                for u in naive_one_step(t, COMPILED_LIKE)
                if term_size(u.term) <= cap
            }
            assert got == want


class TestProveBounded:
    def test_axiom_one_step(self):
        goal = Equation(tic(App(L, (x(1), x(2))), 2), tic(App(R, (x(2), x(1))), 2))
        out = prove_bounded(SEED, goal, 1)
        assert out.status == FOUND
        assert len(out.derivation.steps) == 1
        assert replay(out.derivation, SEED)

    def test_reflexive_at_depth_zero(self):
        t = tic(App(M, (x(1), x(2))), 2)
        out = prove_bounded(SEED, Equation(t, t), 0)
        assert out.status == FOUND
        assert out.derivation.steps == ()

    def test_involution_shortcut(self):
        lhs = tic(App(G, (App(G, (App(G, (x(1),)),)),)), 1)
        rhs = tic(App(G, (x(1),)), 1)
        out = prove_bounded(INVOLUTION, Equation(lhs, rhs), 3)
        assert out.status == FOUND
        assert len(out.derivation.steps) == naive_shortest(INVOLUTION, lhs, rhs, 3, 12)

    def test_unprovable_certified(self):
        goal = Equation(tic(App(L, (x(1), x(2))), 2), tic(App(R, (x(1), x(2))), 2))
        out = prove_bounded(SEED, goal, 6)
        assert out.status == EXHAUSTED
        assert out.certified

    def test_node_budget_hits_bounds(self):
        lhs = tic(App(A, (App(B, (App(A, (App(B, (x(1),)),)),)),)), 1)
        rhs = tic(App(B, (App(B, (App(A, (App(A, (x(1),)),)),)),)), 1)
        out = prove_bounded(COMPILED_LIKE, Equation(lhs, rhs), 4, node_budget=2)
        assert out.status == BOUNDS
        assert out.reason == "nodes"
        assert not out.certified

    def test_depth_bound_reported(self):
        lhs = tic(App(A, (App(A, (App(B, (x(1),)),)),)), 1)
        rhs = tic(App(B, (App(A, (App(A, (x(1),)),)),)), 1)
        out = prove_bounded(COMPILED_LIKE, Equation(lhs, rhs), 1)
        assert out.status in (BOUNDS, FOUND)
        if out.status == BOUNDS:
            assert out.reason == "depth"

    def test_lengths_match_naive_shortest(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(40):
            start = tic(random_term(rng, COMPILED_LIKE, 7, 1), 1)
            cap = term_size(start.term) + 6
            close = naive_closure(start, COMPILED_LIKE, 3, cap)
            for target, dist in close.items():
                out = prove_bounded(
                    COMPILED_LIKE, Equation(start, target), 3,
                    slack=cap - max(term_size(start.term), term_size(target.term)),
                )
                assert out.status == FOUND
                assert len(out.derivation.steps) == dist
                checked += 1
        assert checked >= 40

    def test_deterministic(self):
        lhs = tic(App(A, (App(B, (App(B, (x(1),)),)),)), 1)
        rhs = tic(App(B, (App(B, (App(A, (x(1),)),)),)), 1)
        first = prove_bounded(COMPILED_LIKE, Equation(lhs, rhs), 4)
        second = prove_bounded(COMPILED_LIKE, Equation(lhs, rhs), 4)
        assert first.derivation == second.derivation

    def test_derivation_endpoints(self):
        lhs = tic(App(A, (App(B, (x(1),)),)), 1)
        rhs = tic(App(B, (App(A, (x(1),)),)), 1)
        out = prove_bounded(COMPILED_LIKE, Equation(lhs, rhs), 2)
        assert out.derivation.start == lhs
        assert out.derivation.end == rhs


class TestReplay:
    def _sample(self):
        lhs = tic(App(M, (App(L, (x(1), x(2))), x(3))), 3)
        s = RewriteStep(0, LR, (0,), sub(3, x(1), x(2)))
        end = apply_step(lhs, SEED, s)
        return Derivation(lhs, (s,), end)

    def test_valid(self):
        assert replay(self._sample(), SEED)

    def test_tampered_end_fails(self):
        d = self._sample()
        bad = Derivation(d.start, d.steps, d.start)
        assert not replay(bad, SEED)

    def test_reverse_replays(self):
        d = self._sample()
        rev = reverse_derivation(d)
        assert rev.start == d.end and rev.end == d.start
        assert replay(rev, SEED)

    def test_flip_step_inverts_direction(self):
        d = self._sample()
        s = flip_step(d.steps[0])
        assert s.direction != d.steps[0].direction
        assert apply_step(d.end, SEED, s) == d.start

    def test_intermediates(self):
        d = self._sample()
        seq = intermediates(d, SEED)
        assert seq[0] == d.start and seq[-1] == d.end
        assert len(seq) == len(d.steps) + 1

    def test_replay_compiles_no_code(self, monkeypatch):
        ac_text = "symbol m 2\naxiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\naxiom [2] m(x1,x2) = m(x2,x1)\n"
        comm_text = "symbol m 2\naxiom [2] m(x1,x2) = m(x2,x1)\n"
        ac = parse_theory(ac_text)
        found = prove_bounded(ac, parse_equation("[3] m(m(x1,x2),x3) = m(x3,m(x2,x1))", ac), 4)
        flabby = search_flabby(parse_theory(comm_text), max_size=3, max_context=2, depth=2)
        assert found.status == FOUND and flabby.status == FOUND

        def refuse(sides):
            raise AssertionError("replay compiled an expansion function")

        monkeypatch.setattr(rewrite, "_expand_code", refuse)
        assert replay(found.derivation, parse_theory(ac_text))
        assert symbol_census(found.derivation, parse_theory(ac_text), "m") == [2, 2, 2]
        assert verify_report(flabby.report, parse_theory(comm_text))


class TestSymbolCensus:
    def test_constant_in_seed(self):
        lhs = tic(App(M, (App(L, (x(1), x(2))), x(3))), 3)
        s = RewriteStep(0, LR, (0,), sub(3, x(1), x(2)))
        d = Derivation(lhs, (s,), apply_step(lhs, SEED, s))
        assert symbol_census(d, SEED, "m") == [1, 1]

    def test_nonconstant_when_axiom_duplicates(self):
        th = parse_theory("symbol a 1\nsymbol b 1\naxiom [1] a(x1) = a(b(x1))\n")
        t = tic(App(th.symbol("a"), (x(1),)), 1)
        s = RewriteStep(0, LR, (), sub(1, x(1)))
        d = Derivation(t, (s,), apply_step(t, th, s))
        assert symbol_census(d, th, "b") == [0, 1]
        assert symbol_census(d, th, "a") == [1, 1]


class TestDerivationDocs:
    def test_roundtrip(self):
        lhs = tic(App(M, (App(L, (x(1), x(2))), x(3))), 3)
        s = RewriteStep(0, LR, (0,), sub(3, x(1), x(2)))
        d = Derivation(lhs, (s,), apply_step(lhs, SEED, s))
        doc = derivation_to_doc(d)
        assert derivation_from_doc(doc, SEED) == d

    def test_doc_terms_are_strings(self):
        lhs = tic(App(L, (x(1), x(2))), 2)
        s = RewriteStep(0, LR, (), sub(2, x(1), x(2)))
        d = Derivation(lhs, (s,), apply_step(lhs, SEED, s))
        doc = derivation_to_doc(d)
        assert doc["start"] == "l(x1,x2)"
        assert doc["steps"][0]["position"] == []


class TestBoundedClosure:
    def test_seed_two_element_class(self):
        start = tic(App(L, (x(1), x(2))), 2)
        close = bounded_closure(SEED, start, 4)
        members = set(close.entries)
        assert members == {start, tic(App(R, (x(2), x(1))), 2)}
        assert close.exhausted
        assert not close.cap_hit

    def test_distances_and_derivations(self):
        start = tic(App(L, (x(1), x(2))), 2)
        close = bounded_closure(SEED, start, 4)
        other = tic(App(R, (x(2), x(1))), 2)
        assert close.distance(start) == 0
        assert close.distance(other) == 1
        d = close.derivation_to(other)
        assert replay(d, SEED) and d.start == start and d.end == other

    def test_matches_naive(self):
        rng = random.Random(3)
        for _ in range(25):
            start = tic(random_term(rng, COMPILED_LIKE, 7, 1), 1)
            cap = term_size(start.term) + 6
            close = bounded_closure(COMPILED_LIKE, start, 3, size_cap=cap)
            want = naive_closure(start, COMPILED_LIKE, 3, cap)
            assert {t: close.distance(t) for t in close.entries} == want

    def test_cap_below_start_size_rejected(self):
        # A cap below the start's size is refused, as successors refuses
        # it, not raised to that size: on {comm} the size-5 start's class
        # would come back complete, with every entry over the cap.
        th = parse_theory("symbol m 2\naxiom [2] m(x1,x2) = m(x2,x1)\n")
        start = tic(parse_term("m(m(x1,x2),x3)", th.symbols_by_name()), 3)
        with pytest.raises(ValueError, match="size cap is smaller than the term itself"):
            bounded_closure(th, start, 4, size_cap=2)
        close = bounded_closure(th, start, 4, size_cap=5)
        assert close.complete and len(close.entries) == 4


AC = parse_theory(
    "symbol m 2\naxiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\naxiom [2] m(x1,x2) = m(x2,x1)\n"
)
AB_COMMUTE = instance(["a", "b"], [("ab", "ba")], ("ab", "ba"))


# A negative slack puts the cap below the goal's own size.  The expansion
# function assumes the term it expands lies within the cap, so such a
# search could return a derivation whose terms break the recorded cap.
@pytest.mark.parametrize(
    "search",
    [
        lambda: prove_bounded(
            AC, parse_equation("[4] m(m(m(x1,x2),x3),x4) = m(x4,m(x3,m(x2,x1)))", AC), 8, slack=-1
        ),
        lambda: word_bfs(AB_COMMUTE, "aabb", "bbaa", depth=8, slack=-1),
        lambda: word_semidecide(AB_COMMUTE, "aabb", "bbaa", depth=8, slack=-1),
        lambda: WordOracle(AB_COMMUTE, depth=8, slack=-1).equiv("aabb", "bbaa"),
        lambda: WordOracle(AB_COMMUTE, depth=3, slack=-1),
        lambda: search_flabby(AC, max_size=5, max_context=3, depth=4, slack=-1),
        lambda: probe_conservativity(identity_interpretation(AC), term_size_bound=3, depth=4, slack=-1),
    ],
    ids=[
        "prove_bounded", "word_bfs", "word_semidecide", "WordOracle", "WordOracle_built",
        "search_flabby", "probe_conservativity",
    ],
)
def test_negative_slack_rejected(search):
    with pytest.raises(ValueError, match="slack must not be negative"):
        search()


class TestDerivationsOnDemand:
    """A closure records how each entry was reached, and builds a step only
    when a derivation reads it, once per entry."""

    def comb(self):
        start = tic(parse_term("m(m(m(m(x1,x2),x3),x4),x5)", AC.symbols_by_name()), 5)
        return bounded_closure(AC, start, 20)

    def siblings(self, close):
        """The first two children of one of the deepest parents that has two."""
        children: dict = {}
        for u in close.entries:
            if u != close.start:
                children.setdefault(close.parent(u), []).append(u)
        return max((kids for kids in children.values() if len(kids) > 1), key=lambda k: close.distance(k[0]))[:2]

    def test_steps_are_built_on_read_and_kept(self, monkeypatch):
        made = []
        check = RewriteStep.__post_init__

        def counted(step):
            made.append(step)
            check(step)

        monkeypatch.setattr(RewriteStep, "__post_init__", counted)
        close = self.comb()
        assert close.complete and len(close.entries) == 1680 and made == []
        t, sibling = self.siblings(close)
        d = close.distance(t)
        assert d >= 3
        deriv = close.derivation_to(t)
        assert len(made) == len(deriv.steps) == d and replay(deriv, AC)
        assert close.derivation_to(t).steps == deriv.steps and len(made) == d
        # A sibling shares every step but its last with t.
        other = close.derivation_to(sibling)
        assert len(made) == d + 1 and replay(other, AC)
        assert all(a is b for a, b in zip(other.steps[:-1], deriv.steps[:-1], strict=True))

    def test_corrupted_record_is_an_internal_error(self):
        # Two children of one parent with their records' (side, walk index)
        # swapped: each record now rebuilds its sibling, so reading either
        # raises rather than returning a derivation that does not replay.
        close = self.comb()
        t, sibling = self.siblings(close)
        parent = close.parent(t)
        good = close.derivation_to(close.parent(parent))
        a, b = close.entries[t], close.entries[sibling]
        close.entries[t], close.entries[sibling] = a[:2] + b[2:], b[:2] + a[2:]
        for u in (t, sibling):
            with pytest.raises(RuntimeError, match="internal error"):
                close.derivation_to(u)
        # A walk index past the parent's last subterm is no record either.
        close.entries[t] = a[:3] + (term_size(parent.term),)
        with pytest.raises(RuntimeError, match="internal error"):
            close.step(t)
        assert close.derivation_to(close.parent(parent)) == good

    def test_parent_must_agree_off_the_path(self):
        # An entry's record names a parent that has the matched subterm at
        # the step's position but differs beside it: the side still gives
        # the entry's subterm there, yet the parent is no one-step source.
        close = self.comb()
        t = next(u for u in close.entries if u != close.start and close.step(u).position[:1] == (0,))
        parent = close.parent(t).term
        stranger = tic(App(parent.sym, (parent.args[0], App(parent.sym, parent.args[1:] * 2))), 5)
        close.entries[t] = (close.distance(t), stranger) + close.entries[t][2:]
        close.steps.clear()
        with pytest.raises(RuntimeError, match="internal error"):
            close.step(t)

    def test_walk_index_past_a_constant_is_an_internal_error(self):
        # A descent to a walk index past the parent's last subterm would end
        # at the constant e(), which has no argument to hold it.
        th = parse_theory("symbol e 0\nsymbol m 2\naxiom [2] m(x1,x2) = m(x2,x1)\n")
        t = tic(parse_term("m(x1,e())", th.symbols_by_name()), 1)
        with pytest.raises(RuntimeError, match="internal error"):
            rewrite._rebuild(t, t, rewrite._relation(th).sides[0], 3)

    @pytest.mark.parametrize(
        "text, start, entries, sides, depths",
        [
            (
                "symbol u 1\nsymbol m 2\n"
                "axiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\naxiom [2] m(x1,x2) = m(x2,x1)\n",
                "u(m(m(x1,x2),x3))",
                12,
                3,
                {1, 2},
            ),
            ("symbol l 2\nsymbol r 2\nsymbol m 2\naxiom [2] l(x1,x2) = r(x2,x1)\n", "m(l(x1,x2),l(x3,x4))", 4, 2, {1}),
            (
                "symbol a 1\nsymbol b 1\nsymbol alpha 1\nsymbol m 2\n"
                "axiom [1] a(b(x1)) = b(a(x1))\n"
                "axiom [2] m(a(b(alpha(x1))),x2) = m(b(a(alpha(x2))),x1)\n",
                "m(x1,a(b(a(b(alpha(x2))))))",
                6,
                4,
                {1, 2, 3},
            ),
        ],
        ids=["assoc-comm", "seed", "compiled-ab=ba"],
    )
    def test_forged_records_are_internal_errors(self, text, start, entries, sides, depths):
        # Every entry of the closure in turn gets forged records: its walk
        # index plus one, each other side, each other entry as parent.  No
        # such record joins its parent to the entry here, so each raises,
        # and the entry's true record still rebuilds its step afterwards.
        # In the seed theory a forged side has the true side's shape with
        # other symbols.  In the compiled {ab=ba} yes theory the steps lie
        # below unary nodes, at chain depths 1 to 3 under the root m; depths
        # are the lengths of the steps' positions.
        th = parse_theory(text)
        term = parse_term(start, th.symbols_by_name())
        close = bounded_closure(th, tic(term, term.max_var), 10)
        kernel_sides = rewrite._relation(th).sides
        assert close.complete and len(close.entries) == entries and len(kernel_sides) == sides
        for t in list(close.entries)[1:]:
            d, parent, side, w = record = close.entries[t]
            forged = [(d, parent, side, w + 1)]
            forged += [(d, parent, other, w) for other in kernel_sides if other is not side]
            forged += [(d, other, side, w) for other in close.entries if other not in (parent, t)]
            assert len(forged) == sides + entries - 2
            for entry in forged:
                close.entries[t] = entry
                close.steps.clear()
                with pytest.raises(RuntimeError, match="internal error"):
                    close.step(t)
            close.entries[t] = record
            close.steps.clear()
            assert apply_step(parent, th, close.step(t)) == t
        assert {len(close.step(t).position) for t in list(close.entries)[1:]} == depths

    def test_corrupted_word_record_is_an_internal_error(self):
        side = (0, LR, ("a", "b"), ("b", "a"))
        assert _word_step(("a", "a", "b"), ("a", "b", "a"), side, 1) == WordStep(0, LR, 1)
        # The side does not match at the offset; it matches but gives another word.
        for parent, child, offset in ((("a", "a", "b"), ("a", "b", "a"), 0), (("a", "b"), ("a", "b"), 0)):
            with pytest.raises(RuntimeError, match="internal error"):
                _word_step(parent, child, side, offset)


def reached_matches_entries(cl):
    """A term record's reached keys are exactly its entries' bare terms, in
    the same order."""
    return list(cl.reached) == [u.term for u in cl.entries]


class TestReachedSet:
    def comb(self, n):
        text = "x1"
        for i in range(2, n + 1):
            text = f"m({text},x{i})"
        return tic(parse_term(text, AC.symbols_by_name()), n)

    def test_after_closure(self):
        cl = bounded_closure(AC, self.comb(4), 20)
        assert cl.complete and len(cl.entries) == 120
        assert reached_matches_entries(cl)

    def test_after_budget_cut_in_mid_level(self):
        # Level 1 of the 4-variable comb has 5 terms; a budget of 4 cuts
        # level 2 after its third term.
        cl = bounded_closure(AC, self.comb(4), 20, node_budget=4)
        assert cl.budget_hit and cl.expanded == 4
        assert cl.depth_reached == 1 and len(cl.frontier) == 5 and len(cl.entries) > 6
        assert reached_matches_entries(cl)

    @pytest.mark.parametrize(
        "theory, goal, status",
        [
            (AC, "[4] m(m(m(x1,x2),x3),x4) = m(x4,m(x3,m(x2,x1)))", FOUND),
            (AC, "[3] m(m(x1,x2),x3) = m(m(x1,x2),x1)", EXHAUSTED),
            (
                parse_theory("symbol u 1\nsymbol c 0\naxiom [1] x1 = u(c())\n"),
                "[1] u(x1) = u(u(x1))",
                BOUNDS,
            ),
        ],
    )
    def test_after_proof(self, monkeypatch, theory, goal, status):
        # Both records of the search, also the right one that a one-way
        # theory never grows.
        made = []
        of = rewrite.Closure.of.__func__

        def recorded(cls, *args):
            made.append(of(cls, *args))
            return made[-1]

        monkeypatch.setattr(rewrite.Closure, "of", classmethod(recorded))
        out = prove_bounded(theory, parse_equation(goal, theory), 6)
        assert out.status == status and len(made) == 2
        assert all(reached_matches_entries(cl) for cl in made)


# Axioms the successor kernel must treat like the oracle: a variable-rooted
# side, an orientation whose source cannot bind its context (x1 alone in
# context 2), a non-linear side, a ground axiom on a nullary symbol,
# associativity and commutativity, and depth-3 sides over an arity-3 symbol
# whose repeated variable sits at different depths.
KERNEL_POOL = parse_theory(
    "symbol c 0\nsymbol u 1\nsymbol m 2\nsymbol f 3\n"
    "axiom [1] x1 = u(x1)\n"
    "axiom [2] x1 = m(x1,x2)\n"
    "axiom [1] m(x1,x1) = u(x1)\n"
    "axiom [0] u(c()) = c()\n"
    "axiom [2] m(x1,x2) = m(x2,x1)\n"
    "axiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\n"
    "axiom [2] f(x1,u(x2),m(x2,u(x1))) = m(x1,x2)\n"
    "axiom [1] m(u(u(x1)),x1) = f(x1,c(),x1)\n"
)


@st.composite
def kernel_case(draw):
    """A theory drawn from KERNEL_POOL plus random axioms, a term and a cap."""
    rng = random.Random(draw(st.integers(0, 2**20)))
    picks = draw(st.lists(st.sampled_from(KERNEL_POOL.axioms), max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        k = rng.randint(0, 2)
        lhs, rhs = (random_term(rng, KERNEL_POOL, rng.randint(1, 7), k) for _ in "lr")
        picks.append(Equation(tic(lhs, k), tic(rhs, k)))
    th = Theory(KERNEL_POOL.signature, tuple(picks))
    n = rng.randint(0, 2)
    t = tic(random_term(rng, KERNEL_POOL, rng.randint(1, 7), n), n)
    return th, t, term_size(t.term) + rng.randint(0, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**20))
def test_render_parse_round_trip(seed):
    # Over the kernel pool's symbols of every arity, nullary ones included.
    rng = random.Random(seed)
    symbols = KERNEL_POOL.symbols_by_name()
    for _ in range(10):
        t = random_term(rng, KERNEL_POOL, rng.randint(1, 15), rng.randint(0, 3))
        assert parse_term(render_term(t), symbols) is t
    for text in ("c()", "u(c())", "m(c(),x2)", "f(c(),u(x1),m(x3,c()))"):
        assert render_term(parse_term(text, symbols)) == text


class TestSuccessorKernel:
    def check_against_oracle(self, th, t, cap):
        got = successors(t, th, cap)
        want, cap_hit = naive_successors(t, th, cap)
        assert [u for u, _ in got] == [u for u, _ in want]
        for (_, step), (_, (ai, direction, position, subst)) in zip(got, want):
            assert (step.axiom_index, step.direction, step.position) == (ai, direction, position)
            assert all(s.context_len == t.context_len for s in step.subst)
            assert tuple(s.term for s in step.subst) == subst
        assert bounded_closure(th, t, 1, size_cap=cap).cap_hit == cap_hit

    def test_whole_pool(self):
        rng = random.Random(5)
        for _ in range(40):
            t = tic(random_term(rng, KERNEL_POOL, 8, 2), 2)
            self.check_against_oracle(KERNEL_POOL, t, term_size(t.term) + 2)

    @pytest.mark.parametrize(
        "axioms, sides, terms",
        [
            ("axiom [2] m(x1,x2) = m(x2,x1)\n", 1, [(3, "m(m(x1,x2),x3)"), (1, "m(x1,x1)")]),
            (
                "axiom [3] f(x1,x2,x3) = f(x3,x2,x1)\n",
                1,
                [(3, "f(x1,f(x2,x3,x1),x3)"), (2, "m(f(x1,x2,x2),x1)")],
            ),
            (
                "axiom [2] m(x1,x2) = m(x2,x1)\naxiom [2] m(x2,x1) = m(x1,x2)\n",
                1,
                [(3, "m(m(x1,x2),x3)"), (2, "u(m(x2,x1))")],
            ),
            (
                "axiom [1] m(x1,x1) = u(x1)\naxiom [1] m(x1,x1) = u(x1)\n",
                2,
                [(2, "m(u(x1),m(x2,x2))"), (1, "u(u(x1))"), (2, "m(m(x1,x1),m(x1,x1))")],
            ),
        ],
    )
    def test_renamed_orientations(self, axioms, sides, terms):
        # The kernel expands one orientation per renaming orbit; results,
        # first witnesses and the cap flag still match the oracle, which
        # tries every orientation.
        th = parse_theory("symbol u 1\nsymbol m 2\nsymbol f 3\n" + axioms)
        assert len(rewrite._relation(th).sides) == sides
        symbols = th.symbols_by_name()
        for n, text in terms:
            t = tic(parse_term(text, symbols), n)
            for cap in range(term_size(t.term), term_size(t.term) + 4):
                self.check_against_oracle(th, t, cap)

    def test_ac_closure_result_count(self):
        # comm R->L renames comm L->R, so each expanded term of the AC left
        # comb has 7 moves at n = 5, not 11.  Every move has an inverse,
        # and back-move bits build each edge once, from the end expanded
        # first: 5,880 results, half the 11,760 moves.  The expansion
        # function reads each expanded term's bits once and looks up each
        # result it builds once, so a dict that counts its get calls counts
        # the results and the expanded terms; it is this test's own record.
        class Counted(dict):
            tests = 0

            def get(self, *args):
                self.tests += 1
                return super().get(*args)

        ac = parse_theory(
            "symbol m 2\naxiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\naxiom [2] m(x1,x2) = m(x2,x1)\n"
        )
        start = tic(parse_term("m(m(m(m(x1,x2),x3),x4),x5)", ac.symbols_by_name()), 5)
        close = Closure.of(start, start.term)
        close.reached = built = Counted(close.reached)
        expand = partial(rewrite._relation(ac).expand, term_size(start.term) + DEFAULT_SLACK)
        while close.frontier:
            close.grow(expand, DEFAULT_NODE_BUDGET)
        assert close.complete and len(close.entries) == 1680
        assert (close.expanded, built.tests - close.expanded) == (1680, 5880)

    def test_deep_term(self):
        # Matches at every depth of a 300-deep term, the deepest at its
        # bottom: results, positions and substitutions agree with the oracle.
        th = parse_theory(
            "symbol c 0\nsymbol u 1\nsymbol m 2\n"
            "axiom [1] x1 = u(x1)\naxiom [2] m(x1,x2) = m(x2,x1)\naxiom [0] u(c()) = c()\n"
        )
        u, m, c = (th.symbol(n) for n in "umc")
        t = App(m, (App(u, (App(c, ()),)), x(1)))
        for _ in range(300):
            t = App(u, (t,))
        self.check_against_oracle(th, tic(t, 1), term_size(t) + 2)

    def test_deeper_than_the_recursion_limit(self):
        # The walk, the upward rebuild and a new result's position are all
        # iterative, so depth is no limit.
        th = parse_theory("symbol u 1\nsymbol m 2\naxiom [2] m(x1,x2) = m(x2,x1)\n")
        u, m = th.symbol("u"), th.symbol("m")
        depth = sys.getrecursionlimit() + 1000
        t, want = App(m, (x(1), x(2))), App(m, (x(2), x(1)))
        for _ in range(depth):
            t, want = App(u, (t,)), App(u, (want,))
        [(nt, step)] = successors(tic(t, 2), th, term_size(t))
        assert nt == tic(want, 2)
        assert step.position == (0,) * depth and step.subst == sub(2, x(1), x(2))

    @settings(max_examples=150, deadline=None)
    @given(kernel_case())
    def test_matches_oracle(self, case):
        self.check_against_oracle(*case)

    @settings(max_examples=150, deadline=None)
    @given(kernel_case())
    def test_expansion_function_matches_reference(self, case):
        # The generated expansion function and the plain loop that matches
        # each side with the naive matcher record the same new results in
        # the same order, the same entries and the same cap flags.  Two
        # levels are grown, so the second runs against a reached set the
        # first one filled.
        th, t, cap = case
        rel = rewrite._relation(th)
        sides, expand = rel.sides, rel.expand
        runs = []
        for fn in (partial(expand, cap), partial(reference_expand, sides, cap)):
            reached, entries, frontier, log = {t.term: 0}, {}, [t], []
            for distance in (1, 2):
                new = []
                log.append([fn(u, reached, entries, distance, new) for u in frontier])
                log.append(new)
                frontier = new
            runs.append((log, list(entries.items()), list(reached)))
        assert runs[0] == runs[1]

    @settings(max_examples=150, deadline=None)
    @given(kernel_case(), st.integers(1, 40))
    def test_back_move_bits_skip_only_reached_results(self, case, budget):
        # Grown with back-move bits and without them, the generated kernel
        # gives one closure: its entries in order with their records, each
        # level's new list, the flags and reached's keys.  Without bits,
        # each term's value is cleared before it is expanded, so nothing is
        # skipped.  Every bit a term holds when it is expanded names a move,
        # side k at walk index w, whose source the naive matcher matches
        # there, within the cap, giving a term reached already holds.
        th, t, cap = case
        rel = rewrite._relation(th)
        sides, expand = rel.sides, partial(rel.expand, cap)

        def checked(u, reached, *rest):
            mask = reached[u.term]
            assert mask >= 0
            subs, ups, ats = walk(u.term)
            for b in range(mask.bit_length()):
                if mask >> b & 1:
                    w, k = divmod(b, len(sides))
                    src, dst = sides[k][3]
                    binding = naive_match(src.term, subs[w])
                    assert binding is not None
                    got = naive_instantiate(dst.term, binding)
                    assert naive_size(got) - naive_size(subs[w]) <= cap - naive_size(u.term)
                    assert rebuild_up(subs, ups, ats, w, got) in reached
            return expand(u, reached, *rest)

        def cleared(u, reached, *rest):
            reached[u.term] = 0
            return expand(u, reached, *rest)

        runs = []
        for fn in (checked, cleared):
            cl = Closure.of(t, t.term)
            levels = [cl.grow(fn, budget) for _ in range(4)]
            runs.append(
                (levels, list(cl.entries.items()), cl.cap_hit, cl.budget_hit, cl.expanded, list(cl.reached))
            )
            # Terms are expanded in entry order, and an expanded one holds -1.
            values = list(cl.reached.values())
            assert values[: cl.expanded] == [-1] * cl.expanded and min(values[cl.expanded :], default=0) >= 0
        assert runs[0] == runs[1]

    def test_deep_sides(self):
        # Generated code nests no expression, so a side deeper than Python's
        # parser would accept as one nested expression compiles as its block
        # in the expansion function, whose lines are indented at most four
        # levels however deep the side.  Reading the closure's derivation
        # rebuilds a step across the whole depth of the side.
        n = 300
        a, b = ("a(" * n + "x1" + ")" * n, "b(" * n + "x1" + ")" * n)
        th = parse_theory(f"symbol a 1\nsymbol b 1\naxiom [1] {a} = {b}\n")
        symbols = th.symbols_by_name()
        start, other = tic(parse_term(a, symbols), 1), tic(parse_term(b, symbols), 1)
        code = rewrite._expand_code(rewrite._relation(th).sides)[0]
        assert max(len(line) - len(line.lstrip()) for line in code.splitlines()) <= 16
        assert code.count("\n        t0 = subs[w]\n") == 2
        close = bounded_closure(th, start, 3)
        assert close.complete and set(close.entries) == {start, other}
        assert replay(close.derivation_to(other), th)

    def test_hostile_symbol_names(self):
        # Symbol names that are Python keywords, builtins or names the
        # generated code uses never reach its source: renaming every symbol
        # leaves the expansion function's source unchanged, and the kernel
        # still agrees with the oracle.
        text = (
            "symbol {0} 0\nsymbol {1} 2\nsymbol {2} 1\nsymbol {3} 2\nsymbol {4} 1\nsymbol {5} 3\n"
            "axiom [1] {1}(x1,x1) = {2}(x1)\n"
            "axiom [0] {0}() = {4}({0}())\n"
            "axiom [1] x1 = {5}(x1,{4}(x1),{0}())\n"
            "axiom [2] {3}(x1,x2) = {3}(x2,x1)\n"
            "axiom [2] {1}({3}(x1,x2),{2}(x1)) = {5}(x2,x1,x1)\n"
        )
        th = parse_theory(text.format("None", "return", "lambda", "App", "t1", "room"))
        plain = parse_theory(text.format("c", "p", "u", "m", "v", "f"))
        expand_code = [rewrite._expand_code(rewrite._relation(u).sides)[0] for u in (th, plain)]
        assert expand_code[0] == expand_code[1]
        # Nor do they reach the generated code's file name.
        expand = rewrite._relation(th).expand
        assert re.fullmatch(r"<rewrite expand \d+>", expand.__code__.co_filename)
        rng = random.Random(7)
        symbols = th.symbols_by_name()
        starts = [parse_term(text, symbols) for text in ("return(App(x1,x2),lambda(x1))", "room(x2,x1,x1)")]
        starts += [random_term(rng, th, 7, 2) for _ in range(30)]
        for term in starts:
            t = tic(term, 2)
            cap = term_size(t.term) + 4
            self.check_against_oracle(th, t, cap)
            close = bounded_closure(th, t, 2, size_cap=cap)
            assert {u: close.distance(u) for u in close.entries} == naive_closure(t, th, 2, cap)

    def test_each_theory_has_its_own_file_names(self):
        # A profile keys functions by file, line and name, so two theories'
        # expansion functions must not share a file name.
        text = "symbol m 2\naxiom [2] m(x1,x2) = m(x2,x1)\n"
        one, two = parse_theory(text), parse_theory(text + "axiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\n")
        expands = [rewrite._relation(th).expand.__code__.co_filename for th in (one, two)]
        assert expands[0] != expands[1]

    def test_one_code_object_per_theory(self, monkeypatch):
        # The expansion function is the only generated code: compiling a
        # theory compiles and runs one code object, and each side holds its
        # oriented (source, target) pair, no callable.
        th = parse_theory(
            "symbol u 1\nsymbol m 2\n"
            "axiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\naxiom [2] m(x1,x2) = m(x2,x1)\n"
            "axiom [1] u(x1) = m(x1,x1)\naxiom [2] u(x1) = u(x2)\n"
        )
        calls = []

        def counted(real):
            def call(*args):
                calls.append(real.__name__)
                return real(*args)

            return call

        # Module globals shadow the builtins for rewrite's own calls.
        monkeypatch.setattr(rewrite, "compile", counted(compile), raising=False)
        monkeypatch.setattr(rewrite, "exec", counted(exec), raising=False)
        rel = rewrite._relation(th)
        sides, expand = rel.sides, rel.expand
        assert calls == ["compile", "exec"] and callable(expand)
        assert [(ai, d) for ai, d, _, _, _ in sides] == [(0, LR), (0, RL), (1, LR), (2, LR), (2, RL)]
        assert len(rel.kept) == 6
        for ai, direction, root, pair, inverse in sides:
            eq = th.axioms[ai]
            assert pair == ((eq.lhs, eq.rhs) if direction == LR else (eq.rhs, eq.lhs))
            assert not any(callable(v) for v in (ai, direction, root, *pair, inverse))

    def test_dead_table_entry_is_survived(self):
        # A symbol's table can hold a dead weak ref whose callback has not
        # yet run.  The generated side (stale) and the upward rebuild (wrap)
        # both read the table, and on a dead entry both must leave the node
        # to App, which makes it and puts it in the table.
        th = parse_theory("symbol stale 2\nsymbol wrap 1\naxiom [2] stale(x1,x2) = stale(x2,x1)\n")
        stale, wrap = th.symbol("stale"), th.symbol("wrap")
        t = tic(App(wrap, (App(stale, (App(wrap, (x(1),)), x(2))),)), 2)

        def plant_dead_ref(sym, args):
            node = App(sym, args)
            ref = _Ref(node, lambda _: None)
            ref.key = args
            del node
            gc.collect()
            assert ref() is None and args not in sym._apps
            sym._apps[args] = ref

        args = (x(2), App(wrap, (x(1),)))
        plant_dead_ref(stale, args)
        [(nt, _)] = successors(t, th, term_size(t.term))
        swapped = nt.term.args[0]
        assert swapped is App(stale, args) and stale._apps[args]() is swapped
        del nt
        plant_dead_ref(wrap, (swapped,))
        [(nt, _)] = successors(t, th, term_size(t.term))
        assert nt.term is App(wrap, (swapped,)) and wrap._apps[(swapped,)]() is nt.term

    @settings(max_examples=60, deadline=None)
    @given(kernel_case())
    def test_results_are_maximally_shared(self, case):
        # Every node the kernel hands out, in a closure's entries and in its
        # steps' substitutions, is the one node App gives for its contents.
        th, t, cap = case
        close = bounded_closure(th, t, 3, size_cap=cap)
        stack = []
        for u in close.entries:
            stack.append(u.term)
            step = close.step(u)
            if step is not None:
                stack.extend(s.term for s in step.subst)
        while stack:
            node = stack.pop()
            if node.__class__ is App:
                assert App(node.sym, node.args) is node
                stack.extend(node.args)

    @settings(max_examples=60, deadline=None)
    @given(kernel_case())
    def test_closure_matches_oracle(self, case):
        th, t, cap = case
        close = bounded_closure(th, t, 3, size_cap=cap)
        dist = {u: close.distance(u) for u in close.entries}
        assert dist == naive_closure(t, th, 3, cap)
        if close.exhausted and not close.cap_hit:
            assert dist == naive_closure(t, th, 6, cap + 4)

    @settings(max_examples=100, deadline=None)
    @given(kernel_case(), st.integers(0, 2**20))
    def test_proof_verdicts_match_oracle(self, case, seed):
        th, lhs, cap = case
        rng = random.Random(seed)
        n = lhs.context_len
        if rng.random() < 0.5:
            rhs = rng.choice(sorted(naive_closure(lhs, th, 3, cap), key=repr))
        else:
            rhs = tic(random_term(rng, KERNEL_POOL, rng.randint(1, cap), n), n)
        cap = max(cap, term_size(rhs.term))
        slack = cap - max(term_size(lhs.term), term_size(rhs.term))
        out = prove_bounded(th, Equation(lhs, rhs), 4, slack=slack)
        shortest = naive_shortest(th, lhs, rhs, 4, cap)
        assert out.certified == (out.status == EXHAUSTED)
        if out.status == FOUND:
            assert len(out.derivation.steps) == shortest
        else:
            assert shortest is None
        if out.certified:
            # Some side's class is finite and never reached the cap, so a
            # larger cap adds nothing to it, and it misses the other side.
            for a, b in ((lhs, rhs), (rhs, lhs)):
                close = bounded_closure(th, a, 50, size_cap=cap)
                if close.exhausted and not close.cap_hit:
                    whole = naive_closure(a, th, len(close.entries), cap + 2)
                    assert set(whole) == set(close.entries) and b not in whole
                    break
            else:
                pytest.fail("certified, but neither class is complete under the cap")


def has_one_way_axiom(th):
    """Whether some axiom has exactly one side that mentions its whole context."""
    for eq in th.axioms:
        whole = set(range(1, eq.context_len + 1))
        if sum(set(var_occurrences(side)) == whole for side in (eq.lhs, eq.rhs)) == 1:
            return True
    return False


def as_step(witness, n):
    ai, direction, position, subst = witness
    return RewriteStep(ai, direction, position, tuple(tic(u, n) for u in subst))


def as_witness(step):
    if step is None:
        return None
    return (step.axiom_index, step.direction, step.position, tuple(u.term for u in step.subst))


def walk_back(entries, t):
    """Oracle witnesses on the parent links from t back to the root."""
    out = []
    while entries[t][1] is not None:
        out.append(entries[t][2])
        t = entries[t][1]
    return out


def loop_closure(succ, start, depth, node_budget):
    """bounded_closure's own level loop as it was before the engine was
    shared, over the oracle's successors: (entries, exhausted, cap_hit,
    budget_hit, expanded, depth_reached)."""
    entries = {start: (0, None, None)}
    frontier = [start]
    d = 0
    cap_hit = budget_hit = False
    expanded = 0
    while frontier and d < depth and not budget_hit:
        new_frontier = []
        for t in frontier:
            if expanded >= node_budget:
                budget_hit = True
                break
            expanded += 1
            succs, hit = succ(t)
            cap_hit = cap_hit or hit
            for nt, witness in succs:
                if nt not in entries:
                    entries[nt] = (d + 1, t, witness)
                    new_frontier.append(nt)
        if budget_hit:
            break
        frontier = new_frontier
        d += 1
    return entries, not frontier and not budget_hit, cap_hit, budget_hit, expanded, d


def loop_prove(succ, one_way, lhs, rhs, depth, cap, node_budget):
    """prove_bounded's own loop as it was before the engine was shared, over
    the oracle's successors; every meet is recorded, and the first of the
    shortest ones is assembled."""
    n = lhs.context_len
    stats = SearchStats()
    visited = ({lhs: (0, None, None)}, {rhs: (0, None, None)})
    level = [0, 0]
    cap_hit = [False, False]
    bounds = {"depth": depth, "size_cap": cap, "node_budget": node_budget}

    def finish(status, deriv=None, certified=False, reason=None):
        stats.visited_left, stats.visited_right = len(visited[0]), len(visited[1])
        stats.depth_left, stats.depth_right = level
        stats.cap_hit = cap_hit[0] or cap_hit[1]
        return ProofOutcome(status, deriv, certified, reason, stats, bounds)

    if lhs == rhs:
        return finish(FOUND, Derivation(lhs, (), rhs))
    frontier = [[lhs], [rhs]]
    meets = []
    mu = depth + 1
    while frontier[0] or frontier[1]:
        if one_way:
            if not frontier[0]:
                break
            side = 0
        elif frontier[0] and frontier[1]:
            side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        else:
            side = 0 if frontier[0] else 1
            if meets or not cap_hit[1 - side]:
                break
        done = level[0] + level[1]
        if done >= depth or (meets and done >= mu):
            break
        d_new = level[side] + 1
        new_frontier = []
        for t in frontier[side]:
            if stats.expanded >= node_budget:
                stats.budget_hit = True
                break
            stats.expanded += 1
            succs, hit = succ(t)
            cap_hit[side] = cap_hit[side] or hit
            for nt, witness in succs:
                if nt in visited[side]:
                    continue
                visited[side][nt] = (d_new, t, witness)
                new_frontier.append(nt)
                entry = visited[1 - side].get(nt)
                if entry is not None:
                    meets.append((d_new + entry[0], len(meets), nt))
                    mu = min(mu, d_new + entry[0])
        if stats.budget_hit:
            break
        frontier[side] = new_frontier
        level[side] = d_new
    if meets and mu <= depth:
        meet = min(m for m in meets if m[0] == mu)[2]
        left = [as_step(w, n) for w in reversed(walk_back(visited[0], meet))]
        right = [flip_step(as_step(w, n)) for w in walk_back(visited[1], meet)]
        return finish(FOUND, Derivation(lhs, tuple(left + right), rhs))
    if meets:
        return finish(BOUNDS, reason="depth")
    if stats.budget_hit:
        return finish(BOUNDS, reason="nodes")
    if (not frontier[0] and not cap_hit[0]) or (not frontier[1] and not cap_hit[1]):
        return finish(EXHAUSTED, certified=True)
    if not frontier[0] or not frontier[1]:
        return finish(BOUNDS, reason="size")
    return finish(BOUNDS, reason="depth")


def naive_word_successors(inst, w, cap):
    """One-step string rewrites of w within cap, each with its first
    witnessing step in relation, direction, offset order, and a cap-hit flag."""
    out: dict = {}
    cap_hit = False
    for ri, (u, v) in enumerate(inst.relations):
        for direction, src, dst in ((LR, u, v), (RL, v, u)):
            for offset in range(len(w) - len(src) + 1):
                if w[offset : offset + len(src)] == src:
                    nw = w[:offset] + dst + w[offset + len(src) :]
                    if len(nw) > cap:
                        cap_hit = True
                    elif nw not in out:
                        out[nw] = WordStep(ri, direction, offset)
    return list(out.items()), cap_hit


def loop_word_bfs(inst, w1, w2, depth, cap, node_budget, found_at_level_end):
    """word_bfs's own loop as it was before it ran on the shared engine, over
    naive_word_successors.  That loop stopped in mid-level on reaching w2;
    with found_at_level_end it finishes the level (or the node budget's cut
    of it) first, as the shared engine does."""
    bounds = {"depth": depth, "length_cap": cap, "node_budget": node_budget}
    if w1 == w2:
        return WordOutcome(FOUND, WordDerivation(w1, (), w2), False, None, 0, bounds)
    entries = {w1: (0, None, None)}
    frontier, d, expanded = [w1], 0, 0
    cap_hit = budget_hit = False

    def found():
        deriv = WordDerivation(w1, tuple(reversed(walk_back(entries, w2))), w2)
        return WordOutcome(FOUND, deriv, False, None, expanded, bounds)

    while frontier and d < depth:
        new_frontier = []
        for w in frontier:
            if expanded >= node_budget:
                budget_hit = True
                break
            expanded += 1
            succs, hit = naive_word_successors(inst, w, cap)
            cap_hit = cap_hit or hit
            for nw, step in succs:
                if nw in entries:
                    continue
                entries[nw] = (d + 1, w, step)
                new_frontier.append(nw)
                if nw == w2 and not found_at_level_end:
                    return found()
        if w2 in entries:
            return found()
        if budget_hit:
            break
        frontier = new_frontier
        d += 1
    if budget_hit:
        return WordOutcome(BOUNDS, None, False, "nodes", expanded, bounds)
    if not frontier:
        if not cap_hit:
            return WordOutcome(EXHAUSTED, None, True, None, expanded, bounds)
        return WordOutcome(BOUNDS, None, False, "size", expanded, bounds)
    return WordOutcome(BOUNDS, None, False, "depth", expanded, bounds)


WORD_COMMUTES = instance(["a", "b"], [("ab", "ba")], ("ab", "ba"))
WORD_IDEMPOTENT = instance(["a"], [("a", "aa")], ("a", "aa"))
WORD_FREE = instance(["a", "b"], [], ("a", "b"))


class TestEngineCuts:
    """Every node budget from 1 to 12 and depth from 0 to 4, against the two
    search loops the engine replaced, run over the oracle's successors; and
    every node budget from 1 to 12 and depth from 0 to 6 for word_bfs,
    against the loop it replaced."""

    def check_sweep(self, th, lhs, rhs, cap):
        memo: dict = {}

        def succ(t):
            if t not in memo:
                memo[t] = naive_successors(t, th, cap)
            return memo[t]

        one_way = has_one_way_axiom(th)
        slack = cap - max(term_size(lhs.term), term_size(rhs.term))
        for depth in range(5):
            for budget in range(1, 13):
                cl = bounded_closure(th, lhs, depth, size_cap=cap, node_budget=budget)
                entries, *flags = loop_closure(succ, lhs, depth, budget)
                got = [(t, cl.distance(t), cl.parent(t), as_witness(cl.step(t))) for t in cl.entries]
                assert got == [(t, *e) for t, e in entries.items()]
                assert cl.start == lhs and reached_matches_entries(cl)
                assert [cl.exhausted, cl.cap_hit, cl.budget_hit, cl.expanded, cl.depth_reached] == flags
                out = prove_bounded(th, Equation(lhs, rhs), depth, slack=slack, node_budget=budget)
                want = loop_prove(succ, one_way, lhs, rhs, depth, cap, budget)
                assert out.to_doc() == want.to_doc()

    def test_meet_then_budget_cut(self):
        # The AC left comb meets its reversal while the budget cuts the level
        # that found the meet: the partial level still yields the proof.
        ac = parse_theory(
            "symbol m 2\naxiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\naxiom [2] m(x1,x2) = m(x2,x1)\n"
        )
        goal = parse_equation("[4] m(m(m(x1,x2),x3),x4) = m(x4,m(x3,m(x2,x1)))", ac)
        out = prove_bounded(ac, goal, 8, node_budget=5)
        assert (out.status, out.stats.budget_hit) == (FOUND, True)
        assert replay(out.derivation, ac)
        self.check_sweep(ac, goal.lhs, goal.rhs, 7)

    def test_one_way_pool(self):
        th = Theory(KERNEL_POOL.signature, KERNEL_POOL.axioms[:3])
        assert has_one_way_axiom(th)
        rng = random.Random(11)
        for _ in range(6):
            lhs = tic(random_term(rng, KERNEL_POOL, 5, 2), 2)
            rhs = tic(random_term(rng, KERNEL_POOL, 5, 2), 2)
            self.check_sweep(th, lhs, rhs, 6)

    @pytest.mark.parametrize("inst", [WORD_COMMUTES, WORD_IDEMPOTENT, WORD_FREE])
    def test_word_search(self, inst):
        # 20 seeded pairs of words of length up to 4, each under the default
        # slack or a slack of at most two letters over the longer word.
        rng = random.Random(13)
        for _ in range(20):
            w1, w2 = (tuple(rng.choices(inst.alphabet, k=rng.randint(0, 4))) for _ in range(2))
            slack = rng.choice([8, rng.randint(0, 2)])
            cap = max(len(w1), len(w2)) + slack
            for depth in range(7):
                for budget in range(1, 13):
                    out = word_bfs(inst, w1, w2, depth=depth, slack=slack, node_budget=budget)
                    doc = out.to_doc()
                    assert doc == loop_word_bfs(inst, w1, w2, depth, cap, budget, True).to_doc()
                    old = loop_word_bfs(inst, w1, w2, depth, cap, budget, False).to_doc()
                    if out.status != FOUND:
                        assert doc == old
                    assert {**doc, "expanded": 0} == {**old, "expanded": 0}

    @settings(max_examples=100, deadline=None)
    @given(kernel_case(), st.integers(0, 2**20))
    def test_random_theories(self, case, seed):
        th, lhs, cap = case
        rng = random.Random(seed)
        n = lhs.context_len
        if rng.random() < 0.5:
            rhs = rng.choice(sorted(naive_closure(lhs, th, 3, cap), key=repr))
        else:
            rhs = tic(random_term(rng, KERNEL_POOL, rng.randint(1, cap), n), n)
        self.check_sweep(th, lhs, rhs, max(cap, term_size(rhs.term)))


class TestOneWayTheories:
    """Theories with an axiom where exactly one side binds its context: the
    flip of that side's orientation is no step, so proof search runs forward
    from the left side only."""

    def test_flip_of_dropped_orientation_is_not_taken(self):
        th = parse_theory(
            "symbol c 0\nsymbol u 1\nsymbol m 2\n"
            "axiom [1] x1 = u(x1)\naxiom [1] x1 = m(c(),c())\n"
        )
        goal = parse_equation("[2] u(c()) = x2", th)
        out = prove_bounded(th, goal, 8, slack=1)  # size cap 3: u(c()) has size 2
        assert out.status != FOUND
        assert naive_shortest(th, goal.lhs, goal.rhs, 8, 3) is None

    def test_forward_steps_are_found(self):
        th = parse_theory("symbol c 0\nsymbol m 2\naxiom [1] x1 = c()\n")
        goal = parse_equation("[1] m(x1,x1) = m(c(),c())", th)
        out = prove_bounded(th, goal, 8)
        assert out.status == FOUND
        assert len(out.derivation.steps) == 2
        assert replay(out.derivation, th)

    def test_certified_when_left_side_empties(self):
        th = parse_theory("symbol c 0\nsymbol m 2\naxiom [1] x1 = c()\n")
        # The forward class of m(x1,c()) is {m(x1,c()), c(), m(c(),c())}.
        # m(x1,x1) rewrites to m(x1,c()), but no step leads back.
        goal = parse_equation("[1] m(x1,c()) = m(x1,x1)", th)
        out = prove_bounded(th, goal, 8)
        assert (out.status, out.certified) == (EXHAUSTED, True)
        out = prove_bounded(th, goal, 1)
        assert (out.status, out.reason) == (BOUNDS, "depth")

    def test_replay_refuses_a_dropped_orientation(self):
        # RL of x1 = c() would rewrite c() to any term; the search never takes
        # it, so a derivation using it must not contradict the certificate.
        th = parse_theory("symbol c 0\nsymbol m 2\naxiom [1] x1 = c()\n")
        goal = parse_equation("[1] m(x1,c()) = m(x1,x1)", th)
        out = prove_bounded(th, goal, 8)
        assert (out.status, out.certified) == (EXHAUSTED, True)
        step = RewriteStep(0, RL, (1,), (tic(x(1), 1),))
        with pytest.raises(RewriteError):
            apply_step(goal.lhs, th, step)
        assert not replay(Derivation(goal.lhs, (step,), goal.rhs), th)
        forward = RewriteStep(0, LR, (1,), (tic(x(1), 1),))
        assert apply_step(goal.rhs, th, forward) == goal.lhs

    def test_kept_orientations_are_kept_on_the_theory(self):
        # apply_step reads the kept orientations of one relation record per
        # theory, built on first use; a copy or a pickle carries only
        # signature and axioms.
        th = parse_theory("symbol c 0\nsymbol m 2\naxiom [1] x1 = c()\naxiom [2] m(x1,x2) = m(x2,x1)\n")
        assert not hasattr(th, "_relation")
        symbols = th.symbols_by_name()
        t = tic(parse_term("m(x1,c())", symbols), 1)
        forward = RewriteStep(0, LR, (0,), (tic(x(1), 1),))
        assert apply_step(t, th, forward) == tic(parse_term("m(c(),c())", symbols), 1)
        assert th._relation.kept == {(0, LR), (1, LR), (1, RL)}
        for other in (pickle.loads(pickle.dumps(th)), copy.deepcopy(th), copy.copy(th)):
            assert other == th and not hasattr(other, "_relation")
        step = RewriteStep(0, RL, (1,), (tic(x(1), 1),))
        message = "axiom 0 (RL) is no rewrite step: its source does not bind the whole axiom context"
        with pytest.raises(RewriteError, match=re.escape(message)):
            apply_step(t, th, step)


U = Symbol("u", 1)


class TestRenamedOrientations:
    """Orientations the kernel leaves out as renamings of earlier ones are
    still steps: apply_step and replay accept them."""

    COMM = parse_theory("symbol u 1\nsymbol m 2\naxiom [2] m(x1,x2) = m(x2,x1)\n")
    TWICE = parse_theory(
        "symbol u 1\nsymbol m 2\naxiom [1] m(x1,x1) = u(x1)\naxiom [1] m(x1,x1) = u(x1)\n"
    )

    def test_comm_right_to_left(self):
        t = tic(App(U, (App(M, (x(1), x(2))),)), 2)
        step = RewriteStep(0, RL, (0,), sub(2, x(2), x(1)))
        end = tic(App(U, (App(M, (x(2), x(1))),)), 2)
        assert apply_step(t, self.COMM, step) == end
        assert replay(Derivation(t, (step,), end), self.COMM)

    def test_flipped_proof_half_replays(self):
        goal = parse_equation("[3] m(m(x1,x2),x3) = m(x3,m(x2,x1))", self.COMM)
        out = prove_bounded(self.COMM, goal, 4)
        assert out.status == FOUND and len(out.derivation.steps) == 2
        assert RL in {s.direction for s in out.derivation.steps}
        assert replay(out.derivation, self.COMM)

    def test_second_copy_of_duplicate(self):
        t = tic(App(M, (x(1), x(1))), 1)
        u = tic(App(U, (x(1),)), 1)
        forward = RewriteStep(1, LR, (), sub(1, x(1)))
        back = RewriteStep(1, RL, (), sub(1, x(1)))
        assert apply_step(t, self.TWICE, forward) == u
        assert apply_step(u, self.TWICE, back) == t
        assert replay(Derivation(t, (forward, back), t), self.TWICE)

    def test_one_way_flag_counts_every_orientation(self):
        once = parse_theory("symbol c 0\nsymbol m 2\naxiom [1] x1 = c()\n")
        for th in (self.COMM, self.TWICE, once):
            doubled = Theory(th.signature, th.axioms + th.axioms)
            assert rewrite._relation(doubled).one_way == rewrite._relation(th).one_way
        assert not rewrite._relation(self.COMM).one_way
        assert rewrite._relation(once).one_way


@st.composite
def walk_case(draw):
    seed = draw(st.integers(0, 2**20))
    rng = random.Random(seed)
    start = tic(random_term(rng, SEED, 9, 3), 3)
    return random_walk(rng, SEED, start, 4, term_size(start.term) + 8)


class TestRandomWalks:
    @settings(max_examples=60, deadline=None)
    @given(walk_case())
    def test_walks_replay_and_prove(self, d):
        assert replay(d, SEED)
        out = prove_bounded(SEED, Equation(d.start, d.end), len(d.steps), slack=10)
        assert out.status == FOUND
        assert len(out.derivation.steps) <= len(d.steps)
