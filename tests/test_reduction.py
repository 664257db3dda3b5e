import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sorted_word_oracle
from rigidlab.interp import check_preserves_axioms, extend
from rigidlab.reduction import (
    WordDerivation,
    WordProblemInstance,
    WordStep,
    chain_to_word,
    compile_reduction,
    flabby_witness,
    goal_axiom_index,
    instance,
    parse_wp,
    render_wp,
    reverse_word_derivation,
    seed_interpretation,
    seed_theory,
    word_apply,
    word_bfs,
    word_equation,
    word_from_text,
    word_replay,
    word_semidecide,
    word_to_term,
    word_to_text,
)
from rigidlab.rewrite import EXHAUSTED, FOUND, replay
from rigidlab.rigidity import verify_report
from rigidlab.terms import App, ParseError, TermInContext, Var, render_term
from rigidlab.theory import validate_linear_regular

COMMUTES = instance(["a", "b"], [("ab", "ba")], ("ab", "ba"))
IDEMPOTENT = instance(["a"], [("a", "aa")], ("a", "aa"))
FREE = instance(["a", "b"], [], ("a", "b"))
COMMUTES_ALPHA = compile_reduction(COMMUTES).symbol("alpha")


def x(i):
    return Var(i)


class TestInstance:
    def test_string_words_normalized(self):
        assert COMMUTES.relations == ((("a", "b"), ("b", "a")),)
        assert COMMUTES.goal == (("a", "b"), ("b", "a"))

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            instance(["alpha"], [], ("alpha", "alpha"))
        with pytest.raises(ValueError):
            instance(["m"], [], ("m", "m"))

    def test_variable_shaped_names_rejected(self):
        with pytest.raises(ValueError):
            WordProblemInstance(("x1",), (), (("x1",), ()))

    def test_duplicate_generators_rejected(self):
        with pytest.raises(ValueError):
            instance(["a", "a"], [], ("a", "a"))

    def test_foreign_letters_rejected(self):
        with pytest.raises(ValueError):
            instance(["a"], [("ab", "a")], ("a", "a"))
        with pytest.raises(ValueError):
            instance(["a"], [], ("a", "c"))


class TestWordRewriting:
    def test_apply_at_offset(self):
        w = word_from_text("aab", COMMUTES.alphabet)
        step = WordStep(0, "LR", 1)
        assert word_apply(COMMUTES, w, step) == ("a", "b", "a")

    def test_apply_mismatch_raises(self):
        with pytest.raises(ValueError):
            word_apply(COMMUTES, ("b", "a"), WordStep(0, "LR", 0))

    def test_apply_offset_out_of_range(self):
        with pytest.raises(ValueError):
            word_apply(COMMUTES, ("a", "b"), WordStep(0, "LR", 1))

    def test_replay_and_reverse(self):
        step = WordStep(0, "LR", 0)
        d = WordDerivation(("a", "b"), (step,), ("b", "a"))
        assert word_replay(COMMUTES, d)
        rev = reverse_word_derivation(d)
        assert rev.start == ("b", "a") and rev.end == ("a", "b")
        assert word_replay(COMMUTES, rev)

    def test_replay_rejects_wrong_end(self):
        step = WordStep(0, "LR", 0)
        d = WordDerivation(("a", "b"), (step,), ("a", "b"))
        assert not word_replay(COMMUTES, d)


class TestWordBfs:
    def test_one_step(self):
        out = word_bfs(COMMUTES, "ab", "ba", depth=4)
        assert out.status == FOUND
        assert len(out.derivation.steps) == 1
        assert word_replay(COMMUTES, out.derivation)

    def test_reflexive(self):
        out = word_bfs(COMMUTES, "ab", "ab", depth=0)
        assert out.status == FOUND and out.derivation.steps == ()

    def test_free_monoid_certified_negative(self):
        out = word_bfs(FREE, "a", "b", depth=6)
        assert out.status == EXHAUSTED
        assert out.certified

    def test_idempotent_two_steps(self):
        out = word_bfs(IDEMPOTENT, "aaa", "a", depth=6)
        assert out.status == FOUND
        assert len(out.derivation.steps) == 2

    def test_matches_multiset_oracle(self):
        rng = random.Random(5)
        letters = ["a", "b"]
        for _ in range(80):
            w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            out = word_bfs(COMMUTES, w1, w2, depth=10)
            if sorted_word_oracle(w1, w2):
                assert out.status == FOUND
            else:
                assert out.status == EXHAUSTED and out.certified


class TestSeedTheory:
    def test_shape(self):
        th = seed_theory()
        assert [s.name for s in th.signature] == ["l", "r", "m"]
        assert len(th.axioms) == 1
        assert validate_linear_regular(th) == []

    def test_axiom_provable_both_ways(self):
        from rigidlab.rewrite import prove_bounded
        from rigidlab.theory import Equation

        th = seed_theory()
        out = prove_bounded(th, th.axioms[0], 1)
        assert out.status == FOUND
        flipped = Equation(th.axioms[0].rhs, th.axioms[0].lhs)
        assert prove_bounded(th, flipped, 1).status == FOUND


class TestWordTermCoding:
    def test_first_letter_outermost(self):
        th = compile_reduction(COMMUTES)
        t = word_to_term(COMMUTES, "ab", Var(1))
        assert render_term(t) == "a(b(x1))"

    def test_empty_word_is_base(self):
        assert word_to_term(COMMUTES, "", Var(1)) == Var(1)

    def test_chain_to_word_inverse(self):
        t = word_to_term(COMMUTES, "ba", App(COMMUTES_ALPHA, (Var(2),)))
        w, below = chain_to_word(t)
        assert w == ("b", "a", "alpha")
        assert below == Var(2)

    def test_roundtrip_words(self):
        for text in ["", "a", "ab", "bba"]:
            t = word_to_term(COMMUTES, text, Var(1))
            w, below = chain_to_word(t)
            assert w == tuple(text) and below == Var(1)


class TestCompileReduction:
    def test_main_instance(self):
        th = compile_reduction(COMMUTES)
        names = [s.name for s in th.signature]
        assert names == ["a", "b", "alpha", "m"]
        assert [s.arity for s in th.signature] == [1, 1, 1, 2]
        assert len(th.axioms) == 2
        rel = th.axioms[0]
        assert render_term(rel.lhs.term) == "a(b(x1))"
        assert render_term(rel.rhs.term) == "b(a(x1))"
        goal = th.axioms[goal_axiom_index(COMMUTES)]
        assert render_term(goal.lhs.term) == "m(a(b(alpha(x1))),x2)"
        assert render_term(goal.rhs.term) == "m(b(a(alpha(x2))),x1)"

    def test_empty_relations(self):
        th = compile_reduction(FREE)
        assert len(th.axioms) == 1
        assert goal_axiom_index(FREE) == 0

    def test_empty_goal_words(self):
        inst = instance(["a"], [], ("", ""))
        th = compile_reduction(inst)
        goal = th.axioms[0]
        assert render_term(goal.lhs.term) == "m(alpha(x1),x2)"
        assert render_term(goal.rhs.term) == "m(alpha(x2),x1)"

    def test_always_linear_regular(self):
        for inst in (COMMUTES, IDEMPOTENT, FREE):
            assert validate_linear_regular(compile_reduction(inst)) == []

    def test_marker_and_pairing_balanced_per_axiom(self):
        from rigidlab.terms import count_symbol

        for inst in (COMMUTES, IDEMPOTENT, FREE):
            th = compile_reduction(inst)
            alpha = th.symbol("alpha")
            pair = th.symbol("m")
            for ax in th.axioms:
                assert count_symbol(ax.lhs.term, alpha) == count_symbol(ax.rhs.term, alpha)
                assert count_symbol(ax.lhs.term, pair) == count_symbol(ax.rhs.term, pair)


class TestSeedInterpretation:
    def test_images(self):
        i = seed_interpretation(COMMUTES)
        assert render_term(i.image_of("l").term) == "m(a(b(alpha(x1))),x2)"
        assert render_term(i.image_of("r").term) == "m(b(a(alpha(x1))),x2)"
        assert render_term(i.image_of("m").term) == "m(x1,x2)"
        assert i.linear_regular

    def test_preserves_axioms_depth_one(self):
        for inst in (COMMUTES, IDEMPOTENT, FREE):
            failures = [
                (k, out)
                for k, out in check_preserves_axioms(seed_interpretation(inst), depth=1)
                if out.status != FOUND
            ]
            assert failures == []

    def test_extend_on_nested_term(self):
        i = seed_interpretation(COMMUTES)
        th = seed_theory()
        t = TermInContext(
            App(th.symbol("m"), (App(th.symbol("l"), (x(1), x(2))), x(3))), 3
        )
        image = extend(i, t)
        assert render_term(image.term) == "m(m(a(b(alpha(x1))),x2),x3)"


class TestWordSemidecide:
    def test_one_step_via_terms(self):
        out = word_semidecide(COMMUTES, "ab", "ba", depth=4)
        assert out.status == FOUND
        assert len(out.derivation.steps) == 1
        assert word_replay(COMMUTES, out.derivation)

    def test_negative_certified(self):
        out = word_semidecide(FREE, "a", "b", depth=6)
        assert out.status == EXHAUSTED and out.certified

    def test_capped_side_does_not_stop_the_search(self):
        # The side of "a" grows until the size cap prunes it and empties; the
        # one-term class of the empty word still certifies the negative.
        inst = parse_wp("alphabet a\nrel a = aa\ngoal a = aa\n")
        out = word_semidecide(inst, "a", (), depth=10)
        assert out.status == EXHAUSTED and out.certified
        assert out.expanded == 10

    def test_idempotent(self):
        out = word_semidecide(IDEMPOTENT, "aaa", "a", depth=6)
        assert out.status == FOUND
        assert len(out.derivation.steps) == 2

    def test_word_equation_shape(self):
        eq = word_equation(COMMUTES, "ab", "ba")
        assert eq.context_len == 1
        assert render_term(eq.lhs.term) == "a(b(x1))"
        assert render_term(eq.rhs.term) == "b(a(x1))"


class TestFlabbyWitness:
    def test_commuting_instance(self):
        wd = word_bfs(COMMUTES, *COMMUTES.goal, depth=4).derivation
        report = flabby_witness(COMMUTES, wd)
        th = compile_reduction(COMMUTES)
        assert verify_report(report, th)
        assert render_term(report.term.term) == "m(a(b(alpha(x1))),x2)"
        assert report.permutation.images == (2, 1)
        assert len(report.derivation.steps) == 1 + len(wd.steps)

    def test_idempotent_instance(self):
        wd = word_bfs(IDEMPOTENT, *IDEMPOTENT.goal, depth=4).derivation
        report = flabby_witness(IDEMPOTENT, wd)
        th = compile_reduction(IDEMPOTENT)
        assert verify_report(report, th)
        assert render_term(report.term.term) == "m(a(alpha(x1)),x2)"
        assert len(report.derivation.steps) == 2

    def test_rejects_off_goal_derivation(self):
        d = WordDerivation(("b", "a"), (WordStep(0, "RL", 0),), ("a", "b"))
        assert word_replay(COMMUTES, d)
        with pytest.raises(ValueError):
            flabby_witness(COMMUTES, d)


class TestConcreteSyntax:
    WP = "alphabet a b\nrel ab = ba\ngoal ab = ba\n"

    def test_parse(self):
        inst = parse_wp(self.WP)
        assert inst == COMMUTES

    def test_roundtrip(self):
        assert parse_wp(render_wp(COMMUTES)) == COMMUTES
        assert parse_wp(render_wp(IDEMPOTENT)) == IDEMPOTENT
        assert parse_wp(render_wp(FREE)) == FREE

    def test_eps(self):
        inst = parse_wp("alphabet a\nrel aa = eps\ngoal eps = a\n")
        assert inst.relations == ((("a", "a"), ()),)
        assert inst.goal == ((), ("a",))
        assert parse_wp(render_wp(inst)) == inst

    def test_word_text_helpers(self):
        assert word_from_text("eps", ("a",)) == ()
        assert word_to_text(()) == "eps"
        assert word_to_text(("a", "b")) == "ab"
        with pytest.raises(ValueError):
            word_from_text("c", ("a", "b"))

    def test_missing_goal(self):
        with pytest.raises(ParseError):
            parse_wp("alphabet a b\nrel ab = ba\n")

    def test_duplicate_goal(self):
        with pytest.raises(ParseError):
            parse_wp("alphabet a\ngoal a = a\ngoal a = a\n")

    def test_duplicate_alphabet(self):
        with pytest.raises(ParseError):
            parse_wp("alphabet a\nalphabet b\ngoal a = a\n")

    def test_alphabet_must_come_first(self):
        with pytest.raises(ParseError):
            parse_wp("rel ab = ba\nalphabet a b\ngoal ab = ba\n")

    def test_multichar_generator_rejected(self):
        with pytest.raises(ParseError):
            parse_wp("alphabet ab\ngoal ab = ab\n")

    def test_comments_ignored(self):
        text = "# instance\nalphabet a b  # two letters\nrel ab = ba\ngoal ab = ba\n"
        assert parse_wp(text) == COMMUTES


@st.composite
def short_words(draw):
    n = draw(st.integers(0, 5))
    return tuple(draw(st.sampled_from(["a", "b"])) for _ in range(n))


class TestAgreementProperties:
    @settings(max_examples=60, deadline=None)
    @given(short_words(), short_words())
    def test_routes_agree_on_commuting_monoid(self, w1, w2):
        direct = word_bfs(COMMUTES, w1, w2, depth=12)
        via_terms = word_semidecide(COMMUTES, w1, w2, depth=12)
        assert direct.status == via_terms.status
        if direct.status == FOUND:
            assert len(direct.derivation.steps) == len(via_terms.derivation.steps)
            assert sorted_word_oracle(w1, w2)
        else:
            assert not sorted_word_oracle(w1, w2)
