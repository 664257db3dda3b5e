import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidlab.reduction as reduction
import rigidlab.rewrite as rewrite
from oracles import random_term, random_walk
from rigidlab.interp import extend
from rigidlab.normalizer import (
    HAT_FOUND,
    HAT_NOT_FOUND,
    HAT_UNCERTAIN,
    OracleInconsistencyError,
    WordOracle,
    _split,
    check_hat_congruence,
    hat,
    is_special,
)
from rigidlab.reduction import (
    WordOutcome,
    compile_reduction,
    goal_axiom_index,
    instance,
    seed_interpretation,
    seed_theory,
    word_bfs,
)
from rigidlab.rewrite import BOUNDS, EXHAUSTED, FOUND, LR, Derivation, RewriteStep, apply_step
from rigidlab.rigidity import enumerate_linear_regular
from rigidlab.terms import (
    App,
    Symbol,
    TermInContext,
    Var,
    parse_term,
    render_term,
    term_size,
    var_occurrences,
)

YES_INST = instance(["a", "b"], [("ab", "ba")], ("ab", "ba"))
NO_INST = instance(["a", "b"], [("ab", "ba")], ("a", "b"))
YES_GENERATORS = frozenset(YES_INST.alphabet)

YES_TH = compile_reduction(YES_INST)
NO_TH = compile_reduction(NO_INST)

SEED = seed_theory()


def term(text, th, n):
    return TermInContext(parse_term(text, th.symbols_by_name()), n)


def oracle_for(inst, depth=8):
    return WordOracle(inst, depth=depth)


def outcome(status):
    """A stub oracle's outcome with the given status, shaped as word_bfs's:
    certified exactly when exhausted, and no derivation."""
    return WordOutcome(status, None, status == EXHAUSTED, None, 0, {})


class UnknownOracle:
    """Reads bounds on every query."""

    def equiv(self, w1, w2):
        return outcome(BOUNDS)


class TestSplitMarkedChain:
    def test_plain_chain(self):
        t = term("a(b(alpha(x1)))", YES_TH, 1)
        got = _split(t.term, YES_GENERATORS)
        assert got is not None
        w, below = got
        assert w == ("a", "b") and below == Var(1)

    def test_marker_alone(self):
        t = term("alpha(x1)", YES_TH, 1)
        w, below = _split(t.term, YES_GENERATORS)
        assert w == () and below == Var(1)

    def test_no_marker(self):
        t = term("a(b(x1))", YES_TH, 1)
        assert _split(t.term, YES_GENERATORS) is None

    def test_interrupted_chain(self):
        t = term("a(m(alpha(x1),x2))", YES_TH, 2)
        assert _split(t.term, YES_GENERATORS) is None


class TestIsSpecial:
    def test_variable(self):
        tag = is_special(YES_INST, term("x1", YES_TH, 1))
        assert tag.special
        assert tag.preimage == TermInContext(Var(1), 1)

    def test_left_marked_pair(self):
        tag = is_special(YES_INST, term("m(a(b(alpha(x1))),x2)", YES_TH, 2))
        assert tag.special
        assert render_term(tag.preimage.term) == "l(x1,x2)"

    def test_right_marked_pair(self):
        tag = is_special(NO_INST, term("m(b(alpha(x1)),x2)", NO_TH, 2))
        assert tag.special
        assert render_term(tag.preimage.term) == "r(x1,x2)"

    def test_plain_pair(self):
        tag = is_special(YES_INST, term("m(x1,x2)", YES_TH, 2))
        assert tag.special
        assert render_term(tag.preimage.term) == "m(x1,x2)"

    def test_bare_marker_not_special(self):
        tag = is_special(YES_INST, term("alpha(x1)", YES_TH, 1))
        assert not tag.special and tag.preimage is None

    def test_bare_generator_not_special(self):
        tag = is_special(YES_INST, term("a(x1)", YES_TH, 1))
        assert not tag.special

    def test_wrong_word_chain_not_special(self):
        # The chain must spell a goal word exactly.
        tag = is_special(YES_INST, term("m(a(alpha(x1)),x2)", YES_TH, 2))
        assert not tag.special

    @pytest.mark.parametrize(
        "text",
        ["m(a(b(alpha(x1))),alpha(x2))", "m(a(b(alpha(a(x1)))),x2)", "m(m(x1,x2),a(x3))"],
    )
    def test_pair_with_non_special_part_not_special(self, text):
        # A marked pair over a non-special second argument or below its
        # chain, and a plain pair over a non-special argument.
        tag = is_special(YES_INST, term(text, YES_TH, 3))
        assert not tag.special and tag.preimage is None

    def test_preimage_reconstructs(self):
        i = seed_interpretation(NO_INST)
        for s in enumerate_linear_regular(SEED, 7, 3):
            image = extend(i, s)
            tag = is_special(NO_INST, image)
            assert tag.special
            assert extend(i, tag.preimage) == image

    def test_preimage_unambiguous_on_no_instance(self):
        i = seed_interpretation(NO_INST)
        seen = {}
        for s in enumerate_linear_regular(SEED, 7, 3):
            image = extend(i, s)
            assert image not in seen
            seen[image] = s
            assert is_special(NO_INST, image).preimage == s


class TestHatExamples:
    def test_variable_fixed(self):
        out = hat(YES_INST, term("x1", YES_TH, 1), oracle_for(YES_INST))
        assert out.term == term("x1", YES_TH, 1)
        assert out.clean

    def test_unary_layers_stripped(self):
        out = hat(YES_INST, term("a(m(x1,x2))", YES_TH, 2), oracle_for(YES_INST))
        assert render_term(out.term.term) == "m(x1,x2)"
        assert out.clean

    def test_marker_chain_without_pair_vanishes(self):
        out = hat(YES_INST, term("a(alpha(x1))", YES_TH, 1), oracle_for(YES_INST))
        assert out.term == term("x1", YES_TH, 1)

    def test_equivalent_chain_snaps_to_goal_word(self):
        out = hat(YES_INST, term("m(b(a(alpha(x1))),x2)", YES_TH, 2), oracle_for(YES_INST))
        assert render_term(out.term.term) == "m(a(b(alpha(x1))),x2)"
        assert out.clean

    def test_yes_instance_merges_both_images(self):
        i = seed_interpretation(YES_INST)
        oracle = oracle_for(YES_INST)
        left = hat(YES_INST, i.image_of("l"), oracle)
        right = hat(YES_INST, i.image_of("r"), oracle)
        assert left.term == right.term == i.image_of("l")
        assert left.clean and right.clean

    def test_no_instance_keeps_images_apart(self):
        i = seed_interpretation(NO_INST)
        oracle = oracle_for(NO_INST)
        left = hat(NO_INST, i.image_of("l"), oracle)
        right = hat(NO_INST, i.image_of("r"), oracle)
        assert left.term == i.image_of("l")
        assert right.term == i.image_of("r")
        assert left.term != right.term

    def test_decision_log_carries_certificates(self):
        out = hat(YES_INST, term("m(b(a(alpha(x1))),x2)", YES_TH, 2), oracle_for(YES_INST))
        assert len(out.decisions) == 1
        d = out.decisions[0]
        assert d["clause"] == "u"
        assert d["queries"][0]["answer"] == "yes"
        assert d["queries"][0]["derivation"] is not None

    def test_doc_shape(self):
        out = hat(YES_INST, term("m(x1,x2)", YES_TH, 2), oracle_for(YES_INST))
        doc = out.to_doc()
        assert set(doc) >= {"term", "warnings", "decisions"}


class TestHatFixesSpecialTerms:
    def test_no_instance_images_fixed_without_warnings(self):
        i = seed_interpretation(NO_INST)
        oracle = oracle_for(NO_INST)
        for s in enumerate_linear_regular(SEED, 7, 3):
            image = extend(i, s)
            out = hat(NO_INST, image, oracle)
            assert out.term == image
            assert out.clean

    def test_yes_instance_u_marked_terms_fixed(self):
        i = seed_interpretation(YES_INST)
        oracle = oracle_for(YES_INST)
        image = extend(i, term("m(l(x1,x2),x3)", SEED, 3))
        out = hat(YES_INST, image, oracle)
        assert out.term == image and out.clean


def no_inst_terms(max_leaves=10):
    th = NO_TH
    by_name = th.symbols_by_name()
    base = st.sampled_from([Var(1), Var(2), Var(3)])
    unary = [by_name["a"], by_name["b"], by_name["alpha"]]
    pair = by_name["m"]

    def build(children):
        return st.one_of(
            st.builds(lambda s, t: App(s, (t,)), st.sampled_from(unary), children),
            st.builds(lambda a, b: App(pair, (a, b)), children, children),
        )

    return st.recursive(base, build, max_leaves=max_leaves).map(
        lambda t: TermInContext(t, 3)
    )


class TestHatProperties:
    @settings(max_examples=120, deadline=None)
    @given(no_inst_terms())
    def test_result_is_special(self, t):
        oracle = oracle_for(NO_INST)
        out = hat(NO_INST, t, oracle)
        assert is_special(NO_INST, out.term).special

    @settings(max_examples=120, deadline=None)
    @given(no_inst_terms())
    def test_idempotent(self, t):
        oracle = oracle_for(NO_INST)
        once = hat(NO_INST, t, oracle)
        twice = hat(NO_INST, once.term, oracle)
        assert twice.term == once.term

    @settings(max_examples=120, deadline=None)
    @given(no_inst_terms())
    def test_variable_occurrences_preserved(self, t):
        oracle = oracle_for(NO_INST)
        out = hat(NO_INST, t, oracle)
        assert var_occurrences(out.term) == var_occurrences(t)

    @settings(max_examples=80, deadline=None)
    @given(no_inst_terms())
    def test_yes_instance_result_special_too(self, t):
        retagged = TermInContext(t.term, t.context_len)
        oracle = oracle_for(YES_INST)
        out = hat(YES_INST, retagged, oracle)
        assert is_special(YES_INST, out.term).special


class TestHatOracleBranches:
    def test_unknown_forces_fallthrough_with_warning(self):
        # Both goal-word classes are infinite here, so a shallow oracle
        # cannot certify a(..) != b(..) and must fall through.
        inst = instance(["a", "b"], [("ab", "ba"), ("a", "aa")], ("a", "b"))
        th = compile_reduction(inst)
        t = TermInContext(parse_term("m(b(alpha(x1)),x2)", th.symbols_by_name()), 2)
        out = hat(inst, t, WordOracle(inst, depth=3))
        assert render_term(out.term.term) == "m(x1,x2)"
        assert len(out.warnings) == 1

    def test_transitive_yes_used_without_warning(self):
        # u ~ w is out of reach at depth 1, but v ~ w and u ~ v both land,
        # so the chain still snaps to the u spelling.
        inst = instance(["a", "b", "c"], [("a", "b"), ("b", "c")], ("a", "b"))
        th = compile_reduction(inst)
        t = TermInContext(parse_term("m(c(alpha(x1)),x2)", th.symbols_by_name()), 2)
        out = hat(inst, t, WordOracle(inst, depth=1))
        assert render_term(out.term.term) == "m(a(alpha(x1)),x2)"
        assert out.clean
        assert out.decisions[0]["clause"] == "u"

    def test_chain_undecided_against_both_goal_words_warns(self):
        t = term("m(a(b(alpha(x1))),x2)", NO_TH, 2)
        out = hat(NO_INST, t, UnknownOracle())
        assert render_term(out.term.term) == "m(x1,x2)"
        assert out.warnings == ("chain 'ab' undecided against the goal words",)
        assert out.decisions[0]["clause"] == "pair"
        assert len(out.decisions[0]["queries"]) == 2

    def test_inconsistent_oracle_detected(self):
        # Claims a != ab (certified) yet b ~ ab and a ~ b; transitivity
        # contradicts the certificate.
        class LyingOracle:
            def equiv(self, w1, w2):
                if frozenset((w1, w2)) == frozenset({("a",), ("a", "b")}):
                    return outcome(EXHAUSTED)
                return outcome(FOUND)

        t = TermInContext(parse_term("m(a(b(alpha(x1))),x2)", NO_TH.symbols_by_name()), 2)
        with pytest.raises(OracleInconsistencyError):
            hat(NO_INST, t, LyingOracle())

    def test_query_answers_name_the_statuses(self):
        # u ~ w is refuted and v ~ w proved, but u ~ v is undecided: the
        # three queries' documents read the three answers.
        statuses = {(("a",), ("a", "b")): EXHAUSTED, (("b",), ("a", "b")): FOUND, (("a",), ("b",)): BOUNDS}

        class StatusOracle:
            def equiv(self, w1, w2):
                return outcome(statuses[(w1, w2)])

        t = term("m(a(b(alpha(x1))),x2)", NO_TH, 2)
        out = hat(NO_INST, t, StatusOracle())
        assert [q["answer"] for q in out.decisions[0]["queries"]] == ["no", "yes", "unknown"]
        assert out.decisions[0]["clause"] == "pair"
        assert out.warnings == ("goal words match chain 'ab' but their own equivalence is undecided",)


class TestHatRejectsForeignSymbols:
    # A symbol outside the compiled theory has no clause, so hat cannot
    # return a special term for it.
    @pytest.mark.parametrize(
        "sym, args",
        [
            (Symbol("f", 1), (Var(1),)),
            (Symbol("a", 2), (Var(1), Var(2))),
            (Symbol("m", 1), (Var(1),)),
        ],
        ids=["f/1", "a/2", "m/1"],
    )
    def test_foreign_symbol_is_value_error(self, sym, args):
        t = TermInContext(App(sym, args), 2)
        with pytest.raises(ValueError, match=f"symbol '{sym.name}' of arity {sym.arity} is not in"):
            hat(YES_INST, t, oracle_for(YES_INST))


class TestWordOracle:
    def test_yes_carries_derivation(self):
        ans = oracle_for(YES_INST).equiv(("a", "b"), ("b", "a"))
        assert ans.found
        assert ans.derivation is not None and len(ans.derivation.steps) == 1

    def test_certified_no(self):
        ans = oracle_for(NO_INST).equiv(("a",), ("b",))
        assert ans.status == EXHAUSTED and ans.certified

    def test_unknown_when_classes_blow_up(self):
        inst = instance(["a"], [("a", "aa")], ("a", "a"))
        ans = WordOracle(inst, depth=2).equiv(("a",), ("a", "a", "a", "a", "a"))
        assert ans.status == BOUNDS and not ans.certified

    def test_memoized_in_asked_order_only(self):
        # A repeat of the asked pair is a memo hit; the reversed pair is a
        # new search, whose derivation starts at its own first word.
        oracle = oracle_for(YES_INST)
        first = oracle.equiv(("a", "b"), ("b", "a"))
        assert oracle.searches == 1
        assert oracle.equiv(("a", "b"), ("b", "a")) is first
        assert oracle.searches == 1
        flipped = oracle.equiv(("b", "a"), ("a", "b"))
        assert oracle.searches == 2
        assert flipped.found
        assert flipped.derivation.start == ("b", "a")

    def test_answer_docs(self):
        # The oracle answers with the string search's own outcome and
        # document, derivation included.
        ans = oracle_for(YES_INST).equiv(("a", "b"), ("b", "a"))
        assert ans == word_bfs(YES_INST, ("a", "b"), ("b", "a"), depth=8)
        doc = ans.to_doc()
        assert doc["status"] == FOUND and doc["derivation"] is not None


class TestCheckHatCongruence:
    def _goal_step_derivation(self, inst, th):
        i = seed_interpretation(inst)
        start = i.image_of("l")
        step = RewriteStep(
            goal_axiom_index(inst),
            LR,
            (),
            (TermInContext(Var(1), 2), TermInContext(Var(2), 2)),
        )
        return Derivation(start, (step,), apply_step(start, th, step))

    def test_goal_step_congruent_on_yes_instance(self):
        d = self._goal_step_derivation(YES_INST, YES_TH)
        out = check_hat_congruence(YES_INST, d)
        assert out.status == HAT_FOUND
        assert out.congruent
        assert out.start_hat.term == out.proof.derivation.start

    def test_relation_step_congruent(self):
        th = YES_TH
        start = term("a(b(alpha(x1)))", th, 1)
        step = RewriteStep(0, LR, (), (term("alpha(x1)", th, 1),))
        d = Derivation(start, (step,), apply_step(start, th, step))
        out = check_hat_congruence(YES_INST, d)
        assert out.status == HAT_FOUND

    def test_invalid_derivation_rejected(self):
        d = self._goal_step_derivation(YES_INST, YES_TH)
        bad = Derivation(d.start, d.steps, d.start)
        with pytest.raises(ValueError):
            check_hat_congruence(YES_INST, bad)

    def test_no_instance_derivations(self):
        rng = random.Random(19)
        oracle = oracle_for(NO_INST)
        for _ in range(40):
            start = TermInContext(random_term(rng, NO_TH, 10, 2), 2)
            d = random_walk(rng, NO_TH, start, 4, term_size(start.term) + 8)
            out = check_hat_congruence(NO_INST, d, oracle=oracle)
            assert out.status == HAT_FOUND

    def test_unknown_oracle_answer_is_uncertain(self):
        d = self._goal_step_derivation(NO_INST, NO_TH)
        out = check_hat_congruence(NO_INST, d, oracle=UnknownOracle())
        assert out.status == HAT_UNCERTAIN
        assert not out.congruent
        assert out.start_hat.warnings and out.end_hat.warnings

    def test_hats_apart_are_not_found(self):
        # The oracle spells ab as the goal word a and ba as b, so the hats
        # of one relation step are m(a(alpha(x1)),x2) and
        # m(b(alpha(x1)),x2), which no proof joins on the no-instance.
        answers = {(("a",), ("a", "b")): FOUND, (("b",), ("b", "a")): FOUND}

        class SplittingOracle:
            def equiv(self, w1, w2):
                return outcome(answers.get((w1, w2), EXHAUSTED))

        start = term("m(a(b(alpha(x1))),x2)", NO_TH, 2)
        step = RewriteStep(0, LR, (0,), (term("alpha(x1)", NO_TH, 2),))
        d = Derivation(start, (step,), apply_step(start, NO_TH, step))
        out = check_hat_congruence(NO_INST, d, oracle=SplittingOracle())
        assert render_term(out.start_hat.term.term) == "m(a(alpha(x1)),x2)"
        assert render_term(out.end_hat.term.term) == "m(b(alpha(x1)),x2)"
        assert out.status == HAT_NOT_FOUND
        assert out.proof.status == EXHAUSTED

    def test_reduction_compiled_once(self, monkeypatch):
        # Repeated checks on one instance share its compiled theory, so its
        # expansion function is generated once, not once per call.
        calls = []
        expand_code = rewrite._expand_code

        def counted(sides):
            calls.append(sides)
            return expand_code(sides)

        monkeypatch.setattr(rewrite, "_expand_code", counted)
        reduction._compiled.cache_clear()
        d = self._goal_step_derivation(YES_INST, YES_TH)
        for _ in range(5):
            assert check_hat_congruence(YES_INST, d).congruent
        assert len(calls) == 1

    def test_doc_shape(self):
        d = self._goal_step_derivation(YES_INST, YES_TH)
        doc = check_hat_congruence(YES_INST, d).to_doc()
        assert set(doc) >= {"status", "start_hat", "end_hat"}
