import pytest

from oracles import naive_all_terms
from rigidlab.reduction import compile_reduction, instance, seed_theory
from rigidlab.rewrite import Derivation, RewriteStep, replay
from rigidlab.rigidity import (
    FlabbyReport,
    enumerate_linear_regular,
    search_flabby,
    verify_report,
)
from rigidlab.terms import (
    Permutation,
    TermInContext,
    Var,
    is_linear_regular,
    parse_term,
    render_term,
    substitute_simple,
    term_key,
    term_size,
)
from rigidlab.theory import parse_theory

SEED = seed_theory()
COMMUTES = instance(["a", "b"], [("ab", "ba")], ("ab", "ba"))
IDEMPOTENT = instance(["a"], [("a", "aa")], ("a", "aa"))
SINGLE = instance(["a"], [], ("a", "a"))

COMMUTATIVE_M = parse_theory("symbol m 2\naxiom [2] m(x1,x2) = m(x2,x1)\n")


def names(terms):
    return [render_term(t.term) for t in terms]


class TestEnumerate:
    def test_size_one(self):
        assert names(enumerate_linear_regular(SEED, 1, 3)) == ["x1"]

    def test_seed_up_to_size_three(self):
        got = names(enumerate_linear_regular(SEED, 3, 2))
        assert got == ["x1", "l(x1,x2)", "r(x1,x2)", "m(x1,x2)"]

    def test_canonical_excludes_renamings(self):
        got = set(names(enumerate_linear_regular(SEED, 3, 2)))
        assert "l(x2,x1)" not in got

    def test_unary_signature(self):
        th = compile_reduction(SINGLE)
        got = names(enumerate_linear_regular(th, 3, 1))
        assert got == [
            "x1",
            "a(x1)",
            "alpha(x1)",
            "a(a(x1))",
            "a(alpha(x1))",
            "alpha(a(x1))",
            "alpha(alpha(x1))",
        ]

    def test_terms_are_canonical_linear_regular(self):
        for t in enumerate_linear_regular(SEED, 7, 4):
            assert is_linear_regular(t)
            seen = []
            self._first_occurrences(t.term, seen)
            assert seen == list(range(1, t.context_len + 1))

    @staticmethod
    def _first_occurrences(term, seen):
        if isinstance(term, Var):
            if term.index not in seen:
                seen.append(term.index)
            return
        for a in term.args:
            TestEnumerate._first_occurrences(a, seen)

    def test_no_duplicates_and_sizes_ascend(self):
        out = list(enumerate_linear_regular(SEED, 7, 4))
        assert len(set(out)) == len(out)
        sizes = [term_size(t.term) for t in out]
        assert sizes == sorted(sizes)

    def test_matches_brute_force(self):
        # Every canonical term of size <= 7 in context <= 3, in order: by
        # size, then by pre-order key within a size.
        for th in (SEED, compile_reduction(COMMUTES)):
            want = []
            for size in range(1, 8):
                batch = []
                for term in naive_all_terms(th, size, 3):
                    seen = []
                    TestEnumerate._first_occurrences(term, seen)
                    if seen != list(range(1, len(seen) + 1)):
                        continue
                    t = TermInContext(term, len(seen))
                    if is_linear_regular(t):
                        batch.append(t)
                batch.sort(key=lambda t: term_key(t.term, th.symbol_order()))
                want.extend(batch)
            assert list(enumerate_linear_regular(th, 7, 3)) == want

    def test_counts_used_by_rigidity_sweep(self):
        # Sizes 1,3,5,7 contribute 1, 3, 18, 135 canonical terms; even sizes
        # are impossible with an all-binary signature.
        by_size = {}
        for t in enumerate_linear_regular(SEED, 7, 4):
            by_size[term_size(t.term)] = by_size.get(term_size(t.term), 0) + 1
        assert by_size == {1: 1, 3: 3, 5: 18, 7: 135}


class TestVerifyReport:
    def _witness(self):
        out = search_flabby(
            compile_reduction(COMMUTES), max_size=8, max_context=3, depth=6
        )
        assert out.status == "found"
        return out.report, compile_reduction(COMMUTES)

    def test_accepts_genuine_witness(self):
        report, th = self._witness()
        assert verify_report(report, th)

    def test_rejects_identity_permutation(self):
        report, th = self._witness()
        bad = FlabbyReport(
            report.term,
            Permutation.identity(report.term.context_len),
            Derivation(report.term, (), report.term),
        )
        assert not verify_report(bad, th)

    def test_rejects_wrong_endpoint(self):
        report, th = self._witness()
        bad = FlabbyReport(
            report.term,
            report.permutation,
            Derivation(report.term, (), report.term),
        )
        assert not verify_report(bad, th)

    def test_rejects_nonlinear_term(self):
        th = compile_reduction(COMMUTES)
        sym = th.symbols_by_name()
        t = TermInContext(parse_term("m(x1,x1)", sym), 2)
        bad = FlabbyReport(t, Permutation((2, 1)), Derivation(t, (), t))
        assert not verify_report(bad, th)


class TestSearchFlabby:
    def test_seed_is_rigid_in_fragment(self):
        out = search_flabby(SEED, max_size=7, max_context=4, depth=6)
        assert out.status == "exhausted"
        assert out.report is None
        assert not out.caps_hit and not out.budget_hit and not out.depth_hit

    def test_commutative_binary_witness(self):
        out = search_flabby(COMMUTATIVE_M, max_size=3, max_context=2, depth=2)
        assert out.status == "found"
        assert render_term(out.report.term.term) == "m(x1,x2)"
        assert out.report.permutation.images == (2, 1)
        assert len(out.report.derivation.steps) == 1
        assert verify_report(out.report, COMMUTATIVE_M)

    def test_commuting_instance_witness(self):
        th = compile_reduction(COMMUTES)
        out = search_flabby(th, max_size=8, max_context=3, depth=6)
        assert out.status == "found"
        assert render_term(out.report.term.term) == "m(a(b(alpha(x1))),x2)"
        assert out.report.permutation.images == (2, 1)
        assert len(out.report.derivation.steps) == 2
        assert verify_report(out.report, th)

    def test_idempotent_instance_witness(self):
        th = compile_reduction(IDEMPOTENT)
        out = search_flabby(th, max_size=8, max_context=3, depth=6)
        assert out.status == "found"
        assert render_term(out.report.term.term) == "m(a(alpha(x1)),x2)"
        assert verify_report(out.report, th)

    def test_free_instance_fragment_rigid(self):
        th = compile_reduction(instance(["a", "b"], [], ("a", "b")))
        out = search_flabby(th, max_size=5, max_context=2, depth=4)
        assert out.status == "exhausted"
        assert out.report is None

    def test_depth_cut_is_not_exhausted_on_yes_instance(self):
        # Depth 1 is one step short of the two-step witness, so the sweep must
        # say a bound cut it, not certify a non-rigid theory rigid.
        th = compile_reduction(COMMUTES)
        out = search_flabby(th, max_size=8, max_context=3, depth=1)
        assert out.status == "bounds"
        assert out.depth_hit
        assert not out.caps_hit and not out.budget_hit
        assert out.to_doc()["certificate"]["depth_hit"] is True

    def test_depth_zero_is_not_exhausted(self):
        out = search_flabby(SEED, max_size=5, max_context=3, depth=0)
        assert out.status == "bounds"
        assert out.depth_hit

    def test_complete_sweep_has_no_depth_hit(self):
        out = search_flabby(SEED, max_size=7, max_context=4, depth=6)
        assert out.status == "exhausted"
        assert not out.depth_hit
        assert out.to_doc()["certificate"]["depth_hit"] is False

    def test_stats_populated(self):
        out = search_flabby(SEED, max_size=5, max_context=3, depth=4)
        assert out.terms_enumerated > 0
        assert out.closures_computed > 0
        assert out.closure_terms_total >= out.closures_computed
        doc = out.to_doc()
        assert doc["status"] == "exhausted"

    def test_witness_stable_under_relabeling(self):
        # A flabby witness stays one under any renaming of its context: push
        # the permutation through every step substitution and replay.
        th = compile_reduction(COMMUTES)
        out = search_flabby(th, max_size=8, max_context=3, depth=6)
        report = out.report
        n = report.term.context_len
        for rho in Permutation.all_of(n):
            relabel = lambda t: substitute_simple(t, rho)
            steps = tuple(
                RewriteStep(
                    s.axiom_index,
                    s.direction,
                    s.position,
                    tuple(relabel(u) for u in s.subst),
                )
                for s in report.derivation.steps
            )
            d = Derivation(
                relabel(report.derivation.start),
                steps,
                relabel(report.derivation.end),
            )
            assert replay(d, th)
