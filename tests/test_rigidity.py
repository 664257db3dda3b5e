import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidlab.rewrite as rewrite
import rigidlab.rigidity as rigidity
from oracles import (
    naive_all_terms,
    naive_instantiate,
    naive_one_step,
    naive_one_way,
    naive_replay,
    random_term,
    term_key,
)
from rigidlab.reduction import compile_reduction, instance, seed_theory
from rigidlab.rewrite import (
    BOUNDS,
    DEFAULT_NODE_BUDGET,
    DEFAULT_SLACK,
    EXHAUSTED,
    FOUND,
    Derivation,
    RewriteStep,
    bounded_closure,
    replay,
    reverse_derivation,
)
from rigidlab.rigidity import (
    FlabbyReport,
    FlabbySearchResult,
    _shapes,
    enumerate_linear_regular,
    search_flabby,
    verify_report,
)
from rigidlab.terms import (
    App,
    Permutation,
    TermInContext,
    Var,
    canonical,
    is_linear_regular,
    parse_term,
    render_term,
    substitute_simple,
    term_size,
)
from rigidlab.theory import Equation, Theory, parse_equation, parse_theory

SEED = seed_theory()
COMMUTES = instance(["a", "b"], [("ab", "ba")], ("ab", "ba"))
NOT_COMMUTES = instance(["a", "b"], [("ab", "ba")], ("a", "b"))
IDEMPOTENT = instance(["a"], [("a", "aa")], ("a", "aa"))
SINGLE = instance(["a"], [], ("a", "a"))

TERNARY = parse_theory("symbol c 0\nsymbol u 1\nsymbol t 3\n")

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

    @staticmethod
    def _brute_force(th, size, max_context):
        """Canonical linear-regular terms of one size, by brute force."""
        out = []
        for term in naive_all_terms(th, size, max_context):
            seen = []
            TestEnumerate._first_occurrences(term, seen)
            if seen != list(range(1, len(seen) + 1)):
                continue
            t = TermInContext(term, len(seen))
            if is_linear_regular(t):
                out.append(t)
        return out

    def test_matches_brute_force(self):
        # Every canonical term of size <= 7, in order: by size, then by the
        # reference pre-order key within a size.
        cases = [(SEED, 3), (compile_reduction(COMMUTES), 3)]
        cases += [(TERNARY, max_context) for max_context in (0, 2, 5)]
        for th, max_context in cases:
            want = []
            for size in range(1, 8):
                batch = self._brute_force(th, size, max_context)
                batch.sort(key=lambda t: term_key(t.term, th))
                want.extend(batch)
            assert list(enumerate_linear_regular(th, 7, max_context)) == want

    def test_shapes_are_in_key_order_across_sizes(self):
        # The conservativity probe ranks canonical terms of different sizes
        # by their index in one _shapes list; that index must be key order.
        for th, max_context in ((TERNARY, 2), (compile_reduction(COMMUTES), 3)):
            want = [t for size in range(1, 7) for t in self._brute_force(th, size, max_context)]
            want.sort(key=lambda t: term_key(t.term, th))
            assert list(_shapes(th, 6, 1, max_context, {})) == [t.term for t in want]

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
        # At depth 1 the closure of the witness holds m(b(a(alpha(x1))),x2)
        # and its swap, so the two join into the two-step witness that
        # depth 6 finds directly.
        th = compile_reduction(COMMUTES)
        out = search_flabby(th, max_size=8, max_context=3, depth=1)
        assert out.status == FOUND
        assert render_term(out.report.term.term) == "m(a(b(alpha(x1))),x2)"
        assert out.report.permutation.images == (2, 1)
        assert len(out.report.derivation.steps) == 2
        assert verify_report(out.report, th)
        assert naive_replay(out.report.derivation, th)
        # The shortest witness of aab = baa takes three steps, more than
        # two closure paths of depth 1 join, so the sweep must say a bound
        # cut it, not certify a non-rigid theory rigid.
        th = compile_reduction(instance(["a", "b"], [("ab", "ba")], ("aab", "baa")))
        assert len(search_flabby(th, max_size=9, max_context=3, depth=6).report.derivation.steps) == 3
        out = search_flabby(th, max_size=9, max_context=3, depth=1)
        assert out.status == BOUNDS
        assert out.depth_hit
        assert not out.caps_hit and not out.budget_hit
        assert out.to_doc()["certificate"]["depth_hit"] is True

    def test_joined_witness_reverses_a_two_step_path(self):
        # Both entries lie two steps from the witness term, so the renamed
        # path to the first must be read backwards to reach rho(t).
        th = compile_reduction(instance(["a", "b"], [("ab", "ba")], ("aba", "baa")))
        out = search_flabby(th, max_size=9, max_context=3, depth=2)
        assert out.status == FOUND
        assert render_term(out.report.term.term) == "m(a(a(b(alpha(x1)))),x2)"
        assert out.report.permutation.images == (2, 1)
        assert len(out.report.derivation.steps) == 4
        assert verify_report(out.report, th)
        assert naive_replay(out.report.derivation, th)

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


def image_loop_search(th, *, max_size, max_context, depth, slack, node_budget, collisions=True):
    """search_flabby as it was before the closure scan: every non-identity
    permutation image of a canonical term, in lexicographic order of image
    tuples, is built and tested for membership in the term's closure.

    With collisions, on a theory with no one-way axiom, a closure that holds
    no image of t still gives a witness when an entry v of t's size is the
    image rho(u) of an earlier entry u, trying every pair against every
    image, with no canonical form: the first such v, with the first such u.
    The witness joins the path to v with the path to u, renamed by rho and
    reversed."""
    bounds_doc = {
        "max_size": max_size,
        "max_context": max_context,
        "depth": depth,
        "slack": slack,
        "node_budget": node_budget,
    }
    enumerated = closures = total = largest = 0
    caps = budget = cut = False
    collisions = collisions and not naive_one_way(th)
    for t in enumerate_linear_regular(th, max_size, max_context):
        enumerated += 1
        n = t.context_len
        if n < 2:
            continue
        cl = bounded_closure(
            th, t, depth, size_cap=term_size(t.term) + slack, node_budget=node_budget
        )
        closures += 1
        total += len(cl.entries)
        largest = max(largest, len(cl.entries))
        caps = caps or cl.cap_hit
        budget = budget or cl.budget_hit
        cut = cut or not (cl.exhausted or cl.budget_hit)
        for sigma in Permutation.all_of(n):
            if sigma.is_identity():
                continue
            target = substitute_simple(t, sigma)
            if target in cl:
                report = FlabbyReport(t, sigma, cl.derivation_to(target))
                return FlabbySearchResult(
                    FOUND, report, enumerated, closures, total, largest, caps, budget, cut,
                    bounds_doc,
                )
        report = collision_witness(cl) if collisions else None
        if report is not None:
            return FlabbySearchResult(
                FOUND, report, enumerated, closures, total, largest, caps, budget, cut, bounds_doc
            )
    status = BOUNDS if caps or budget or cut else EXHAUSTED
    return FlabbySearchResult(
        status, None, enumerated, closures, total, largest, caps, budget, cut, bounds_doc
    )


def collision_witness(cl):
    """The report from the first entry v of the start's size that renames an
    earlier entry u, v = rho(u), or None."""
    t = cl.start
    level = [u for u in cl.entries if term_size(u.term) == term_size(t.term)]
    for j, v in enumerate(level):
        for u in level[:j]:
            for rho in Permutation.all_of(t.context_len):
                if not rho.is_identity() and substitute_simple(u, rho) == v:
                    renamed = Derivation(
                        substitute_simple(t, rho),
                        tuple(rename_step(s, rho) for s in cl.derivation_to(u).steps),
                        v,
                    )
                    back = reverse_derivation(renamed)
                    d = Derivation(t, cl.derivation_to(v).steps + back.steps, back.end)
                    return FlabbyReport(t, rho, d)
    return None


def rename_step(s, rho):
    return RewriteStep(
        s.axiom_index, s.direction, s.position, tuple(substitute_simple(u, rho) for u in s.subst)
    )


def scan_doc(result):
    """A search's document without classes_shared: image_loop_search runs
    every closure, so it shares no class."""
    doc = result.to_doc()
    del doc["certificate"]["classes_shared"]
    return doc


def assert_status_from_flags(result):
    """With no witness, a search is exhausted exactly when no closure set a
    flag: a closure that ran is incomplete exactly when it sets one."""
    if not result.found:
        flagged = result.caps_hit or result.budget_hit or result.depth_hit
        assert (result.status == EXHAUSTED) == (not flagged)


# Axioms for random theories: non-linear sides (a closure entry may then
# repeat a variable, which no permutation image does), flabby ones in two
# and three variables, and a unary and a nullary symbol to vary the shapes.
FLABBY_POOL = parse_theory(
    "symbol c 0\nsymbol u 1\nsymbol m 2\n"
    "axiom [2] m(x1,x2) = m(x1,x1)\n"
    "axiom [1] m(x1,x1) = u(x1)\n"
    "axiom [2] m(x1,x2) = m(x2,x1)\n"
    "axiom [3] m(x1,m(x2,x3)) = m(x2,m(x1,x3))\n"
    "axiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\n"
    "axiom [2] m(u(x1),x2) = u(m(x2,x1))\n"
    "axiom [0] u(c()) = c()\n"
)


@st.composite
def flabby_case(draw):
    """A theory drawn from FLABBY_POOL, always with a non-linear axiom, plus
    random axioms."""
    rng = random.Random(draw(st.integers(0, 2**20)))
    picks = [draw(st.sampled_from(FLABBY_POOL.axioms[:2]))]
    picks += draw(st.lists(st.sampled_from(FLABBY_POOL.axioms), max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        k = rng.randint(0, 3)
        lhs, rhs = (random_term(rng, FLABBY_POOL, rng.randint(1, 5), k) for _ in "lr")
        picks.append(Equation(TermInContext(lhs, k), TermInContext(rhs, k)))
    rng.shuffle(picks)
    return Theory(FLABBY_POOL.signature, tuple(picks))


# f(x1,x2) = g(g(x1)) is one-way: its right side does not mention x2.
ONE_WAY = parse_theory(
    "symbol c 0\nsymbol k 2\nsymbol f 2\nsymbol g 1\n"
    "axiom [2] f(x1,x2) = g(g(x1))\n"
    "axiom [2] k(g(g(x1)),x2) = k(g(g(x2)),x1)\n"
)


# Pairs of two-way axioms under which some closure holds two renamings of
# one term before it holds a renaming of its start.
COLLIDING = tuple(
    tuple(parse_equation(text, FLABBY_POOL) for text in pair)
    for pair in (
        ("[3] m(m(x1,x2),x3) = m(x1,m(x2,x3))", "[3] m(x1,m(x2,x3)) = m(m(x2,x1),x3)"),
        ("[2] m(u(x1),x2) = m(x2,u(x1))", "[2] m(x1,u(x2)) = m(u(x1),x2)"),
        ("[2] m(u(x1),x2) = u(m(x2,x1))", "[2] m(u(x1),x2) = m(x2,u(x1))"),
        ("[3] m(x1,m(x2,x3)) = m(x2,m(x1,x3))", "[1] u(u(x1)) = m(x1,c())"),
    )
)


@st.composite
def symmetric_case(draw):
    """A theory with no one-way axiom: a pair from COLLIDING, perhaps one of
    pool axioms 1 to 6, all two-way, and random axioms that are not
    one-way."""
    rng = random.Random(draw(st.integers(0, 2**20)))
    picks = list(draw(st.sampled_from(COLLIDING)))
    picks += draw(st.lists(st.sampled_from(FLABBY_POOL.axioms[1:]), max_size=1))
    for _ in range(draw(st.integers(0, 2))):
        k = rng.randint(0, 3)
        for _ in range(50):
            lhs, rhs = (random_term(rng, FLABBY_POOL, rng.randint(1, 5), k) for _ in "lr")
            eq = Equation(TermInContext(lhs, k), TermInContext(rhs, k))
            if not naive_one_way(Theory(FLABBY_POOL.signature, (eq,))):
                picks.append(eq)
                break
    rng.shuffle(picks)
    return Theory(FLABBY_POOL.signature, tuple(picks))


# A side rooted at a variable, which matches everywhere, and a one-way
# axiom: the right side of m(x1,x2) = u(x1) does not mention x2.
GUARD_AXIOMS = tuple(
    parse_equation(text, FLABBY_POOL) for text in ("[1] x1 = u(x1)", "[2] m(x1,x2) = u(x1)")
)


class TestClosureScan:
    @settings(max_examples=60, deadline=None)
    @given(flabby_case(), st.integers(0, 3), st.sampled_from((1, 400)))
    def test_matches_image_loop(self, th, depth, node_budget):
        # Depth 0 and a budget of 1 leave an inert term's closure
        # incomplete, so search_flabby must run it.
        bounds = dict(max_size=5, max_context=3, depth=depth, slack=2, node_budget=node_budget)
        got = search_flabby(th, **bounds)
        want = image_loop_search(th, **bounds)
        assert scan_doc(got) == scan_doc(want)
        assert_status_from_flags(got)

    @pytest.mark.parametrize("guard", GUARD_AXIOMS, ids=("variable_root", "one_way"))
    def test_guard_axioms_match_image_loop(self, guard):
        for k in (1, 3):
            th = Theory(FLABBY_POOL.signature, (guard,) + FLABBY_POOL.axioms[1:k])
            for depth in range(4):
                for node_budget in (1, 400):
                    bounds = dict(
                        max_size=5, max_context=3, depth=depth, slack=2, node_budget=node_budget
                    )
                    got = search_flabby(th, **bounds)
                    assert scan_doc(got) == scan_doc(image_loop_search(th, **bounds))
                    assert_status_from_flags(got)

    def test_whole_pool_matches_image_loop(self):
        bounds = dict(max_size=5, max_context=3, depth=2, slack=2, node_budget=400)
        for k in range(len(FLABBY_POOL.axioms)):
            th = Theory(FLABBY_POOL.signature, FLABBY_POOL.axioms[: k + 1])
            got = search_flabby(th, **bounds)
            assert scan_doc(got) == scan_doc(image_loop_search(th, **bounds))

    def test_least_permutation_is_kept(self):
        # Axiom 0 reaches the image (3,2,1) first, but (2,1,3), from axiom 1,
        # is the lexicographically least; with more depth the two compose
        # into (1,3,2).
        th = parse_theory(
            "symbol m 2\n"
            "axiom [3] m(x1,m(x2,x3)) = m(x3,m(x2,x1))\n"
            "axiom [3] m(x1,m(x2,x3)) = m(x2,m(x1,x3))\n"
        )
        bounds = dict(max_size=5, max_context=3, slack=0, node_budget=100)
        for depth, images in ((1, (2, 1, 3)), (3, (1, 3, 2))):
            out = search_flabby(th, depth=depth, **bounds)
            assert render_term(out.report.term.term) == "m(x1,m(x2,x3))"
            assert out.report.permutation.images == images
            assert scan_doc(out) == scan_doc(image_loop_search(th, depth=depth, **bounds))

    def test_shared_classes_match_image_loop(self):
        # Axioms 1 to 6 of the pool are two-way, so complete classes are
        # shared, and sharing must change no document.
        bounds = dict(max_size=5, max_context=3, slack=2, node_budget=400)
        shared = 0
        for pair in itertools.combinations(FLABBY_POOL.axioms[1:], 2):
            th = Theory(FLABBY_POOL.signature, pair)
            for depth in (2, 3):
                got = search_flabby(th, depth=depth, **bounds)
                shared += got.classes_shared
                assert scan_doc(got) == scan_doc(image_loop_search(th, depth=depth, **bounds))
        assert shared > 0

    def test_repeated_variable_is_not_a_witness(self):
        # The closure of m(x1,x2) holds m(x1,x1), which has its size and shape
        # but is no renaming of it.
        th = parse_theory("symbol m 2\naxiom [2] m(x1,x2) = m(x1,x1)\n")
        out = search_flabby(th, max_size=3, max_context=2, depth=3)
        assert out.status == EXHAUSTED
        assert out.report is None
        assert out.closure_terms_total == 2

    def test_theory_compiled_once_per_search(self, monkeypatch):
        calls = []
        compile_sides = rewrite._compile

        def counted(th):
            calls.append(th)
            return compile_sides(th)

        monkeypatch.setattr(rewrite, "_compile", counted)
        th = compile_reduction(COMMUTES)
        out = search_flabby(th, max_size=8, max_context=3, depth=6)
        assert out.status == FOUND and out.closures_computed > 1
        assert calls == [th]

    @settings(max_examples=60, deadline=None)
    @given(symmetric_case(), st.integers(0, 3))
    def test_collision_witnesses(self, th, depth):
        # Two closure paths of at most depth steps join into a witness, so
        # a search finds one no later than the image test alone does, and
        # changes no document where neither rule finds one.  A shared class
        # can still turn the reference's bounds into exhausted, and change
        # its counters, as test_complete_class_strengthens_verdict shows.
        bounds = dict(max_size=5, max_context=3, depth=depth, slack=2, node_budget=400)
        got = search_flabby(th, **bounds)
        want = image_loop_search(th, **bounds)
        assert got.to_doc()["report"] == want.to_doc()["report"]
        if got.found:
            report = got.report
            d = report.derivation
            assert naive_replay(d, th) and len(d.steps) <= 2 * depth
            swap = {i + 1: Var(v) for i, v in enumerate(report.permutation.images)}
            assert d.start == report.term and d.end.term == naive_instantiate(report.term.term, swap)
        plain = image_loop_search(th, collisions=False, **bounds)
        if plain.found:
            rank = {t.term: i for i, t in enumerate(enumerate_linear_regular(th, 5, 3))}
            assert rank[got.report.term.term] <= rank[plain.report.term.term]
            if got.report.term == plain.report.term:
                assert scan_doc(got) == scan_doc(plain)
        elif plain.status == EXHAUSTED or not (want.found or got.classes_shared):
            assert scan_doc(got) == scan_doc(plain)

    def test_collision_renames_by_a_three_cycle(self):
        # h(x1,x2,x3) and h(x2,x3,x1) differ by a permutation that is not
        # its own inverse, so the witness must rename the first into the
        # second, not back.
        th = parse_theory(
            "symbol k 3\nsymbol h 3\n"
            "axiom [3] k(x1,x2,x3) = h(x1,x2,x3)\n"
            "axiom [3] k(x1,x2,x3) = h(x2,x3,x1)\n"
        )
        bounds = dict(max_size=4, max_context=3, depth=1, slack=0, node_budget=100)
        out = search_flabby(th, **bounds)
        assert render_term(out.report.term.term) == "k(x1,x2,x3)"
        assert out.report.permutation.images == (2, 3, 1)
        assert len(out.report.derivation.steps) == 2
        assert naive_replay(out.report.derivation, th)
        assert scan_doc(out) == scan_doc(image_loop_search(th, **bounds))

    def test_one_way_axiom_finds_no_collision(self):
        # The closure of k(f(x1,x2),x3) holds k(g(g(x1)),x3) and its swap,
        # but the one-way step to them cannot be taken back, so the pair
        # decides nothing: the search goes on to the direct witness
        # k(g(g(x1)),x2), and the document is the one the image test alone
        # gives.
        th = ONE_WAY
        t = TermInContext(parse_term("k(f(x1,x2),x3)", th.symbols_by_name()), 3)
        cl = bounded_closure(th, t, 2, size_cap=term_size(t.term) + DEFAULT_SLACK)
        forms = Counter(canonical(u.term)[0] for u in cl.entries if u.term.size == t.term.size)
        assert sorted(forms.values()) == [1, 2]
        out = search_flabby(th, max_size=5, max_context=3, depth=2)
        assert out.to_doc() == {
            "status": FOUND,
            "report": {
                "term": "k(g(g(x1)),x2)",
                "context_len": 2,
                "permutation": [2, 1],
                "derivation": {
                    "context_len": 2,
                    "start": "k(g(g(x1)),x2)",
                    "end": "k(g(g(x2)),x1)",
                    "steps": [{"axiom": 1, "direction": "LR", "position": [], "subst": ["x1", "x2"]}],
                },
            },
            "certificate": {
                "terms_enumerated": 81,
                "closures_computed": 27,
                "closure_terms_total": 44,
                "max_closure": 3,
                "caps_hit": False,
                "budget_hit": False,
                "depth_hit": True,
                "classes_shared": 0,
            },
            "bounds": {"max_size": 5, "max_context": 3, "depth": 2, "slack": 8, "node_budget": 1_000_000},
        }


def closures_run(monkeypatch) -> list:
    """The start of every closure search_flabby runs from now on."""
    starts = []
    run = rigidity.bounded_closure

    def counted(th, start, *args, **kw):
        starts.append(start)
        return run(th, start, *args, **kw)

    monkeypatch.setattr(rigidity, "bounded_closure", counted)
    return starts


def inert_terms(th, max_size, max_context, count=None) -> int:
    """The enumerated terms with two or more variables that have no one-step
    rewrite, by the reference relation; only the first count terms when
    count is given."""
    terms = itertools.islice(enumerate_linear_regular(th, max_size, max_context), count)
    return sum(1 for t in terms if t.context_len >= 2 and not naive_one_step(t, th))


class TestSharedClasses:
    """A complete class decides the canonical form of each of its entries, so
    a later term in it runs no closure of its own, on a theory whose one-step
    relation is symmetric.  An inert term, which no step rewrites, runs none
    either: its class is itself."""

    def test_no_instance_counts(self, monkeypatch):
        run = closures_run(monkeypatch)
        th = compile_reduction(NOT_COMMUTES)
        out = search_flabby(th, max_size=8, max_context=3, depth=6)
        assert out.status == BOUNDS
        assert (out.closures_computed, out.classes_shared, len(run)) == (8844, 2376, 1612)
        assert inert_terms(th, 8, 3) == 4856
        assert out.closure_terms_total == 16288

    def test_seed_counts(self, monkeypatch):
        run = closures_run(monkeypatch)
        out = search_flabby(SEED, max_size=9, max_context=4, depth=8)
        assert out.status == EXHAUSTED
        assert (out.closures_computed, out.classes_shared, len(run)) == (156, 106, 42)
        assert inert_terms(SEED, 9, 4) == 8
        assert out.closure_terms_total == 680

    def test_inert_theory_runs_no_closure(self, monkeypatch):
        # No term of five nodes or fewer holds m(m(x1,x2),m(x3,x4)), so no
        # step applies to any, and each is decided as its own class.
        th = parse_theory("symbol m 2\naxiom [4] m(m(x1,x2),m(x3,x4)) = m(m(x2,x1),m(x3,x4))\n")
        bounds = dict(max_size=5, max_context=3, depth=3, slack=2, node_budget=400)
        run = closures_run(monkeypatch)
        out = search_flabby(th, **bounds)
        assert run == []
        assert out.status == EXHAUSTED
        assert out.closures_computed == inert_terms(th, 5, 3) == 3
        assert out.closure_terms_total == 3 and out.max_closure == 1
        assert scan_doc(out) == scan_doc(image_loop_search(th, **bounds))

    def test_complete_class_strengthens_verdict(self):
        # Run on its own, some term's closure still has terms to expand at
        # depth 4; each such term lies in a class that an earlier term's
        # closure completed, so that class decides it.
        th = compile_reduction(instance(["a", "b"], [("aa", "bb")], ("ab", "ba")))
        bounds = dict(
            max_size=7, max_context=3, depth=4, slack=DEFAULT_SLACK, node_budget=DEFAULT_NODE_BUDGET
        )
        every = image_loop_search(th, **bounds)
        assert every.status == BOUNDS and every.depth_hit
        out = search_flabby(th, **bounds)
        assert out.status == EXHAUSTED and not out.depth_hit
        assert out.classes_shared > 0

    def test_one_way_axiom_shares_nothing(self, monkeypatch):
        # f(x1,x2) = g(g(x1)) is one-way, so the class of k(f(x1,c()),x2) is
        # complete yet holds the flabby k(g(g(x1)),x2) and its swap, from
        # which it cannot be reached back.  Sharing that class would clear
        # the witness and certify the theory rigid.
        th = ONE_WAY
        run = closures_run(monkeypatch)
        out = search_flabby(th, max_size=5, max_context=2, depth=4)
        assert out.status == FOUND
        assert render_term(out.report.term.term) == "k(g(g(x1)),x2)"
        assert out.classes_shared == 0
        inert = inert_terms(th, 5, 2, out.terms_enumerated)
        assert inert > 0
        assert len(run) + inert == out.closures_computed


def kernel_sources(th) -> list:
    """The sources of th's expansion sides."""
    return [(th.axioms[ai].lhs if d == "LR" else th.axioms[ai].rhs).term for ai, d, _, _ in rewrite._kernel(th)[0]]


def is_linear_term(term) -> bool:
    occurrences = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            occurrences.append(t.index)
        else:
            stack.extend(t.args)
    return len(occurrences) == len(set(occurrences))


def automaton_state(auto, term) -> int:
    """term's state, its subterms labelled first."""
    if term not in auto.states:
        if isinstance(term, App):
            for a in term.args:
                automaton_state(auto, a)
        auto.label([term])
    return auto.states[term]


# Small theories for the counting recurrence: an arity-0 and an arity-3
# symbol, a ground subterm in a source and a ground source; a side rooted at
# a variable; and a source that repeats a variable.
COUNT_THEORIES = {
    "ternary_ground": parse_theory(
        "symbol c 0\nsymbol u 1\nsymbol t 3\n"
        "axiom [2] t(x1,c(),x2) = t(x2,c(),x1)\n"
        "axiom [0] u(c()) = c()\n"
    ),
    "variable_root": parse_theory("symbol c 0\nsymbol m 2\naxiom [1] x1 = m(x1,c())\n"),
    "repeated_variable": parse_theory(
        "symbol u 1\nsymbol m 2\n"
        "axiom [1] m(x1,x1) = u(x1)\n"
        "axiom [2] m(u(x1),x2) = u(m(x2,x1))\n"
    ),
}


class TestCandidateStream:
    """search_flabby reads only the candidates: terms with two or more
    variables that its matching automaton does not call inert.  The others
    are counted by a recurrence over (size, next variable, state), and the
    stream keeps count of those it skipped before each candidate."""

    @pytest.mark.parametrize("name", sorted(COUNT_THEORIES))
    def test_counts_match_brute_force(self, name):
        th = COUNT_THEORIES[name]
        max_context = 3
        terms = rigidity._enumeration(th, max_context, True)
        auto = terms.auto
        linear = all(is_linear_term(src) for src in kernel_sources(th))
        assert linear == (name != "repeated_variable")
        overcalled = 0
        for size in range(1, 7):
            want_all, want_inert, called_inert = Counter(), Counter(), Counter()
            for t in TestEnumerate._brute_force(th, size, max_context):
                want_all[t.context_len] += 1
                inert = not naive_one_step(t, th)
                want_inert[t.context_len] += inert
                called = auto.inert[automaton_state(auto, t.term)]
                called_inert[t.context_len] += called
                # The automaton never calls a term with a redex inert, and
                # with linear sources it misses no inert term.
                assert inert if called else not (linear and inert)
                overcalled += inert and not called
            got_all, got_inert = Counter(), Counter()
            for (q, w), n in terms.count(size, 1).items():
                got_all[w - 1] += n
                got_inert[w - 1] += n if auto.inert[q] else 0
            assert got_all == want_all
            assert got_inert == called_inert
            if linear:
                assert got_inert == want_inert
        # m(x1,x2) matches m(x1,x1) with x1 read as a wildcard, and no other
        # source, so it is inert and called a redex.
        assert (overcalled > 0) == (name == "repeated_variable")
        if name == "variable_root":
            assert not any(auto.inert)

    @settings(max_examples=60, deadline=None)
    @given(flabby_case(), st.integers(1, 3))
    def test_stream_is_the_filtered_enumeration(self, th, max_context):
        max_size = 5
        every = list(enumerate_linear_regular(th, max_size, max_context))
        rank = {t.term: i for i, t in enumerate(every)}
        want = [t.term for t in every if t.context_len >= 2 and naive_one_step(t, th)]
        terms = rigidity._enumeration(th, max_context, True)
        got = []
        for term in terms.candidates(max_size):
            before = every[: rank[term]]
            one_var = sum(1 for t in before if t.context_len < 2)
            assert terms.skipped_before(term) == (one_var, len(before) - one_var - len(got))
            got.append(term)
        one_var = sum(1 for t in every if t.context_len < 2)
        assert terms.skipped(max_size) == (one_var, len(every) - one_var - len(got))
        if all(is_linear_term(src) for src in kernel_sources(th)):
            assert got == want
        else:
            assert [rank[term] for term in got] == sorted(rank[term] for term in got)
            chosen = set(want)
            assert [term for term in got if term in chosen] == want
            for term in got:
                if term not in chosen:
                    t = TermInContext(term, term.max_var)
                    assert t.context_len >= 2 and not naive_one_step(t, th)
        # With inert terms closed too, every term with two variables is one.
        closed = rigidity._enumeration(th, max_context, False)
        assert list(closed.candidates(max_size)) == [t.term for t in every if t.context_len >= 2]

    def test_top_size_is_streamed(self):
        # No memoised list holds a term of the top size.
        th = compile_reduction(NOT_COMMUTES)
        terms = rigidity._enumeration(th, 3, True)
        assert sum(1 for _ in terms.candidates(8)) == 3988
        plain = rigidity._Enumeration(th, 3)
        assert sum(1 for size in range(1, 9) for _ in plain.of_size(size, 1)) == 12124
        for e in (terms, plain):
            kept = [t for lists in (e.memo, e.lists) for out in lists.values() for t in out]
            assert kept and max(t.size for t in kept) == 7
        # The candidates' last arguments come from lists of only the terms
        # that give the whole term two variables.
        for (_, next_var, two), out in terms.lists.items():
            assert two and all(max(next_var, t.max_var + 1) >= 3 for t in out)


TSEITIN = [("ac", "ca"), ("ad", "da"), ("bc", "cb"), ("bd", "db"), ("eca", "ce"), ("edb", "de"), ("cca", "ccae")]


class TestTseitin:
    """Tseitin's semigroup, whose word problem is undecidable: the one wide
    signature (7 symbols, 8 axioms) the suite sweeps.  Found documents count
    every term enumerated before the witness, so they pin the counters kept
    for terms skipped on the way to it."""

    @pytest.mark.parametrize(
        "goal, size, status, counts, witness",
        [
            (("a", "b"), 6, BOUNDS, (11726, 2395, 3882, 36, True, 319), None),
            (("a", "b"), 7, BOUNDS, (77822, 21835, 54750, 119, True, 4699), None),
            (("ac", "ca"), 6, FOUND, (11150, 1819, 2850, 36, True, 210), "m(a(c(alpha(x1))),x2)"),
            (("eca", "ce"), 6, FOUND, (11390, 2059, 3357, 36, True, 250), "m(c(e(alpha(x1))),x2)"),
        ],
    )
    def test_counts(self, goal, size, status, counts, witness):
        th = compile_reduction(instance(list("abcde"), TSEITIN, goal))
        out = search_flabby(th, max_size=size, max_context=2, depth=6)
        got = (
            out.terms_enumerated,
            out.closures_computed,
            out.closure_terms_total,
            out.max_closure,
            out.depth_hit,
            out.classes_shared,
        )
        assert (out.status, got) == (status, counts)
        assert not out.caps_hit and not out.budget_hit
        if witness is None:
            assert out.report is None
        else:
            assert render_term(out.report.term.term) == witness
            assert out.report.permutation.images == (2, 1)
            assert verify_report(out.report, th)
