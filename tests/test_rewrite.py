import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidlab.rewrite as rewrite
from oracles import (
    naive_closure,
    naive_one_step,
    naive_shortest,
    naive_successors,
    random_term,
    random_walk,
)
from rigidlab.rewrite import (
    BOUNDS,
    EXHAUSTED,
    FOUND,
    LR,
    RL,
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
    match_side,
    prove_bounded,
    replay,
    reverse_derivation,
    successors,
    symbol_census,
)
from rigidlab.terms import (
    App,
    Symbol,
    TermInContext,
    Var,
    parse_term,
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


def test_exported_names_exist():
    import rigidlab.rewrite as rewrite

    assert [name for name in rewrite.__all__ if not hasattr(rewrite, name)] == []


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
            close = naive_closure(start, COMPILED_LIKE, 3, term_size(start.term) + 6)
            for target, dist in close.items():
                out = prove_bounded(
                    COMPILED_LIKE, Equation(start, target), 3,
                    size_cap=term_size(start.term) + 6,
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


# Axioms the successor kernel must treat like the oracle: a variable-rooted
# side, an orientation whose source cannot bind its context (x1 alone in
# context 2), a non-linear side, a ground axiom on a nullary symbol, and
# associativity and commutativity.
KERNEL_POOL = parse_theory(
    "symbol c 0\nsymbol u 1\nsymbol m 2\n"
    "axiom [1] x1 = u(x1)\n"
    "axiom [2] x1 = m(x1,x2)\n"
    "axiom [1] m(x1,x1) = u(x1)\n"
    "axiom [0] u(c()) = c()\n"
    "axiom [2] m(x1,x2) = m(x2,x1)\n"
    "axiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\n"
)


@st.composite
def kernel_case(draw):
    """A theory drawn from KERNEL_POOL plus random axioms, a term and a cap."""
    rng = random.Random(draw(st.integers(0, 2**20)))
    picks = draw(st.lists(st.sampled_from(KERNEL_POOL.axioms), max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        k = rng.randint(0, 2)
        lhs, rhs = (random_term(rng, KERNEL_POOL, rng.randint(1, 4), k) for _ in "lr")
        picks.append(Equation(tic(lhs, k), tic(rhs, k)))
    th = Theory(KERNEL_POOL.signature, tuple(picks))
    n = rng.randint(0, 2)
    t = tic(random_term(rng, KERNEL_POOL, rng.randint(1, 7), n), n)
    return th, t, term_size(t.term) + rng.randint(0, 3)


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
        assert len(rewrite._kernel(th)[0]) == sides
        symbols = th.symbols_by_name()
        for n, text in terms:
            t = tic(parse_term(text, symbols), n)
            for cap in range(term_size(t.term), term_size(t.term) + 4):
                self.check_against_oracle(th, t, cap)

    def test_ac_closure_result_count(self, monkeypatch):
        # comm R->L renames comm L->R, so each expanded term of the AC left
        # comb builds 7 result terms at n = 5, not 11.
        built = []
        replace = rewrite.replace_at

        def counted(*args):
            built.append(None)
            return replace(*args)

        monkeypatch.setattr(rewrite, "replace_at", counted)
        ac = parse_theory(
            "symbol m 2\naxiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\naxiom [2] m(x1,x2) = m(x2,x1)\n"
        )
        start = tic(parse_term("m(m(m(m(x1,x2),x3),x4),x5)", ac.symbols_by_name()), 5)
        close = bounded_closure(ac, start, 20)
        assert close.complete and len(close.entries) == 1680
        assert (close.expanded, len(built)) == (1680, 11760)

    @settings(max_examples=150, deadline=None)
    @given(kernel_case())
    def test_matches_oracle(self, case):
        self.check_against_oracle(*case)

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
        out = prove_bounded(th, Equation(lhs, rhs), 4, size_cap=cap)
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


class TestEngineCuts:
    """Every node budget from 1 to 12 and depth from 0 to 4, against the two
    search loops the engine replaced, run over the oracle's successors."""

    def check_sweep(self, th, lhs, rhs, cap):
        memo: dict = {}

        def succ(t):
            if t not in memo:
                memo[t] = naive_successors(t, th, cap)
            return memo[t]

        one_way = has_one_way_axiom(th)
        for depth in range(5):
            for budget in range(1, 13):
                cl = bounded_closure(th, lhs, depth, size_cap=cap, node_budget=budget)
                entries, *flags = loop_closure(succ, lhs, depth, budget)
                got = [(t, d, p, as_witness(s)) for t, (d, p, s) in cl.entries.items()]
                assert got == [(t, *e) for t, e in entries.items()]
                assert cl.start == lhs
                assert [cl.exhausted, cl.cap_hit, cl.budget_hit, cl.expanded, cl.depth_reached] == flags
                out = prove_bounded(th, Equation(lhs, rhs), depth, size_cap=cap, node_budget=budget)
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
        out = prove_bounded(th, goal, 8, size_cap=3)
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
            assert rewrite._kernel(doubled)[1] == rewrite._kernel(th)[1]
        assert not rewrite._kernel(self.COMM)[1]
        assert rewrite._kernel(once)[1]


class TestMatchSide:
    def test_unbound_context_variable(self):
        assert match_side(tic(x(1), 2), App(U, (x(1),)), 1) is None
        assert match_side(tic(x(1), 1), App(U, (x(1),)), 1) == sub(1, App(U, (x(1),)))

    def test_repeated_variable_needs_identical_subterms(self):
        side = tic(App(M, (x(1), x(1))), 1)
        a = App(U, (x(2),))
        assert match_side(side, App(M, (a, App(U, (x(2),)))), 2) == sub(2, a)
        assert match_side(side, App(M, (a, App(U, (x(1),)))), 2) is None
        assert match_side(side, App(M, (x(1), x(2))), 2) is None

    def test_substitution_in_context_order(self):
        side = tic(App(M, (x(2), x(1))), 2)
        target = App(M, (App(U, (x(3),)), x(1)))
        assert match_side(side, target, 3) == sub(3, x(1), App(U, (x(3),)))


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
        out = prove_bounded(
            SEED, Equation(d.start, d.end), len(d.steps),
            size_cap=max(term_size(t.term) for t in (d.start, d.end)) + 10,
        )
        assert out.status == FOUND
        assert len(out.derivation.steps) <= len(d.steps)
