import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_term, term_key
from rigidlab.interp import (
    ConservativityReport,
    Interpretation,
    ProbeFinding,
    check_preserves_axioms,
    compose_interpretations,
    extend,
    identity_interpretation,
    interpretations_equal,
    load_interpretation,
    parse_interpretation,
    probe_conservativity,
    render_interpretation,
)
from rigidlab.reduction import (
    compile_reduction,
    instance,
    seed_interpretation,
    seed_theory,
)
from rigidlab.rewrite import DEFAULT_NODE_BUDGET, DEFAULT_SLACK, EXHAUSTED, FOUND, bounded_closure
from rigidlab.rigidity import enumerate_linear_regular
from rigidlab.terms import (
    App,
    ParseError,
    Permutation,
    TermInContext,
    Var,
    parse_term,
    render_term,
    substitute_simple,
    substitute_terms,
    term_size,
)
from rigidlab.theory import parse_theory

SEED = seed_theory()
COMMUTES = instance(["a", "b"], [("ab", "ba")], ("ab", "ba"))
FREE = instance(["a", "b"], [], ("a", "b"))
TARGET = compile_reduction(COMMUTES)
I_YES = seed_interpretation(COMMUTES)

FREE_M = parse_theory("symbol m 2\n")


def x(i):
    return Var(i)


def tic(t, n):
    return TermInContext(t, n)


def parse(text, th, n):
    return tic(parse_term(text, th.symbols_by_name()), n)


class TestConstruction:
    def test_missing_symbol_rejected(self):
        with pytest.raises(ValueError):
            Interpretation.of(SEED, TARGET, {"l": I_YES.image_of("l")})

    def test_image_symbols_must_be_in_target(self):
        bad = parse("l(x1,x2)", SEED, 2)
        with pytest.raises(ValueError):
            Interpretation.of(
                SEED,
                TARGET,
                {"l": bad, "r": bad, "m": I_YES.image_of("m")},
            )

    def test_image_context_is_arity(self):
        short = parse("m(x1,x1)", TARGET, 1)
        with pytest.raises(ValueError):
            Interpretation.of(
                SEED,
                TARGET,
                {"l": short, "r": short, "m": I_YES.image_of("m")},
            )

    def test_linear_regular_flag_validated(self):
        dup = parse("m(x1,x1)", TARGET, 2)
        with pytest.raises(ValueError):
            Interpretation.of(
                SEED,
                TARGET,
                {"l": dup, "r": dup, "m": I_YES.image_of("m")},
                linear_regular=True,
            )


class TestExtend:
    def test_variable_fixed(self):
        assert extend(I_YES, tic(x(1), 1)) == tic(x(1), 1)

    def test_symbol_image(self):
        got = extend(I_YES, parse("l(x1,x2)", SEED, 2))
        assert render_term(got.term) == "m(a(b(alpha(x1))),x2)"

    def test_nested(self):
        got = extend(I_YES, parse("m(l(x1,x2),x3)", SEED, 3))
        assert render_term(got.term) == "m(m(a(b(alpha(x1))),x2),x3)"

    def test_argument_order_respected(self):
        got = extend(I_YES, parse("l(x2,x1)", SEED, 2))
        assert render_term(got.term) == "m(a(b(alpha(x2))),x1)"


class TestCheckPreservesAxioms:
    def test_reduction_interpretation_depth_one(self):
        results = check_preserves_axioms(I_YES, depth=1)
        assert [out.status for _, out in results] == [FOUND]

    def test_identity_interpretation(self):
        results = check_preserves_axioms(identity_interpretation(SEED), depth=1)
        assert all(out.status == FOUND for _, out in results)

    def test_collapsing_map_fails_certified(self):
        image = parse("m(x1,x2)", FREE_M, 2)
        i = Interpretation.of(SEED, FREE_M, {"l": image, "r": image, "m": image})
        results = check_preserves_axioms(i, depth=4)
        # l(x1,x2) = r(x2,x1) maps to m(x1,x2) = m(x2,x1), unprovable in the
        # axiomless theory, and the empty closure certifies that.
        assert len(results) == 1
        _, out = results[0]
        assert out.status == EXHAUSTED and out.certified


class TestInterpretationsEqual:
    def test_reflexive(self):
        results = interpretations_equal(I_YES, I_YES, depth=0)
        assert all(out.status == FOUND for _, out in results)
        assert all(out.derivation.steps == () for _, out in results)

    def test_axiom_twisted_variant(self):
        twisted = Interpretation.of(
            SEED,
            TARGET,
            {
                "l": parse("m(b(a(alpha(x2))),x1)", TARGET, 2),
                "r": I_YES.image_of("r"),
                "m": I_YES.image_of("m"),
            },
        )
        results = dict(interpretations_equal(I_YES, twisted, depth=1))
        assert results["l"].status == FOUND
        assert len(results["l"].derivation.steps) == 1
        assert results["r"].status == FOUND
        assert results["m"].status == FOUND

    def test_distinct_on_free_instance(self):
        i = seed_interpretation(FREE)
        target = compile_reduction(FREE)
        other = Interpretation.of(
            SEED,
            target,
            {
                "l": i.image_of("r"),
                "r": i.image_of("r"),
                "m": i.image_of("m"),
            },
        )
        results = dict(interpretations_equal(i, other, depth=4))
        assert results["l"].status == EXHAUSTED
        assert results["l"].certified


class TestProbe:
    def test_identity_probe_clean(self):
        report = probe_conservativity(
            identity_interpretation(SEED), term_size_bound=3, depth=4
        )
        assert report.clean
        assert report.confirmed == [] and report.candidates == []
        assert report.pairs_checked > 0

    def test_yes_instance_probe_finds_seed_axiom_image(self):
        report = probe_conservativity(I_YES, term_size_bound=3, depth=6)
        found = {
            (render_term(f.lhs.term), render_term(f.rhs.term))
            for f in report.confirmed
        }
        assert ("l(x1,x2)", "r(x1,x2)") in found
        assert not report.clean

    def test_no_instance_probe_clean(self):
        report = probe_conservativity(
            seed_interpretation(FREE), term_size_bound=4, depth=6
        )
        assert report.clean

    def test_doc_shape(self):
        report = probe_conservativity(I_YES, term_size_bound=3, depth=6)
        doc = report.to_doc()
        assert set(doc) >= {"confirmed", "candidates", "pairs_checked", "targets_complete", "bounds"}

    @pytest.mark.parametrize(
        "i",
        [
            seed_interpretation(FREE),
            I_YES,
            seed_interpretation(instance(["a", "b"], [("ab", "ba")], ("a", "b"))),
        ],
        ids=["free", "yes", "no"],
    )
    def test_matches_pair_loop(self, i):
        got = probe_conservativity(i, term_size_bound=5, depth=6)
        want = pair_loop_probe(i, term_size_bound=5, depth=6)
        assert got.to_doc() == want.to_doc()

    def test_cut_target_closures_are_reported(self):
        report = probe_conservativity(seed_interpretation(FREE), term_size_bound=3, depth=1)
        assert report.clean and not report.targets_complete
        report = probe_conservativity(seed_interpretation(FREE), term_size_bound=3, depth=6)
        assert report.clean and report.targets_complete
        # Every closure empties, but only because the size cap pruned it.
        growing = parse_theory("symbol u 1\nsymbol m 2\naxiom [1] u(x1) = u(u(x1))\n")
        report = probe_conservativity(
            identity_interpretation(growing), term_size_bound=3, depth=6, slack=1
        )
        assert report.clean and not report.targets_complete


def pair_loop_probe(i, *, term_size_bound, depth, slack=DEFAULT_SLACK, node_budget=DEFAULT_NODE_BUDGET):
    """probe_conservativity as it was before the closure-driven lookup: every
    pool pair (s, t) tested against the closures one by one, in pool order."""
    max_context = term_size_bound
    bounds_doc = {
        "term_size_bound": term_size_bound,
        "max_context": max_context,
        "depth": depth,
        "slack": slack,
        "node_budget": node_budget,
    }
    by_context: dict = {}
    for t in enumerate_linear_regular(i.source, term_size_bound, max_context):
        by_context.setdefault(t.context_len, []).append(t)
    confirmed, candidates = [], []
    pairs_checked = target_proved = 0
    complete = True
    for n, canonical in sorted(by_context.items()):
        pool = [
            (substitute_simple(t, sigma), sigma.is_identity())
            for t in canonical
            for sigma in Permutation.all_of(n)
        ]
        if len(pool) < 2:
            continue
        images = {t: extend(i, t) for t, _ in pool}
        src_cap = max(term_size(t.term) for t, _ in pool) + slack
        tgt_cap = max(term_size(img.term) for img in images.values()) + slack
        keys = {t: term_key(t.term, i.source) for t in canonical}
        for s in canonical:
            cl_target = bounded_closure(i.target, images[s], depth, size_cap=tgt_cap, node_budget=node_budget)
            complete = complete and cl_target.exhausted and not cl_target.cap_hit
            cl_source = bounded_closure(i.source, s, depth, size_cap=src_cap, node_budget=node_budget)
            certified = cl_source.exhausted and not cl_source.cap_hit
            for t, t_canonical in pool:
                if t == s or (t_canonical and keys[t] < keys[s]):
                    continue
                pairs_checked += 1
                if images[t] not in cl_target:
                    continue
                target_proved += 1
                if t in cl_source:
                    continue
                finding = ProbeFinding(s, t, cl_target.derivation_to(images[t]), certified)
                (confirmed if certified else candidates).append(finding)
    return ConservativityReport(
        confirmed, candidates, pairs_checked, target_proved, complete, bounds_doc
    )


class TestCompose:
    def test_identity_neutral(self):
        ident = identity_interpretation(SEED)
        left = compose_interpretations(I_YES, ident)
        assert [(n, im) for n, im in left.assignment] == list(I_YES.assignment)

    def test_mismatched_theories_rejected(self):
        with pytest.raises(ValueError):
            compose_interpretations(I_YES, I_YES)


def seed_terms_strategy(max_leaves=8, context=3):
    base = st.sampled_from([x(i) for i in range(1, context + 1)])
    syms = list(SEED.signature)

    def build(children):
        return st.builds(
            lambda s, a, b: App(s, (a, b)), st.sampled_from(syms), children, children
        )

    return st.recursive(base, build, max_leaves=max_leaves).map(
        lambda t: tic(t, context)
    )


class TestExtendProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed_terms_strategy())
    def test_extend_of_identity_is_identity(self, t):
        assert extend(identity_interpretation(SEED), t) == t

    @settings(max_examples=60, deadline=None)
    @given(seed_terms_strategy())
    def test_commutes_with_permutation(self, t):
        for perm in Permutation.all_of(t.context_len):
            lhs = extend(I_YES, substitute_simple(t, perm))
            rhs = substitute_simple(extend(I_YES, t), perm)
            assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(seed_terms_strategy(max_leaves=5), st.integers(0, 2**20))
    def test_composes_over_substitution(self, t, seed):
        rng = random.Random(seed)
        args = tuple(
            tic(random_term(rng, SEED, 5, 2), 2) for _ in range(t.context_len)
        )
        inner_first = extend(I_YES, substitute_terms(t, args))
        images = tuple(extend(I_YES, a) for a in args)
        outer_first = substitute_terms(extend(I_YES, t), images)
        assert inner_first == outer_first

    def test_injective_on_small_terms(self):
        terms = list(enumerate_linear_regular(SEED, 5, 3))
        images = [extend(I_YES, t) for t in terms]
        assert len(set(images)) == len(terms)


ITP_TEXT = """\
source seed.thy
target compiled.thy
map l = m(a(b(alpha(x1))),x2)
map r = m(b(a(alpha(x1))),x2)
map m = m(x1,x2)
"""


class TestConcreteSyntax:
    def test_parse_with_explicit_theories(self):
        i = parse_interpretation(ITP_TEXT, source=SEED, target=TARGET)
        assert dict(i.assignment) == dict(I_YES.assignment)

    def test_file_roundtrip(self, tmp_path):
        from rigidlab.theory import save_theory

        save_theory(SEED, tmp_path / "seed.thy")
        save_theory(TARGET, tmp_path / "compiled.thy")
        text = render_interpretation(I_YES, "seed.thy", "compiled.thy")
        (tmp_path / "map.itp").write_text(text)
        i = load_interpretation(tmp_path / "map.itp")
        assert i.source == SEED and i.target == TARGET
        assert dict(i.assignment) == dict(I_YES.assignment)

    def test_missing_map_line_rejected(self):
        partial = "map l = m(x1,x2)\nmap r = m(x1,x2)\n"
        with pytest.raises((ParseError, ValueError)):
            parse_interpretation(partial, source=SEED, target=TARGET)

    def test_unknown_source_symbol_rejected(self):
        bad = ITP_TEXT + "map k = m(x1,x2)\n"
        with pytest.raises((ParseError, ValueError)):
            parse_interpretation(bad, source=SEED, target=TARGET)

    def test_missing_source_line_without_override(self):
        with pytest.raises(ParseError):
            parse_interpretation("map l = m(x1,x2)\n", target=TARGET)
