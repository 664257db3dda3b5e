import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import identity_interpretation, random_term, term_key
from rigidlab.interp import (
    ConservativityReport,
    Interpretation,
    ProbeFinding,
    _extend_shared,
    _graft_shared,
    check_preserves_axioms,
    compose_interpretations,
    extend,
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
from rigidlab.rewrite import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_SLACK,
    EXHAUSTED,
    FOUND,
    bounded_closure,
    derivation_from_doc,
    derivation_to_doc,
    replay,
)
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
from rigidlab.theory import parse_theory, save_theory

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

    def test_unknown_symbol_rejected(self):
        mapping = {**dict(I_YES.assignment), "k": I_YES.image_of("m")}
        with pytest.raises(ValueError, match="assignment names unknown symbols: k"):
            Interpretation.of(SEED, TARGET, mapping)

    def test_image_context_is_arity(self):
        short = parse("m(x1,x1)", TARGET, 1)
        with pytest.raises(ValueError):
            Interpretation.of(
                SEED,
                TARGET,
                {"l": short, "r": short, "m": I_YES.image_of("m")},
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
        "i, depth, confirmed, candidates",
        [
            (seed_interpretation(FREE), 6, 0, 0),
            (I_YES, 6, 99, 0),
            (seed_interpretation(instance(["a", "b"], [("ab", "ba")], ("a", "b"))), 6, 0, 0),
            # Depth 2 cuts some source closures short, so both finding lists
            # fill and go through the shared renderer.
            (I_YES, 2, 15, 44),
        ],
        ids=["free", "yes", "no", "yes-candidates"],
    )
    def test_matches_pair_loop(self, i, depth, confirmed, candidates):
        got = probe_conservativity(i, term_size_bound=5, depth=depth)
        want = pair_loop_probe(i, term_size_bound=5, depth=depth)
        assert (len(got.confirmed), len(got.candidates)) == (confirmed, candidates)
        assert got.to_doc() == want.to_doc()

    def test_shared_renderer_matches_rendering_each_finding(self):
        # Resolving each finding's step indices against the report's step
        # table gives exactly the finding rendered alone.
        report = probe_conservativity(I_YES, term_size_bound=7, depth=6)
        assert report.confirmed
        doc = report.to_doc()

        def finding_doc(f):
            return {
                "lhs": render_term(f.lhs.term),
                "rhs": render_term(f.rhs.term),
                "context_len": f.lhs.context_len,
                "confirmed": f.confirmed,
                "target_derivation": derivation_to_doc(f.target_derivation),
            }

        want = {
            "confirmed": [finding_doc(f) for f in report.confirmed],
            "candidates": [finding_doc(f) for f in report.candidates],
            "pairs_checked": report.pairs_checked,
            "target_proved": report.target_proved,
            "targets_complete": report.targets_complete,
            "bounds": report.bounds,
        }
        got = {key: value for key, value in doc.items() if key != "steps"}
        for key in ("confirmed", "candidates"):
            got[key] = [
                {**g, "target_derivation": resolved(doc, g["target_derivation"])} for g in doc[key]
            ]
        # Compared outside the assert: pytest's diff of two 3 MB strings
        # would take minutes.
        same = json.dumps(got) == json.dumps(want)
        assert same

    def test_document_holds_one_dict_per_distinct_step(self):
        # The findings from one target closure share its step objects, equal
        # steps recur across closures, and the document writes each distinct
        # step entry once: the table lists its entries in order of first
        # use, none twice and each used.  Twenty pairs of the 371 distinct
        # steps differ only in the context of their substitution's terms,
        # which an entry leaves to its derivation, so each pair is one entry.
        report = probe_conservativity(I_YES, term_size_bound=7, depth=6)
        doc = report.to_doc()
        findings = report.confirmed + report.candidates
        steps = [s for f in findings for s in f.target_derivation.steps]
        entries = [e for f in findings for e in derivation_to_doc(f.target_derivation)["steps"]]
        refs = [i for g in doc["confirmed"] + doc["candidates"] for i in g["target_derivation"]["steps"]]
        assert len(steps) == len(entries) == len(refs) == 8828
        assert len({id(s) for s in steps}) == 3136
        assert len(set(steps)) == 371
        assert len({json.dumps(e) for e in entries}) == len(doc["steps"]) == 349
        assert len({json.dumps(e) for e in doc["steps"]}) == 349
        assert [doc["steps"][i] for i in refs] == entries
        assert list(dict.fromkeys(refs)) == list(range(349))

    def test_resolved_findings_replay(self):
        # Every finding of the document, resolved against the step table,
        # reads back as its target derivation, which replays in the target.
        report = probe_conservativity(I_YES, term_size_bound=7, depth=6)
        doc = report.to_doc()
        findings = report.confirmed + report.candidates
        docs = doc["confirmed"] + doc["candidates"]
        assert len(findings) == len(docs) == 2874
        for f, g in zip(findings, docs):
            d = derivation_from_doc(resolved(doc, g["target_derivation"]), I_YES.target)
            assert d == f.target_derivation
            assert replay(d, I_YES.target)

    def test_searched_interpretation_copies_and_pickles(self):
        # A searched theory keeps its compiled kernel, which holds generated
        # code; a copy or a pickle carries only the signature and the axioms
        # and compiles its own kernel on first use.
        i = seed_interpretation(COMMUTES)
        want = probe_conservativity(i, term_size_bound=3, depth=6).to_doc()
        for other in (pickle.loads(pickle.dumps(i)), copy.deepcopy(i)):
            assert other == i
            assert probe_conservativity(other, term_size_bound=3, depth=6).to_doc() == want

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


def resolved(doc: dict, derivation: dict) -> dict:
    """A finding's target_derivation with each step index replaced by its
    entry in the report document's step table."""
    return {**derivation, "steps": [doc["steps"][i] for i in derivation["steps"]]}


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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(seed_terms_strategy(max_leaves=6), min_size=1, max_size=4))
    def test_matches_naive_extension_on_shared_pools(self, terms):
        # A pool as the probe builds it: every renaming of every term, each
        # renaming grafting shared nodes once, so pool terms share nodes.
        renamings = [([x(v) for v in p.images], {}) for p in Permutation.all_of(3)]
        pool = [_graft_shared(t.term, args, grafted) for t in terms for args, grafted in renamings]
        extended = {}
        for u in pool:
            want = naive_extend(I_YES, u)
            assert extend(I_YES, tic(u, 3)) == tic(want, 3)
            assert _extend_shared(I_YES, u, extended) is want

    def test_injective_on_small_terms(self):
        terms = list(enumerate_linear_regular(SEED, 5, 3))
        images = [extend(I_YES, t) for t in terms]
        assert len(set(images)) == len(terms)


def naive_extend(i, term):
    """extend written out: the image of term's symbol, with the extended
    arguments put in for its variables, node by node and with no memo."""

    def plug(image, args):
        if isinstance(image, Var):
            return args[image.index - 1]
        return App(image.sym, tuple(plug(a, args) for a in image.args))

    if isinstance(term, Var):
        return term
    return plug(i.image_of(term.sym.name).term, [naive_extend(i, a) for a in term.args])


ITP_TEXT = """\
source seed.thy
target compiled.thy
map l = m(a(b(alpha(x1))),x2)
map r = m(b(a(alpha(x1))),x2)
map m = m(x1,x2)
"""


@pytest.fixture
def itp_dir(tmp_path):
    """A directory holding the two theories ITP_TEXT names."""
    save_theory(SEED, tmp_path / "seed.thy")
    save_theory(TARGET, tmp_path / "compiled.thy")
    return tmp_path


class TestConcreteSyntax:
    def test_parse_with_explicit_theories(self, itp_dir):
        i = parse_interpretation(ITP_TEXT, base_dir=itp_dir)
        assert i.source == SEED and i.target == TARGET
        assert dict(i.assignment) == dict(I_YES.assignment)

    def test_file_roundtrip(self, itp_dir):
        text = render_interpretation(I_YES, "seed.thy", "compiled.thy")
        (itp_dir / "map.itp").write_text(text)
        i = load_interpretation(itp_dir / "map.itp")
        assert i.source == SEED and i.target == TARGET
        assert dict(i.assignment) == dict(I_YES.assignment)
        assert i == I_YES

    def test_missing_map_line_rejected(self, itp_dir):
        partial = ITP_TEXT.split("map")[0] + "map l = m(x1,x2)\nmap r = m(x1,x2)\n"
        with pytest.raises((ParseError, ValueError)):
            parse_interpretation(partial, base_dir=itp_dir)

    def test_unknown_source_symbol_rejected(self, itp_dir):
        bad = ITP_TEXT + "map k = m(x1,x2)\n"
        with pytest.raises((ParseError, ValueError)):
            parse_interpretation(bad, base_dir=itp_dir)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("map l = m(b(a(alpha(x1))),x2)", "duplicate map line for 'l'"),
            ("source other.thy", "duplicate source line"),
            ("target other.thy", "duplicate target line"),
        ],
    )
    def test_duplicate_line_rejected(self, itp_dir, line, message):
        with pytest.raises(ParseError, match=message) as e:
            parse_interpretation(ITP_TEXT + line + "\n", base_dir=itp_dir)
        assert e.value.line == 6

    def test_image_beyond_arity_names_its_line(self, itp_dir):
        text = ITP_TEXT.replace("map m = m(x1,x2)", "map m = m(x1,x3)")
        with pytest.raises(ParseError, match="^5:1: term uses variables beyond its context of length 2"):
            parse_interpretation(text, base_dir=itp_dir)

    def test_missing_source_line_without_override(self, itp_dir):
        with pytest.raises(ParseError, match="needs both a source and a target"):
            parse_interpretation("target compiled.thy\nmap l = m(x1,x2)\n", base_dir=itp_dir)
