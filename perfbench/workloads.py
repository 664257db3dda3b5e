"""The four workloads.

Inputs are built the way the CLI builds them: theories and word problems
are parsed from the text of .thy and .wp files, and a compiled theory goes
through the .thy text that `rigidlab reduce` writes.  An operation is one
library call that a CLI command makes plus rendering its result document
the way `cli._emit` does.  Process start-up and option parsing are left out.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import checks
from rigidlab.interp import extend, probe_conservativity
from rigidlab.normalizer import WordOracle, hat, is_special
from rigidlab.reduction import (
    compile_reduction,
    parse_wp,
    seed_interpretation,
    word_bfs,
    word_semidecide,
)
from rigidlab.rewrite import bounded_closure, prove_bounded
from rigidlab.rigidity import enumerate_linear_regular, search_flabby
from rigidlab.terms import App, Permutation, TermInContext, Var, parse_term, render_term, substitute_simple
from rigidlab.theory import parse_equation, parse_theory, render_theory

SEED_THY = """\
symbol l 2
symbol r 2
symbol m 2
axiom [2] l(x1,x2) = r(x2,x1)
"""
AC_THY = """\
symbol m 2
axiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))
axiom [2] m(x1,x2) = m(x2,x1)
"""
A_THY = """\
symbol m 2
axiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))
"""
WP = {
    "yes_ab": "alphabet a b\nrel ab = ba\ngoal ab = ba\n",
    "yes_idem": "alphabet a\nrel a = aa\ngoal a = aa\n",
    "no_ab": "alphabet a b\nrel ab = ba\ngoal a = b\n",
    "free": "alphabet a b\ngoal a = b\n",
}

CHUNK = 4096  # operations timed between two checks; bounds the outputs held at once


@dataclass
class Group:
    """Operations of one kind: run(x) makes one or `ops` operations on input
    x; check(x, result) raises checks.CheckError or returns checks.FAILED."""

    name: str
    inputs: list
    run: Callable
    check: Callable
    ops: int = 1


def render(result) -> int:
    """The size of the JSON document the CLI prints for a result."""
    return len(json.dumps(result.to_doc(), indent=2))


def chunks(name, inputs, run, check, ops=1):
    return [
        Group(name, inputs[i : i + CHUNK], run, check, ops) for i in range(0, len(inputs), CHUNK)
    ]


def compiled(wp_text):
    """A word problem and its compiled theory, read back from the .thy text."""
    inst = parse_wp(wp_text)
    return inst, parse_theory(render_theory(compile_reduction(inst)))


# ---- flabby: `rigidlab rigidity search` ----

class Flabby:
    def __init__(self, rng):
        seed = parse_theory(SEED_THY)
        no, no_th = compiled(WP["no_ab"])
        yes, yes_th = compiled(WP["yes_ab"])
        idem, idem_th = compiled(WP["yes_idem"])

        def sweep(th, max_size, max_context, depth):
            def run(_):
                res = search_flabby(th, max_size=max_size, max_context=max_context, depth=depth)
                render(res)
                return res

            return run

        unary = len(no.alphabet) + 1
        self.round = [
            Group("seed 9/4/8", [None], sweep(seed, 9, 4, 8), lambda _, r: checks.check_seed_sweep(r)),
            Group(
                "no {ab=ba} 8/3/6",
                [None],
                sweep(no_th, 8, 3, 6),
                lambda _, r: checks.check_no_instance_sweep(r, unary, 8, 3),
            ),
            Group(
                "yes {ab=ba} 8/3/6",
                [None],
                sweep(yes_th, 8, 3, 6),
                lambda _, r: checks.check_yes_instance_sweep(r, yes_th, yes.goal, bounds_ok=False),
            ),
            Group(
                "yes {a=aa} 8/3/6",
                [None],
                sweep(idem_th, 8, 3, 6),
                lambda _, r: checks.check_yes_instance_sweep(r, idem_th, idem.goal, bounds_ok=False),
            ),
            # The witness needs two steps, so depth 1 cannot find it: only
            # found or bounds is correct.
            Group(
                "yes {ab=ba} 8/3/1",
                [None],
                sweep(yes_th, 8, 3, 1),
                lambda _, r: checks.check_yes_instance_sweep(r, yes_th, yes.goal, bounds_ok=True),
            ),
        ]

    def groups(self):
        return self.round


# ---- probe: `rigidlab conservativity` ----

class Probe:
    SIZE, DEPTH = 7, 6

    def __init__(self, rng):
        free = seed_interpretation(parse_wp(WP["free"]))
        yes = parse_wp(WP["yes_ab"])
        yes_i = seed_interpretation(yes)
        seed = parse_theory(SEED_THY)
        pairs = checks.probe_pairs(self.SIZE)
        classes: dict = {}

        def probe(i):
            def run(_):
                rep = probe_conservativity(i, term_size_bound=self.SIZE, depth=self.DEPTH)
                render(rep)
                return rep

            return run

        self.round = [
            Group("free", [None], probe(free), lambda _, r: checks.check_probe_clean(r, pairs)),
            Group(
                "yes {ab=ba}",
                [None],
                probe(yes_i),
                lambda _, r: checks.check_probe_findings(r, pairs, seed, yes_i.target, yes.goal, classes),
            ),
        ]

    def groups(self):
        return self.round


# ---- closure: `rigidlab prove` in {assoc, comm} ----

def left_comb(n: int) -> str:
    text = "x1"
    for i in range(2, n + 1):
        text = f"m({text},x{i})"
    return text


def reversed_right_comb(n: int) -> str:
    text = "x1"
    for i in range(2, n + 1):
        text = f"m(x{i},{text})"
    return text


class Closure:
    CLOSURE_VARS, CLOSURE_DEPTH = 6, 20  # the closure is 13 levels deep
    PROOF_VARS, AC_DEPTH, A_DEPTH = 7, 8, 16
    SAMPLED = 32  # closure entries whose derivations are replayed

    def __init__(self, rng):
        ac = parse_theory(AC_THY)
        a = parse_theory(A_THY)
        n = self.CLOSURE_VARS
        start = TermInContext(parse_term(left_comb(n), ac.symbols_by_name()), n)
        text = f"[{self.PROOF_VARS}] {left_comb(self.PROOF_VARS)} = {reversed_right_comb(self.PROOF_VARS)}"
        goal_ac = parse_equation(text, ac)
        goal_a = parse_equation(text, a)
        picks = rng.sample(range(checks.catalan(n - 1) * math.factorial(n)), self.SAMPLED)

        def closure(_):
            return bounded_closure(ac, start, self.CLOSURE_DEPTH)

        def check_closure(_, cl):
            ordered = sorted(cl.entries, key=lambda t: checks.show(t.term))
            sample = [ordered[i] for i in picks if i < len(ordered)]
            checks.check_ac_closure(cl, n, sample, ac)

        def prove(th, goal, depth):
            def run(_):
                out = prove_bounded(th, goal, depth)
                render(out)
                return out

            return run

        self.round = [
            Group("closure AC 6", [None], closure, check_closure),
            Group(
                "prove AC 7",
                [None],
                prove(ac, goal_ac, self.AC_DEPTH),
                lambda _, r: checks.check_ac_proof(r, ac, goal_ac),
            ),
            Group(
                "prove A 7",
                [None],
                prove(a, goal_a, self.A_DEPTH),
                lambda _, r: checks.check_assoc_refutation(r, goal_a),
            ),
        ]

    def groups(self):
        return self.round


# ---- words_hat: `rigidlab word` and `rigidlab hat` ----

@dataclass
class HatOutput:
    """What `rigidlab hat` computes for one term: hat, then is_special."""

    input: TermInContext
    result: object
    tag: object

    def to_doc(self) -> dict:
        return {
            "input": render_term(self.input.term),
            **self.result.to_doc(),
            "special": self.tag.special,
            "preimage": render_term(self.tag.preimage.term) if self.tag.preimage else None,
        }


def distinct_variable_shapes(th, max_size: int) -> list:
    """Every term of size <= max_size over th's unary and binary symbols,
    its leaves the variables x1, x2, ... from left to right."""
    unary = [s for s in th.signature if s.arity == 1]
    binary = [s for s in th.signature if s.arity == 2]
    # layers[n][k]: None for the leaf, else (symbol, (size, index) per child)
    layers = {1: [None]}
    for n in range(2, max_size + 1):
        layer = [(s, (n - 1, k)) for s in unary for k in range(len(layers[n - 1]))]
        for s in binary:
            for i in range(1, n - 1):
                j = n - 1 - i
                layer.extend(
                    (s, (i, a), (j, b)) for a in range(len(layers[i])) for b in range(len(layers[j]))
                )
        layers[n] = layer
    built: dict = {}  # (size, index, first variable) -> (term, variables used)

    def build(n, k, first):
        key = (n, k, first)
        if key not in built:
            node = layers[n][k]
            if node is None:
                built[key] = (Var(first), 1)
            else:
                args, used = [], 0
                for child in node[1:]:
                    t, c = build(*child, first + used)
                    args.append(t)
                    used += c
                built[key] = (App(node[0], tuple(args)), used)
        return built[key]

    out = []
    for n in range(1, max_size + 1):
        for k in range(len(layers[n])):
            term, used = build(n, k, 1)
            out.append(TermInContext(term, used))
    return out


class WordsHat:
    WORD_LENGTH, WORD_DEPTH = 5, 10
    SHAPE_SIZE, ORACLE_DEPTH = 9, 40
    SEED_SIZE, SEED_CONTEXT = 7, 4
    IDEMPOTENCE_SAMPLE = 1000  # hat outputs normalised a second time

    def __init__(self, rng):
        self.yes = yes = parse_wp(WP["yes_ab"])
        self.no = no = parse_wp(WP["no_ab"])
        yes_th = compile_reduction(yes)
        words = [
            tuple(w) for n in range(self.WORD_LENGTH + 1) for w in itertools.product(yes.alphabet, repeat=n)
        ]
        pairs = [(w1, w2) for w1 in words for w2 in words]
        rng.shuffle(pairs)
        self.pairs = pairs

        shapes = distinct_variable_shapes(yes_th, self.SHAPE_SIZE)
        rng.shuffle(shapes)
        again = set(rng.sample(range(len(shapes)), self.IDEMPOTENCE_SAMPLE))
        self.shapes = [(t, k in again) for k, t in enumerate(shapes)]

        seed = parse_theory(SEED_THY)
        renamed = [
            substitute_simple(s, rho)
            for s in enumerate_linear_regular(seed, self.SEED_SIZE, self.SEED_CONTEXT)
            for rho in Permutation.all_of(s.context_len)
        ]
        yes_i, no_i = seed_interpretation(yes), seed_interpretation(no)
        self.yes_images = [(s, extend(yes_i, s)) for s in renamed]
        self.no_images = [(s, extend(no_i, s)) for s in renamed]

    def groups(self):
        yes, no = self.yes, self.no
        relations = yes.relations
        yes_oracle = WordOracle(yes, depth=self.ORACLE_DEPTH)
        no_oracle = WordOracle(no, depth=self.ORACLE_DEPTH)
        check_oracle = WordOracle(yes, depth=self.ORACLE_DEPTH)
        alphabet = frozenset(yes.alphabet)

        def word(pair):
            direct = word_bfs(yes, pair[0], pair[1], depth=self.WORD_DEPTH)
            render(direct)
            via_terms = word_semidecide(yes, pair[0], pair[1], depth=self.WORD_DEPTH)
            render(via_terms)
            return direct, via_terms

        def check_word(pair, out):
            checks.check_word_pair(relations, pair[0], pair[1], *out)

        def normalise(inst, oracle):
            def run(t):
                res = hat(inst, t, oracle)
                out = HatOutput(t, res, is_special(inst, res.term))
                render(out)
                return out

            return run

        yes_hat = normalise(yes, yes_oracle)
        no_hat = normalise(no, no_oracle)

        def check_shape(x, out):
            t, again = x
            checks.check_hat_shape(t, out, alphabet, yes.goal)
            if again:
                twice = hat(yes, out.result.term, check_oracle)
                checks.require(twice.term == out.result.term and twice.clean, "hat is not idempotent")

        return (
            chunks("word pairs", self.pairs, word, check_word, ops=2)
            + chunks("hat shapes", self.shapes, lambda x: yes_hat(x[0]), check_shape)
            + chunks(
                "hat yes images",
                self.yes_images,
                lambda x: yes_hat(x[1]),
                lambda x, out: checks.check_hat_image(x[0], out, yes.goal, merge=True),
            )
            + chunks(
                "hat no images",
                self.no_images,
                lambda x: no_hat(x[1]),
                lambda x, out: checks.check_hat_image(x[0], out, no.goal, merge=False),
            )
        )


WORKLOADS = {"flabby": Flabby, "probe": Probe, "closure": Closure, "words_hat": WordsHat}
