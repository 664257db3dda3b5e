"""Golden result documents: the to_doc() JSON of small searches, byte for byte.

Each case below renders one search result as JSON, indented as the CLI
prints it (a closure as its flags and every entry in insertion order), and
compares the text with tests/golden/<case>.json.  A refactor that must not
change any result document keeps these files as they are.  When a change to
a document is intended, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which documents changed and why.
"""

import json
import sys
from pathlib import Path

import pytest

from rigidlab.interp import Interpretation, probe_conservativity
from rigidlab.reduction import (
    compile_reduction,
    instance,
    seed_interpretation,
    word_bfs,
    word_semidecide,
)
from rigidlab.rewrite import bounded_closure, prove_bounded
from rigidlab.rigidity import search_flabby
from rigidlab.terms import TermInContext, parse_term, render_term
from rigidlab.theory import parse_equation, parse_theory

GOLDEN = Path(__file__).parent / "golden"

SEED = parse_theory("symbol l 2\nsymbol r 2\nsymbol m 2\naxiom [2] l(x1,x2) = r(x2,x1)\n")
AC = parse_theory(
    "symbol m 2\n"
    "axiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\n"
    "axiom [2] m(x1,x2) = m(x2,x1)\n"
)
ASSOC = parse_theory("symbol m 2\naxiom [3] m(m(x1,x2),x3) = m(x1,m(x2,x3))\n")
ONE_WAY = parse_theory("symbol c 0\nsymbol m 2\naxiom [1] x1 = c()\n")
GROWING = parse_theory(
    "symbol c 0\nsymbol u 1\nsymbol m 2\naxiom [1] x1 = u(x1)\naxiom [1] m(x1,x1) = u(x1)\n"
)
COMMUTES = instance(["a", "b"], [("ab", "ba")], ("ab", "ba"))
# The class of a is infinite, so only the cap stops it; the class of b is {b}.
IDEMPOTENT = instance(["a", "b"], [("a", "aa")], ("a", "b"))
TERNARY = parse_theory(
    "symbol c 0\nsymbol u 1\nsymbol t 3\n"
    "axiom [2] t(x1,u(x2),c()) = t(x2,u(x1),c())\n"
    "axiom [2] t(u(x1),x2,c()) = t(u(x2),x1,c())\n"
)
FREE_CFM = parse_theory("symbol c 0\nsymbol f 1\nsymbol m 2\n")
COMMUTATIVE_CM = parse_theory("symbol c 0\nsymbol m 2\naxiom [2] m(x1,x2) = m(x2,x1)\n")

COMB4 = "[4] m(m(m(x1,x2),x3),x4)"
REVERSED4 = "m(x4,m(x3,m(x2,x1)))"
COMB5 = "[5] m(m(m(m(x1,x2),x3),x4),x5)"
REVERSED5 = "m(x5,m(x4,m(x3,m(x2,x1))))"


def forget_f():
    """c and m to themselves, f(x1) to x1: findings pair terms of different
    sizes, such as m(x1,f(c())) with m(c(),x1)."""
    symbols = COMMUTATIVE_CM.symbols_by_name()
    images = {"c": (0, "c()"), "f": (1, "x1"), "m": (2, "m(x1,x2)")}
    mapping = {
        name: TermInContext(parse_term(text, symbols), n) for name, (n, text) in images.items()
    }
    return Interpretation.of(FREE_CFM, COMMUTATIVE_CM, mapping)


def prove(th, text, depth, **kw):
    return prove_bounded(th, parse_equation(text, th), depth, **kw).to_doc()


def closure(th, n, text, depth, **kw):
    start = TermInContext(parse_term(text, th.symbols_by_name()), n)
    cl = bounded_closure(th, start, depth, **kw)
    entries = []
    for t in cl.entries:
        distance, parent, step = cl.distance(t), cl.parent(t), cl.step(t)
        entries.append(
            {
                "term": render_term(t.term),
                "distance": distance,
                "parent": None if parent is None else render_term(parent.term),
                "step": None
                if step is None
                else {
                    "axiom": step.axiom_index,
                    "direction": step.direction,
                    "position": list(step.position),
                    "subst": [render_term(u.term) for u in step.subst],
                },
            }
        )
    return {
        "start": render_term(cl.start.term),
        "exhausted": cl.exhausted,
        "cap_hit": cl.cap_hit,
        "budget_hit": cl.budget_hit,
        "expanded": cl.expanded,
        "depth_reached": cl.depth_reached,
        "entries": entries,
    }


CASES = {
    "prove_found_ac": lambda: prove(AC, f"{COMB4} = {REVERSED4}", 8),
    "prove_exhausted_seed": lambda: prove(SEED, "[2] l(x1,x2) = r(x1,x2)", 8),
    "prove_exhausted_assoc": lambda: prove(ASSOC, f"{COMB4} = {REVERSED4}", 12),
    "prove_bounds_nodes": lambda: prove(AC, f"{COMB5} = {REVERSED5}", 10, node_budget=6),
    "prove_bounds_nodes_after_meet": lambda: prove(AC, f"{COMB4} = {REVERSED4}", 8, node_budget=5),
    "prove_bounds_depth": lambda: prove(AC, f"{COMB5} = {REVERSED5}", 3),
    "prove_bounds_depth_ac4": lambda: prove(AC, f"{COMB4} = {REVERSED4}", 2),
    "prove_one_way_found": lambda: prove(ONE_WAY, "[1] m(x1,x1) = m(c(),c())", 8),
    "prove_one_way_exhausted": lambda: prove(ONE_WAY, "[1] m(x1,c()) = m(x1,x1)", 8),
    "prove_capped_bounds": lambda: prove(GROWING, "[1] m(x1,x1) = c()", 6, slack=2),
    "prove_capped_exhausted": lambda: prove(GROWING, "[1] m(x1,x1) = c()", 30, slack=2),
    "closure_ac4": lambda: closure(AC, 4, "m(m(m(x1,x2),x3),x4)", 20),
    "closure_ac5_budget": lambda: closure(AC, 5, "m(m(m(m(x1,x2),x3),x4),x5)", 20, node_budget=30),
    "closure_ac5_depth": lambda: closure(AC, 5, "m(m(m(m(x1,x2),x3),x4),x5)", 2),
    "closure_growing_capped": lambda: closure(GROWING, 1, "m(x1,x1)", 4, size_cap=5),
    "word_bfs_found": lambda: word_bfs(COMMUTES, "aabb", "baba", depth=6).to_doc(),
    "word_bfs_exhausted": lambda: word_bfs(COMMUTES, "aab", "bba", depth=6).to_doc(),
    "word_bfs_bounds_depth": lambda: word_bfs(COMMUTES, "aabb", "bbaa", depth=2).to_doc(),
    "word_bfs_bounds_nodes": lambda: word_bfs(COMMUTES, "aabb", "bbaa", depth=6, node_budget=3).to_doc(),
    "word_bfs_capped": lambda: word_bfs(IDEMPOTENT, "a", "b", depth=20, slack=3).to_doc(),
    "word_semidecide_found": lambda: word_semidecide(COMMUTES, "aabb", "baba", depth=6).to_doc(),
    "word_semidecide_exhausted": lambda: word_semidecide(COMMUTES, "aab", "bba", depth=6).to_doc(),
    "word_semidecide_bounds_depth": lambda: word_semidecide(COMMUTES, "aabb", "bbaa", depth=2).to_doc(),
    "word_semidecide_bounds_nodes": lambda: word_semidecide(
        COMMUTES, "aabb", "bbaa", depth=6, node_budget=3
    ).to_doc(),
    "word_semidecide_capped": lambda: word_semidecide(
        IDEMPOTENT, "a", "b", depth=20, slack=3
    ).to_doc(),
    "flabby_seed": lambda: search_flabby(SEED, max_size=7, max_context=4, depth=6).to_doc(),
    "flabby_commutes": lambda: search_flabby(
        compile_reduction(COMMUTES), max_size=8, max_context=3, depth=6
    ).to_doc(),
    "flabby_ternary": lambda: search_flabby(TERNARY, max_size=6, max_context=3, depth=4).to_doc(),
    "probe_commutes_5": lambda: probe_conservativity(
        seed_interpretation(COMMUTES), term_size_bound=5, depth=6
    ).to_doc(),
    "probe_forget_f_4": lambda: probe_conservativity(
        forget_f(), term_size_bound=4, max_context=1, depth=2
    ).to_doc(),
}


def render(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_document_unchanged(case):
    want = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    doc = CASES[case]()
    if "status" in doc and "certified" in doc:
        # "exhausted" always means a complete search, and only it certifies.
        assert doc["certified"] == (doc["status"] == "exhausted")
    assert render(doc) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in sorted(CASES.items()):
        (GOLDEN / f"{name}.json").write_text(render(make()), encoding="utf-8")
        print(f"wrote {name}.json", file=sys.stderr)
