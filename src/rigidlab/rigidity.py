"""Canonical enumeration of linear-regular terms and the flabby-term search.

A term in context n is flabby when the theory proves it equal to itself with
its variables permuted non-trivially; a theory with no flabby term is rigid.
The search enumerates canonical linear-regular terms (variables numbered in
first-occurrence order, so each shape appears once) and computes one bounded
rewrite closure per term.  One memoised depth-first recursion builds the
terms already in canonical order (pre-order tags, variables before symbols,
symbols in signature order), so no batch is sorted.  Rather than build every permutation image, it
scans the closure: an entry of the same size that is a renaming of the term
gives the permutation directly, read off in one walk of both terms.
Canonical order loses no generality: t is flabby exactly when any renaming
of t is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .rewrite import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_SLACK,
    BOUNDS,
    Derivation,
    EXHAUSTED,
    FOUND,
    bounded_closure,
    derivation_to_doc,
    replay,
)
from .terms import (
    App,
    Permutation,
    Term,
    TermInContext,
    Var,
    is_linear_regular,
    render_term,
    substitute_simple,
    term_size,
)
from .theory import Theory

__all__ = [
    "FlabbyReport",
    "FlabbySearchResult",
    "enumerate_linear_regular",
    "search_flabby",
    "verify_report",
]


def _shapes(th: Theory, budget: int, next_var: int, max_context: int, memo: dict) -> list[Term]:
    """Terms of at most `budget` nodes whose variables read next_var,
    next_var+1, ... once each, left to right, none above max_context; in
    canonical order.

    Each node tries the next variable first, then every symbol in signature
    order, and fills its arguments left to right, keeping one node for each
    argument still to come.  That is depth-first order on pre-order tags
    (variables before symbols, symbols in signature order), and since the tag
    sequence of a whole term is never a prefix of another's, depth-first
    order is lexicographic order on those sequences, across sizes too.

    memo maps (budget, next_var) to the list already built for it, for one
    theory and max_context; the lists are shared, so callers must not mutate
    them.
    """
    key = (budget, next_var)
    out = memo.get(key)
    if out is not None:
        return out
    out = memo[key] = []
    if next_var <= max_context:
        out.append(Var(next_var))
    for sym in th.signature:
        k = sym.arity
        if k >= budget:
            continue
        # (arguments so far, next variable, nodes left for the rest)
        partial = [((), next_var, budget - 1)]
        for rest in range(k - 1, -1, -1):
            partial = [
                (args + (a,), max(v, a.max_var + 1), left - a.size)
                for args, v, left in partial
                for a in _shapes(th, left - rest, v, max_context, memo)
            ]
        out.extend(App(sym, args) for args, _, _ in partial)
    return out


def enumerate_linear_regular(
    th: Theory, max_size: int, max_context: int
) -> Iterator[TermInContext]:
    """All canonical linear-regular terms, smallest first.

    Canonical means the variables read 1, 2, ... in left-to-right order, so
    exactly one representative per orbit of context renamings is produced.
    Within one size the order is lexicographic on pre-order keys (variables
    first, then symbols in signature order), the order _shapes builds.
    """
    memo: dict = {}
    for size in range(1, max_size + 1):
        for term in _shapes(th, size, 1, max_context, memo):
            if term.size == size:
                yield TermInContext(term, term.max_var)


@dataclass(frozen=True)
class FlabbyReport:
    """A term, a non-identity permutation, and a replayable proof that the
    theory identifies the term with its permuted copy."""

    term: TermInContext
    permutation: Permutation
    derivation: Derivation

    def to_doc(self) -> dict:
        return {
            "term": render_term(self.term.term),
            "context_len": self.term.context_len,
            "permutation": list(self.permutation.images),
            "derivation": derivation_to_doc(self.derivation),
        }


def verify_report(r: FlabbyReport, th: Theory) -> bool:
    """Replay-check a flabby report against a theory."""
    if not is_linear_regular(r.term):
        return False
    if r.permutation.size != r.term.context_len or r.permutation.is_identity():
        return False
    if r.derivation.start != r.term:
        return False
    if r.derivation.end != substitute_simple(r.term, r.permutation):
        return False
    return replay(r.derivation, th)


@dataclass
class FlabbySearchResult:
    """Search outcome plus the exhaustion certificate data.

    status is "found", "exhausted" (every enumerated term cleared and every
    closure complete, with no size cap, node budget or depth bound ever
    binding, certifying rigidity of the searched fragment), or "bounds" (no
    witness, but some closure was truncated).  depth_hit is set when some
    closure still had a frontier at the depth bound.
    """

    status: str
    report: Optional[FlabbyReport]
    terms_enumerated: int
    closures_computed: int
    closure_terms_total: int
    max_closure: int
    caps_hit: bool
    budget_hit: bool
    depth_hit: bool
    bounds: dict

    @property
    def found(self) -> bool:
        return self.status == FOUND

    def to_doc(self) -> dict:
        return {
            "status": self.status,
            "report": self.report.to_doc() if self.report else None,
            "certificate": {
                "terms_enumerated": self.terms_enumerated,
                "closures_computed": self.closures_computed,
                "closure_terms_total": self.closure_terms_total,
                "max_closure": self.max_closure,
                "caps_hit": self.caps_hit,
                "budget_hit": self.budget_hit,
                "depth_hit": self.depth_hit,
            },
            "bounds": self.bounds,
        }


def _renaming(t: Term, u: Term, n: int) -> Optional[tuple]:
    """The image tuple of the permutation sigma with sigma(t) = u, or None.

    t is canonical, so its variables read 1..n in pre-order; u must have the
    same symbols and shape, with a variable wherever t has one.  u may repeat
    a variable (a non-linear axiom can make it), and then no sigma exists.
    """
    images = []
    stack = [(t, u)]
    while stack:
        a, b = stack.pop()
        if a.__class__ is Var:
            if b.__class__ is not Var:
                return None
            images.append(b.index)
        elif b.__class__ is not App or a.sym is not b.sym:
            return None
        else:
            stack.extend(zip(reversed(a.args), reversed(b.args)))
    if len(set(images)) != n:
        return None
    return tuple(images)


def search_flabby(
    th: Theory,
    *,
    max_size: int,
    max_context: int,
    depth: int,
    slack: int = DEFAULT_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> FlabbySearchResult:
    """Look for a flabby term among all linear-regular terms within bounds.

    One bounded closure is computed per canonical term t.  Each closure
    entry other than t, of t's size, that renames t's variables bijectively
    gives a non-identity permutation sigma with sigma(t) in the closure; the
    lexicographically least image tuple is kept.  The first witness in
    canonical order is returned, with the breadth-first (hence minimal-length)
    derivation from the shared closure.
    """
    bounds_doc = {
        "max_size": max_size,
        "max_context": max_context,
        "depth": depth,
        "slack": slack,
        "node_budget": node_budget,
    }
    terms_enumerated = 0
    closures = 0
    closure_total = 0
    max_closure = 0
    caps_hit = False
    budget_hit = False
    depth_hit = False
    complete = True
    for t in enumerate_linear_regular(th, max_size, max_context):
        terms_enumerated += 1
        n = t.context_len
        if n < 2:
            continue
        cl = bounded_closure(
            th, t, depth, size_cap=term_size(t.term) + slack, node_budget=node_budget
        )
        closures += 1
        closure_total += len(cl.entries)
        max_closure = max(max_closure, len(cl.entries))
        caps_hit = caps_hit or cl.cap_hit
        budget_hit = budget_hit or cl.budget_hit
        depth_hit = depth_hit or not (cl.exhausted or cl.budget_hit)
        complete = complete and cl.complete
        size = t.term.size
        best = None
        for u in cl.entries:
            if u.term.size != size or u == t:
                continue
            images = _renaming(t.term, u.term, n)
            if images is not None and (best is None or images < best[0]):
                best = (images, u)
        if best is not None:
            images, target = best
            report = FlabbyReport(t, Permutation(images), cl.derivation_to(target))
            if not verify_report(report, th):
                raise RuntimeError("internal error: flabby report failed verification")
            return FlabbySearchResult(
                FOUND, report, terms_enumerated, closures, closure_total,
                max_closure, caps_hit, budget_hit, depth_hit, bounds_doc,
            )
    status = EXHAUSTED if complete else BOUNDS
    return FlabbySearchResult(
        status, None, terms_enumerated, closures, closure_total,
        max_closure, caps_hit, budget_hit, depth_hit, bounds_doc,
    )
