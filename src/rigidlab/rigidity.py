"""Canonical enumeration of linear-regular terms and the flabby-term search.

A term in context n is flabby when the theory proves it equal to itself with
its variables permuted non-trivially; a theory with no flabby term is rigid.
The search enumerates canonical linear-regular terms (variables numbered in
first-occurrence order, so each shape appears once) and computes one bounded
rewrite closure per term.  One memoised depth-first recursion builds the
terms already in canonical order (pre-order tags, variables before symbols,
symbols in signature order), so no batch is sorted.  Rather than build
every permutation image, it scans the closure once: an entry of the term's
size whose canonical form (terms.canonical) is the term renames it, and
canonical's renaming is the permutation's image tuple.
Canonical order loses no generality: t is flabby exactly when any renaming
of t is.

Rewriting commutes with renaming, so on a theory whose one-step relation is
symmetric (no one-way axiom) a term is flabby exactly when every member of
its class is.  A closure that completes without a witness therefore clears
its whole class: a later enumerated term whose canonical form is among the
class's entries is decided without a closure of its own (the
canonical-representative reduction of Ip & Dill, "Better verification
through symmetry", FMSD 1996).  With a one-way axiom a complete closure is
only what the term reaches, not what reaches it, so nothing is shared.

A term that no side of the one-step relation matches anywhere is inert: it
is in normal form, its class is itself, and it is decided without a closure,
counted as its one-entry closure would count.  Inertness is compositional,
so it is read off each node's children and the sides rooted at its symbol,
with one memo per search.
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
    _kernel,
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
    canonical,
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

    status is "found", "exhausted" (every enumerated term cleared and its
    class known complete, certifying rigidity of the searched fragment), or
    "bounds" (no witness, but some closure was truncated).  With no witness
    it is read off the three flags: "exhausted" exactly when caps_hit,
    budget_hit and depth_hit are all false, since a closure that ran is
    incomplete exactly when it sets one of them.  depth_hit is set when
    some closure still had a frontier at the depth bound.  closures_computed
    counts every term with two or more variables, and closure_terms_total
    adds up their closures' entries, a shared class counting its size.
    classes_shared counts the terms among them decided by an earlier
    complete class, with no closure run.  An inert term, which no side
    matches anywhere, runs no closure either: it counts in closures_computed
    and adds 1 to closure_terms_total, as its one-entry closure would.
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
    classes_shared: int = 0

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
                "classes_shared": self.classes_shared,
            },
            "bounds": self.bounds,
        }


def _inert(node: Term, at_root: dict, memo: dict, max_size: int) -> bool:
    """No side matches node or any of its subterms.

    at_root maps a root symbol to the generated functions of the sides
    rooted at it.  memo maps a node to its flag, and keeps only nodes
    smaller than max_size: a term of max_size is never a subterm of an
    enumerated one.  This is a module function because a recursive nested
    one is a reference cycle, which would hold memo after the search
    returns, until the next full collection.
    """
    if node.__class__ is Var:
        return True
    flag = memo.get(node)
    if flag is None:
        # Any match, even one over the size cap (False), is a rewrite.
        flag = all(_inert(a, at_root, memo, max_size) for a in node.args) and all(
            match(node, 0) is None for match in at_root.get(node.sym, ())
        )
        if node.size < max_size:
            memo[node] = flag
    return flag


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

    One bounded closure is computed per canonical term t, and its entries
    are walked once.  Each entry other than t whose canonical form is t
    gives a non-identity permutation sigma with sigma(t) in the closure,
    its image tuple the renaming canonical returns; the lexicographically
    least image tuple is kept.  The first witness in canonical order is
    returned, with the breadth-first (hence minimal-length) derivation from
    the shared closure.  On a theory with no one-way axiom, a
    term whose canonical form an earlier complete closure without a witness
    reached is cleared by that class instead, and counted in
    classes_shared.  No flabby term is ever cleared so: the term whose
    closure covered it would be flabby, and found first.  An inert term is
    cleared as its own class, with no closure run.  With no witness the
    status is "exhausted" when no closure set caps_hit, budget_hit or
    depth_hit, and "bounds" otherwise.
    """
    res = FlabbySearchResult(
        BOUNDS, None, 0, 0, 0, 0, False, False, False,
        {
            "max_size": max_size,
            "max_context": max_context,
            "depth": depth,
            "slack": slack,
            "node_budget": node_budget,
        },
    )
    sides, one_way = _kernel(th)[:2]
    # Only a symmetric relation, with no one-way axiom, makes a complete
    # class decide its members.
    share = not one_way
    cleared: dict = {}  # canonical term -> size of the class that cleared it
    # The sides by root symbol.  A term no side matches anywhere is inert:
    # its class is itself, and its closure would be one entry, complete,
    # with no flag set.  That holds only when the closure expands the term
    # (depth and budget at least 1), and is checked by root symbol only when
    # no side's root is a variable.
    at_root: dict = {}
    for side in sides:
        at_root.setdefault(side[2], []).append(side[3])
    decide_inert = depth >= 1 and node_budget >= 1 and None not in at_root
    inert: dict = {}  # node smaller than max_size -> whether it is inert
    for t in enumerate_linear_regular(th, max_size, max_context):
        res.terms_enumerated += 1
        if t.context_len < 2:
            continue
        res.closures_computed += 1
        class_size = cleared.pop(t.term, None)
        if class_size is not None:
            res.classes_shared += 1
            res.closure_terms_total += class_size
            continue
        if decide_inert and _inert(t.term, at_root, inert, max_size):
            res.closure_terms_total += 1
            res.max_closure = max(res.max_closure, 1)
            continue
        cl = bounded_closure(
            th, t, depth, size_cap=term_size(t.term) + slack, node_budget=node_budget
        )
        count = len(cl.entries)
        res.closure_terms_total += count
        res.max_closure = max(res.max_closure, count)
        res.caps_hit = res.caps_hit or cl.cap_hit
        res.budget_hit = res.budget_hit or cl.budget_hit
        res.depth_hit = res.depth_hit or not (cl.exhausted or cl.budget_hit)
        # An entry of t's size whose canonical form is t renames t, and the
        # renaming's image tuple comes with it.  A complete class of a
        # symmetric relation also clears the canonical form of each member
        # up to max_size: the relation keeps t's variables in every entry,
        # and entries smaller than t were enumerated before it.  A canonical
        # form that repeats a variable is never enumerated, so never looked
        # up.
        clear = share and cl.complete
        size = t.term.size
        top = max_size if clear else size
        best = None
        for u in cl.entries:
            v = u.term
            if not size <= v.size <= top:
                continue
            c, images = canonical(v)
            if c is t.term:
                if v is not t.term and (best is None or images < best[0]):
                    best = (images, u)
            elif clear:
                cleared[c] = count
        if best is not None:
            images, target = best
            res.status = FOUND
            res.report = FlabbyReport(t, Permutation(images), cl.derivation_to(target))
            if not verify_report(res.report, th):
                raise RuntimeError("internal error: flabby report failed verification")
            return res
    res.status = BOUNDS if res.caps_hit or res.budget_hit or res.depth_hit else EXHAUSTED
    return res
