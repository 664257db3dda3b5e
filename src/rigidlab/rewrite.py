"""Rewrite steps, replayable derivations, and bounded equational proof search.

A step names an axiom, a direction, a position, and the full substitution
for the axiom's context, so replaying a derivation needs no search.

The one-step relation is forward rewriting with every orientation of every
axiom whose source binds the axiom's whole context; an orientation whose
source does not is dropped, since applying it would have to invent terms.
An axiom is one-way when exactly one of its orientations is kept, that is,
when exactly one side mentions its whole context.  The relation is symmetric
exactly when no axiom is one-way.  Proof search is then bidirectional
breadth-first, meeting in the middle; on a theory with a one-way axiom a
backward step could be the flip of a dropped orientation, so the search
expands the left side only.  Tie-breaking is deterministic (axiom index,
then L->R before R->L, then pre-order position).

One breadth-first engine serves successors, bounded_closure and
prove_bounded.  A theory is compiled once, on first use, into its oriented
sides in tie-break order; the result is kept on the (frozen) Theory object.
The sides the kernel expands hold one orientation per renaming orbit: an
orientation whose (source, target) pair renames an earlier one's gives only
results the earlier one gave at the same positions (comm R->L repeats comm
L->R), so it is left out.  The set of kept orientations, which apply_step
checks, and the one-way test still cover every orientation.
A Closure is the one record of a breadth-first search, and Closure.grow
expands its frontier by one level.  bounded_closure grows one record;
prove_bounded grows one from each side in turn and looks for meets among
each level's new terms.  One parent walk turns a record's entries into the
steps of a derivation.  Per expanded term, the kernel walks the term once
and buckets its subterms by head symbol, so each side is matched only where
its root symbol occurs.  A match binds variables by index into a list and
compares a repeated variable's bindings by identity.  The kernel checks a
result's size against the cap before building it, and builds a RewriteStep,
with its substitution, only for a result that is new to the search.

Outcomes distinguish three cases: a derivation was found; the search was
exhausted, which always certifies non-provability; or a bound cut the
search short, and the reason ("depth", "nodes" or "size") names it.
_verdict is the one rule from search records to status and reason.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .terms import (
    App,
    Term,
    TermInContext,
    Var,
    _graft,
    render_term,
    replace_at,
    parse_term,
    substitute_terms,
    subterm_at,
    term_size,
    count_symbol,
    var_occurrences,
)
from .theory import Equation, Theory

__all__ = [
    "BOUNDS",
    "Closure",
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_SLACK",
    "Derivation",
    "EXHAUSTED",
    "FOUND",
    "LR",
    "ProofOutcome",
    "RewriteError",
    "RewriteStep",
    "RL",
    "SearchStats",
    "apply_step",
    "bounded_closure",
    "derivation_from_doc",
    "derivation_to_doc",
    "flip_step",
    "intermediates",
    "prove_bounded",
    "replay",
    "reverse_derivation",
    "successors",
    "symbol_census",
]

LR = "LR"
RL = "RL"

FOUND = "found"
EXHAUSTED = "exhausted"
BOUNDS = "bounds"

DEFAULT_SLACK = 8
DEFAULT_NODE_BUDGET = 1_000_000


class RewriteError(ValueError):
    """An ill-formed or inapplicable rewrite step."""


@dataclass(frozen=True)
class RewriteStep:
    """One oriented axiom application at a position, with its substitution.

    subst[i-1] is the term (in the rewritten term's context) standing for the
    axiom's context variable i.
    """

    axiom_index: int
    direction: str
    position: tuple
    subst: tuple

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(self.position))
        object.__setattr__(self, "subst", tuple(self.subst))
        if self.direction not in (LR, RL):
            raise ValueError(f"direction must be {LR!r} or {RL!r}")
        if self.axiom_index < 0:
            raise ValueError("axiom index must be non-negative")


def flip_step(step: RewriteStep) -> RewriteStep:
    """The same step in the opposite direction; undoes the original."""
    return RewriteStep(
        step.axiom_index,
        RL if step.direction == LR else LR,
        step.position,
        step.subst,
    )


@dataclass(frozen=True)
class Derivation:
    """A replayable proof: start term, step list, claimed end term."""

    start: TermInContext
    steps: tuple
    end: TermInContext

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


def _oriented(eq: Equation, direction: str) -> tuple[TermInContext, TermInContext]:
    return (eq.lhs, eq.rhs) if direction == LR else (eq.rhs, eq.lhs)


def apply_step(t: TermInContext, th: Theory, step: RewriteStep) -> TermInContext:
    """Apply one step; raises RewriteError unless it matches exactly.

    The step must be one of the search relation's: an orientation whose
    source does not bind the whole axiom context is no step, whatever the
    substitution.
    """
    if not 0 <= step.axiom_index < len(th.axioms):
        raise RewriteError(f"axiom index {step.axiom_index} out of range")
    eq = th.axioms[step.axiom_index]
    if (step.axiom_index, step.direction) not in _kernel(th)[2]:
        raise RewriteError(
            f"axiom {step.axiom_index} ({step.direction}) is no rewrite step: "
            "its source does not bind the whole axiom context"
        )
    if len(step.subst) != eq.context_len:
        raise RewriteError(
            f"substitution has {len(step.subst)} entries, axiom context is {eq.context_len}"
        )
    for s in step.subst:
        if s.context_len != t.context_len:
            raise RewriteError("substitution terms do not live in the rewritten term's context")
    src, dst = _oriented(eq, step.direction)
    expected = substitute_terms(src, step.subst, context_len=t.context_len).term
    try:
        actual = subterm_at(t.term, step.position)
    except ValueError as e:
        raise RewriteError(str(e)) from None
    if actual != expected:
        raise RewriteError(
            f"subterm {render_term(actual)} at {step.position} does not match "
            f"axiom {step.axiom_index} ({step.direction})"
        )
    new_sub = substitute_terms(dst, step.subst, context_len=t.context_len).term
    return TermInContext(replace_at(t.term, step.position, new_sub), t.context_len)


def _match(pattern: Term, target: Term, bound: list) -> bool:
    """Match pattern against target, filling bound[i-1] for variable i.

    bound starts as [None] * k for the pattern's context of length k.  Terms
    are hash-consed, so a repeated variable's bindings compare by identity.
    """
    if pattern.__class__ is Var:
        i = pattern.index - 1
        seen = bound[i]
        if seen is None:
            bound[i] = target
            return True
        return seen is target
    if target.__class__ is not App or target.sym is not pattern.sym:
        return False
    for p, q in zip(pattern.args, target.args):
        if not _match(p, q, bound):
            return False
    return True


def match_side(side: TermInContext, target: Term, target_context: int) -> Optional[tuple]:
    """First-order match of an axiom side against a subterm.

    Returns the substitution as a tuple of terms in the target's context, or
    None.  A match that leaves part of the axiom context unassigned is
    rejected: applying such an axiom would have to invent terms, which is
    outside one-step rewriting.
    """
    bound = [None] * side.context_len
    if not _match(side.term, target, bound) or None in bound:
        return None
    return tuple(TermInContext(b, target_context) for b in bound)


def _compile(th: Theory) -> tuple[list[tuple], list[tuple]]:
    """The theory's expansion sides and its kept orientations, in tie-break
    order.

    An orientation is kept when its source mentions every context variable;
    one whose source does not is dropped, since match_side rejects every
    match of it.  The expansion sides hold one kept orientation per renaming
    orbit: an orientation whose (source, target) pair, renumbered in
    first-occurrence order, equals an earlier one's rewrites every position
    to the result the earlier one already gave, so it is left out (comm R->L
    repeats comm L->R).  Each side is (axiom index, direction, source,
    context length, target, the source's root symbol or None, the target's
    variable occurrences as 0-based indices, the target's symbol-node
    count).  Each kept orientation is (axiom index, direction).
    """
    sides, kept, orbits = [], [], set()
    for ai, eq in enumerate(th.axioms):
        k = eq.context_len
        for direction in (LR, RL):
            src, dst = _oriented(eq, direction)
            order = dict.fromkeys(var_occurrences(src))
            if len(order) != k:
                continue
            kept.append((ai, direction))
            renumber = [None] * k
            for new, v in enumerate(order, 1):
                renumber[v - 1] = Var(new)
            orbit = (_graft(src.term, renumber), _graft(dst.term, renumber))
            if orbit in orbits:
                continue
            orbits.add(orbit)
            root = src.term.sym if isinstance(src.term, App) else None
            dst_vars = tuple(v - 1 for v in var_occurrences(dst))
            sides.append(
                (ai, direction, src.term, k, dst.term, root, dst_vars, dst.term.size - len(dst_vars))
            )
    return sides, kept


def _kernel(th: Theory) -> tuple[list[tuple], bool, frozenset]:
    """th's expansion sides, whether th has a one-way axiom, and the set of
    (axiom index, direction) pairs the kernel keeps.

    The one-way flag and the kept set cover every kept orientation, also
    those the expansion sides leave out as renamings, so apply_step and
    replay accept a step in either.  Computed on first use and kept on th,
    the way Theory keeps its symbol table; a Theory is frozen, so the result
    never goes stale.
    """
    kernel = getattr(th, "_kernel", None)
    if kernel is None:
        sides, kept = _compile(th)
        one_way = 1 in Counter(ai for ai, _ in kept).values()
        kernel = (sides, one_way, frozenset(kept))
        object.__setattr__(th, "_kernel", kernel)
    return kernel


def _expand(
    t: TermInContext, sides: list, size_cap: int, visited: dict, distance: int, new: list
) -> bool:
    """The successor kernel: record t's one-step rewrites that visited lacks.

    Walks t once in pre-order and buckets its subterms by head symbol, so a
    side is tried only where its root symbol occurs (everywhere when its root
    is a variable).  A result over size_cap is never built; the return value
    says whether one occurred.  A result already in visited is skipped before
    its RewriteStep is built; each other result goes into visited as
    (distance, t, its first witnessing step) and is appended to new, in
    tie-break order.
    """
    term, n = t.term, t.context_len
    walk = []
    by_head: dict = {}
    stack = [((), term)]
    while stack:
        pos, sub = stack.pop()
        walk.append((pos, sub))
        if sub.__class__ is App:
            bucket = by_head.get(sub.sym)
            if bucket is None:
                by_head[sub.sym] = [(pos, sub)]
            else:
                bucket.append((pos, sub))
            args = sub.args
            for i in range(len(args) - 1, -1, -1):
                stack.append((pos + (i,), args[i]))
    base = term.size
    cap_hit = False
    for ai, direction, src, k, dst, root, dst_vars, dst_fixed in sides:
        for pos, sub in walk if root is None else by_head.get(root, ()):
            bound = [None] * k
            if not _match(src, sub, bound):
                continue
            size = base - sub.size + dst_fixed
            for v in dst_vars:
                size += bound[v].size
            if size > size_cap:
                cap_hit = True
                continue
            nt = TermInContext(replace_at(term, pos, _graft(dst, bound)), n)
            if nt in visited:
                continue
            step = RewriteStep(ai, direction, pos, tuple(TermInContext(s, n) for s in bound))
            visited[nt] = (distance, t, step)
            new.append(nt)
    return cap_hit


def _path(entries: dict, t) -> list:
    """The steps on the parent links of entries from the root to t, in order."""
    steps = []
    _, parent, step = entries[t]
    while parent is not None:
        steps.append(step)
        _, parent, step = entries[parent]
    steps.reverse()
    return steps


def successors(
    t: TermInContext, th: Theory, size_cap: int
) -> list[tuple[TermInContext, RewriteStep]]:
    """Distinct one-step rewrites of t within the size cap.

    Each result term appears once, paired with its first witnessing step in
    tie-break order; the list order is deterministic.
    """
    if size_cap < term_size(t.term):
        raise ValueError("size cap is smaller than the term itself")
    entries: dict = {}
    new: list = []
    _expand(t, _kernel(th)[0], size_cap, entries, 1, new)
    return [(nt, entries[nt][2]) for nt in new]


@dataclass
class Closure:
    """The record of one breadth-first search from start.

    entries maps every reached term to (distance, parent, step); frontier
    holds the terms of the last level reached, still to be expanded, and
    depth_reached counts the levels completed.  expanded counts expanded
    terms, cap_hit says the size cap pruned a result, and budget_hit says
    the node budget cut a level short (the frontier then stays the one that
    level was expanding).  word_bfs fills one with words in place of terms.
    """

    start: TermInContext
    entries: dict
    frontier: list
    depth_reached: int = 0
    expanded: int = 0
    cap_hit: bool = False
    budget_hit: bool = False

    @property
    def exhausted(self) -> bool:
        """The frontier emptied: nothing reached is left to expand."""
        return not self.frontier

    @property
    def complete(self) -> bool:
        """Nothing cut the search short: the frontier emptied and the size
        cap never pruned a result, so entries is the start's whole class."""
        return not self.frontier and not self.cap_hit

    def grow(self, sides: list, size_cap: int, node_budget: int) -> list:
        """Expand the frontier by one level; returns the new terms in order.

        When expanded reaches node_budget, sets budget_hit and returns the
        terms reached so far, keeping the frontier and depth_reached.
        """
        new: list = []
        distance = self.depth_reached + 1
        for t in self.frontier:
            if self.expanded >= node_budget:
                self.budget_hit = True
                return new
            self.expanded += 1
            if _expand(t, sides, size_cap, self.entries, distance, new):
                self.cap_hit = True
        self.frontier = new
        self.depth_reached = distance
        return new

    @classmethod
    def of(cls, start) -> "Closure":
        """A search that has reached only start."""
        return cls(start, {start: (0, None, None)}, [start])

    def __contains__(self, t: TermInContext) -> bool:
        return t in self.entries

    def distance(self, t: TermInContext) -> int:
        return self.entries[t][0]

    def derivation_to(self, t: TermInContext) -> Derivation:
        return Derivation(self.start, tuple(_path(self.entries, t)), t)


def _verdict(*searches: Closure) -> tuple[str, Optional[str]]:
    """Status and reason of a search that found nothing, from its records.

    A node budget cut gives "bounds" for "nodes"; a complete record gives
    "exhausted", which certifies; a frontier that emptied only under the
    size cap gives "bounds" for "size"; anything else, a frontier still
    open at the depth bound, gives "bounds" for "depth".
    """
    if any(s.budget_hit for s in searches):
        return BOUNDS, "nodes"
    if any(s.complete for s in searches):
        return EXHAUSTED, None
    if any(s.exhausted for s in searches):
        return BOUNDS, "size"
    return BOUNDS, "depth"


@dataclass
class SearchStats:
    expanded: int = 0
    visited_left: int = 0
    visited_right: int = 0
    depth_left: int = 0
    depth_right: int = 0
    cap_hit: bool = False
    budget_hit: bool = False

    def to_doc(self) -> dict:
        return {
            "expanded": self.expanded,
            "visited_left": self.visited_left,
            "visited_right": self.visited_right,
            "depth_left": self.depth_left,
            "depth_right": self.depth_right,
            "cap_hit": self.cap_hit,
            "budget_hit": self.budget_hit,
        }


@dataclass
class ProofOutcome:
    """Result of a bounded search: found / exhausted / bounds.

    certified is True exactly when status is "exhausted": some side's class
    was explored completely and misses the other side, so the goal is not
    provable.  reason says which bound cut a "bounds" search short:
    "depth", "nodes", or "size" (a class emptied only under the size cap).
    """

    status: str
    derivation: Optional[Derivation]
    certified: bool
    reason: Optional[str]
    stats: SearchStats
    bounds: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.status == FOUND

    def to_doc(self) -> dict:
        return {
            "status": self.status,
            "certified": self.certified,
            "reason": self.reason,
            "bounds": self.bounds,
            "stats": self.stats.to_doc(),
            "derivation": derivation_to_doc(self.derivation) if self.derivation else None,
        }


def prove_bounded(
    th: Theory,
    goal: Equation,
    depth: int,
    *,
    size_cap: Optional[int] = None,
    slack: int = DEFAULT_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ProofOutcome:
    """Search for a derivation of goal.lhs = goal.rhs of at most depth steps.

    Bidirectional breadth-first search: one closure record grows from each
    side, in turns under one shared node budget, the smaller frontier first,
    and the search only commits to a meeting point once no shorter one can
    exist, so a found derivation has minimal length among those within
    bounds.  On a theory with a one-way axiom only the left side grows: depth counts
    its levels.  The default size cap is max(size(lhs), size(rhs)) + slack.
    """
    lhs, rhs = goal.lhs, goal.rhs
    cap = size_cap if size_cap is not None else max(term_size(lhs.term), term_size(rhs.term)) + slack
    cap = max(cap, term_size(lhs.term), term_size(rhs.term))
    bounds_doc = {"depth": depth, "size_cap": cap, "node_budget": node_budget}
    sides, one_way, _ = _kernel(th)
    left, right = Closure.of(lhs), Closure.of(rhs)
    # The relation is not symmetric with a one-way axiom: only forward steps
    # from lhs count, and the right record stays at rhs.
    searches = (left,) if one_way else (left, right)
    # The first meet of the shortest length mu seen so far.
    meet, mu = (lhs, 0) if lhs == rhs else (None, depth + 1)
    while left.depth_reached + right.depth_reached < min(depth, mu):
        open_ = [s for s in searches if s.frontier]
        # Once a side's frontier empties, no new meet can appear: the other
        # side grows on only to certify, past a capped one.
        if not open_ or any(s.complete for s in searches):
            break
        if meet is not None and len(open_) < len(searches):
            break
        grown = min(open_, key=lambda s: len(s.frontier))
        other = right if grown is left else left
        d_new = grown.depth_reached + 1
        for nt in grown.grow(sides, cap, node_budget - other.expanded):
            entry = other.entries.get(nt)
            if entry is not None and d_new + entry[0] < mu:
                mu = d_new + entry[0]
                meet = nt
        if grown.budget_hit:
            break

    stats = SearchStats(
        left.expanded + right.expanded, len(left.entries), len(right.entries),
        left.depth_reached, right.depth_reached,
        left.cap_hit or right.cap_hit, left.budget_hit or right.budget_hit,
    )
    if meet is not None:
        # Every meet lies within depth: a level is expanded only while the
        # two levels sum to less than depth.
        back = [flip_step(s) for s in reversed(_path(right.entries, meet))]
        deriv = Derivation(lhs, tuple(_path(left.entries, meet) + back), rhs)
        if len(deriv.steps) != mu or not replay(deriv, th):
            raise RuntimeError("internal error: assembled derivation failed replay")
        return ProofOutcome(FOUND, deriv, False, None, stats, bounds_doc)
    status, reason = _verdict(left, right)
    return ProofOutcome(status, None, status == EXHAUSTED, reason, stats, bounds_doc)


def bounded_closure(
    th: Theory,
    start: TermInContext,
    depth: int,
    *,
    size_cap: Optional[int] = None,
    slack: int = DEFAULT_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Closure:
    """The closure record of start, grown level by level up to depth."""
    cap = size_cap if size_cap is not None else term_size(start.term) + slack
    cap = max(cap, term_size(start.term))
    sides = _kernel(th)[0]
    cl = Closure.of(start)
    while cl.frontier and cl.depth_reached < depth and not cl.budget_hit:
        cl.grow(sides, cap, node_budget)
    return cl


def replay(d: Derivation, th: Theory) -> bool:
    """Check a derivation by re-applying every step from the start term."""
    try:
        cur = d.start
        for step in d.steps:
            cur = apply_step(cur, th, step)
    except (RewriteError, ValueError):
        return False
    return cur == d.end


def intermediates(d: Derivation, th: Theory) -> list[TermInContext]:
    """All terms along a derivation, start first; raises if it does not replay."""
    out = [d.start]
    cur = d.start
    for step in d.steps:
        cur = apply_step(cur, th, step)
        out.append(cur)
    if cur != d.end:
        raise RewriteError("derivation does not end at its claimed end term")
    return out


def reverse_derivation(d: Derivation) -> Derivation:
    """The same proof read backwards; flips every step's direction."""
    return Derivation(d.end, tuple(flip_step(s) for s in reversed(d.steps)), d.start)


def symbol_census(d: Derivation, th: Theory, sym) -> list[int]:
    """Occurrence count of one symbol (or symbol name) along the derivation."""
    if isinstance(sym, str):
        sym = th.symbol(sym)
    return [count_symbol(t.term, sym) for t in intermediates(d, th)]


# ---- JSON export ----

def derivation_to_doc(d: Derivation) -> dict:
    return {
        "context_len": d.start.context_len,
        "start": render_term(d.start.term),
        "end": render_term(d.end.term),
        "steps": [
            {
                "axiom": s.axiom_index,
                "direction": s.direction,
                "position": list(s.position),
                "subst": [render_term(u.term) for u in s.subst],
            }
            for s in d.steps
        ],
    }


def _field(doc, key: str, kind: type, item: Optional[type] = None):
    """doc[key], which must be a kind, or a list of item when item is given."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"the document is not a derivation: missing key {key!r}")
    value = doc[key]
    ok = isinstance(value, kind) and not isinstance(value, bool)
    if ok and item is not None:
        ok = all(isinstance(v, item) and not isinstance(v, bool) for v in value)
    if not ok:
        what = kind.__name__ if item is None else f"list of {item.__name__}"
        raise ValueError(f"the document is not a derivation: {key!r} must be of type {what}")
    return value


def derivation_from_doc(doc: dict, th: Theory) -> Derivation:
    """Read a derivation_to_doc document; raises ValueError on any other shape."""
    symbols = th.symbols_by_name()
    n = _field(doc, "context_len", int)
    start = TermInContext(parse_term(_field(doc, "start", str), symbols), n)
    end = TermInContext(parse_term(_field(doc, "end", str), symbols), n)
    steps = []
    for s in _field(doc, "steps", list, dict):
        subst = tuple(TermInContext(parse_term(u, symbols), n) for u in _field(s, "subst", list, str))
        steps.append(
            RewriteStep(
                _field(s, "axiom", int),
                _field(s, "direction", str),
                tuple(_field(s, "position", list, int)),
                subst,
            )
        )
    return Derivation(start, tuple(steps), end)
