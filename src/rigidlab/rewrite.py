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

One successor kernel serves successors, bounded_closure and prove_bounded.
A theory is compiled once, on first use, into its oriented sides in
tie-break order; the result is kept on the (frozen) Theory object.  Per
expanded term, the kernel walks the term once and buckets its subterms by
head symbol, so each side is matched only where its root symbol occurs.  It
checks a result's size against the cap before building it, and builds a
RewriteStep, with its substitution, only for a result that is new to the
search.

Outcomes distinguish three cases: a derivation was found; the search space
was exhausted (which certifies non-provability whenever the size cap never
pruned anything); or a bound (depth or node budget) cut the search short.
"""

from __future__ import annotations

import json
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
    """Apply one step; raises RewriteError unless it matches exactly."""
    if not 0 <= step.axiom_index < len(th.axioms):
        raise RewriteError(f"axiom index {step.axiom_index} out of range")
    eq = th.axioms[step.axiom_index]
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


def _match(pattern: Term, target: Term, bound: dict) -> bool:
    if isinstance(pattern, Var):
        seen = bound.get(pattern.index)
        if seen is None:
            bound[pattern.index] = target
            return True
        return seen == target
    if not isinstance(target, App) or target.sym != pattern.sym:
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
    bound: dict[int, Term] = {}
    if not _match(side.term, target, bound):
        return None
    if len(bound) != side.context_len:
        return None
    return tuple(TermInContext(bound[i], target_context) for i in range(1, side.context_len + 1))


def _compile(th: Theory) -> list[tuple]:
    """The theory's oriented sides in tie-break order, as kernel entries.

    Each entry is (axiom index, direction, source, context length, target,
    the source's root symbol or None, the target's variable occurrences, the
    target's symbol-node count).  An orientation whose source does not
    mention every context variable is dropped: match_side rejects every
    match of it.
    """
    sides = []
    for ai, eq in enumerate(th.axioms):
        k = eq.context_len
        for direction in (LR, RL):
            src, dst = _oriented(eq, direction)
            if len(set(var_occurrences(src))) != k:
                continue
            root = src.term.sym if isinstance(src.term, App) else None
            dst_vars = var_occurrences(dst)
            sides.append(
                (ai, direction, src.term, k, dst.term, root, dst_vars, dst.term.size - len(dst_vars))
            )
    return sides


def _kernel(th: Theory) -> tuple[list[tuple], bool]:
    """th's kernel sides and whether th has a one-way axiom.

    Computed on first use and kept on th, the way Theory keeps its symbol
    table; a Theory is frozen, so the result never goes stale.
    """
    kernel = getattr(th, "_kernel", None)
    if kernel is None:
        sides = _compile(th)
        kept = Counter(side[0] for side in sides)
        kernel = (sides, 1 in kept.values())
        object.__setattr__(th, "_kernel", kernel)
    return kernel


def _expand(
    t: TermInContext, sides: list, size_cap: int, visited
) -> tuple[list[tuple[TermInContext, RewriteStep]], bool]:
    """The successor kernel: distinct one-step rewrites of t not in visited.

    Walks t once in pre-order and buckets its subterms by head symbol, so a
    side is tried only where its root symbol occurs (everywhere when its root
    is a variable).  A result over size_cap only sets the cap flag and is
    never built; a result already seen in this call or present in visited is
    skipped before its RewriteStep is built.  Results come in tie-break
    order, each with its first witnessing step.
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
    seen = set()
    out = []
    cap_hit = False
    for ai, direction, src, k, dst, root, dst_vars, dst_fixed in sides:
        for pos, sub in walk if root is None else by_head.get(root, ()):
            bound: dict = {}
            if not _match(src, sub, bound):
                continue
            size = base - sub.size + dst_fixed
            for v in dst_vars:
                size += bound[v].size
            if size > size_cap:
                cap_hit = True
                continue
            subst = [bound[i] for i in range(1, k + 1)]
            result = _rebuild(term, pos, _graft(dst, subst))
            if result in seen:
                continue
            seen.add(result)
            nt = TermInContext(result, n)
            if nt in visited:
                continue
            step = RewriteStep(ai, direction, pos, tuple(TermInContext(s, n) for s in subst))
            out.append((nt, step))
    return out, cap_hit


def _rebuild(term: Term, pos: tuple, new_sub: Term) -> Term:
    """term with the subterm at pos replaced, rebuilding the spine iteratively."""
    spine = []
    for i in pos:
        spine.append(term)
        term = term.args[i]
    for node, i in zip(reversed(spine), reversed(pos)):
        args = node.args
        new_sub = App(node.sym, args[:i] + (new_sub,) + args[i + 1 :])
    return new_sub


def successors(
    t: TermInContext, th: Theory, size_cap: int
) -> list[tuple[TermInContext, RewriteStep]]:
    """Distinct one-step rewrites of t within the size cap.

    Each result term appears once, paired with its first witnessing step in
    tie-break order; the list order is deterministic.
    """
    if size_cap < term_size(t.term):
        raise ValueError("size cap is smaller than the term itself")
    out, _ = _expand(t, _kernel(th)[0], size_cap, set())
    return out


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

    certified is True only for an exhausted search whose size cap never
    pruned anything: then the explored closure is complete and the goal is
    genuinely not provable.  reason distinguishes which bound cut a "bounds"
    search short ("depth" or "nodes").
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


def _walk_back(visited: dict, term: TermInContext) -> list[RewriteStep]:
    """Steps collected walking parent links from term back to the root."""
    steps = []
    cur = term
    while True:
        _, parent, step = visited[cur]
        if parent is None:
            return steps
        steps.append(step)
        cur = parent


def _assemble(
    lhs: TermInContext,
    rhs: TermInContext,
    meet: TermInContext,
    visited_l: dict,
    visited_r: dict,
) -> Derivation:
    left = list(reversed(_walk_back(visited_l, meet)))
    right = [flip_step(s) for s in _walk_back(visited_r, meet)]
    return Derivation(lhs, tuple(left + right), rhs)


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

    Bidirectional breadth-first search; levels are expanded on the smaller
    frontier first and the search only commits to a meeting point once no
    shorter one can exist, so a found derivation has minimal length among
    those within bounds.  On a theory with a one-way axiom only the left
    side is expanded: depth counts its levels, and a negative is certified
    only when it empties with no cap hit.  The default size cap is
    max(size(lhs), size(rhs)) + slack.
    """
    lhs, rhs = goal.lhs, goal.rhs
    cap = size_cap if size_cap is not None else max(term_size(lhs.term), term_size(rhs.term)) + slack
    cap = max(cap, term_size(lhs.term), term_size(rhs.term))
    bounds_doc = {"depth": depth, "size_cap": cap, "node_budget": node_budget}
    stats = SearchStats()
    sides, one_way = _kernel(th)

    def finish(status, deriv=None, certified=False, reason=None):
        stats.visited_left = len(visited[0])
        stats.visited_right = len(visited[1])
        stats.depth_left = level[0]
        stats.depth_right = level[1]
        stats.cap_hit = cap_hit[0] or cap_hit[1]
        return ProofOutcome(status, deriv, certified, reason, stats, bounds_doc)

    visited = ({lhs: (0, None, None)}, {rhs: (0, None, None)})
    level = [0, 0]
    cap_hit = [False, False]

    if lhs == rhs:
        return finish(FOUND, Derivation(lhs, (), rhs))

    frontier = [[lhs], [rhs]]
    meets: list[tuple[int, int, TermInContext]] = []
    mu = depth + 1  # best meet length seen; depth+1 means none within reach yet
    found_any_meet = False

    while frontier[0] or frontier[1]:
        if one_way:
            # The relation is not symmetric: only forward steps from lhs count,
            # and the right frontier stays at rhs.
            if not frontier[0]:
                break
            side = 0
        elif frontier[0] and frontier[1]:
            side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        else:
            # One side's closure is complete, so no further meet can appear.
            # If the size cap pruned it, expanding the other side to its end
            # is the only way left to certify.
            side = 0 if frontier[0] else 1
            if found_any_meet or not cap_hit[1 - side]:
                break
        done = level[0] + level[1]
        if done >= depth or (found_any_meet and done >= mu):
            break
        other = 1 - side
        d_new = level[side] + 1
        new_frontier = []
        for t in frontier[side]:
            if stats.expanded >= node_budget:
                stats.budget_hit = True
                break
            stats.expanded += 1
            succs, hit = _expand(t, sides, cap, visited[side])
            cap_hit[side] = cap_hit[side] or hit
            for nt, step in succs:
                visited[side][nt] = (d_new, t, step)
                new_frontier.append(nt)
                entry = visited[other].get(nt)
                if entry is not None:
                    total = d_new + entry[0]
                    meets.append((total, len(meets), nt))
                    found_any_meet = True
                    if total < mu:
                        mu = total
        if stats.budget_hit:
            break
        frontier[side] = new_frontier
        level[side] = d_new

    if found_any_meet and mu <= depth:
        best = min(m for m in meets if m[0] == mu)
        deriv = _assemble(lhs, rhs, best[2], visited[0], visited[1])
        if len(deriv.steps) != mu or not replay(deriv, th):
            raise RuntimeError("internal error: assembled derivation failed replay")
        return finish(FOUND, deriv)
    if found_any_meet:
        # provable, but only beyond the requested depth
        return finish(BOUNDS, reason="depth")
    if stats.budget_hit:
        return finish(BOUNDS, reason="nodes")
    if not frontier[0] or not frontier[1]:
        certified = (not frontier[0] and not cap_hit[0]) or (not frontier[1] and not cap_hit[1])
        return finish(EXHAUSTED, certified=certified)
    return finish(BOUNDS, reason="depth")


@dataclass
class Closure:
    """Bounded forward closure of one term under the rewrite relation.

    entries maps every reached term to (distance, parent, step); exhausted is
    True when the frontier emptied before the depth bound, in which case the
    closure is complete unless cap_hit or budget_hit is set.
    """

    start: TermInContext
    entries: dict
    exhausted: bool
    cap_hit: bool
    budget_hit: bool
    expanded: int
    depth_reached: int

    def __contains__(self, t: TermInContext) -> bool:
        return t in self.entries

    def distance(self, t: TermInContext) -> int:
        return self.entries[t][0]

    def derivation_to(self, t: TermInContext) -> Derivation:
        steps = list(reversed(_walk_back(self.entries, t)))
        return Derivation(self.start, tuple(steps), t)


def bounded_closure(
    th: Theory,
    start: TermInContext,
    depth: int,
    *,
    size_cap: Optional[int] = None,
    slack: int = DEFAULT_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Closure:
    cap = size_cap if size_cap is not None else term_size(start.term) + slack
    cap = max(cap, term_size(start.term))
    sides = _kernel(th)[0]
    entries = {start: (0, None, None)}
    frontier = [start]
    d = 0
    cap_hit = False
    budget_hit = False
    expanded = 0
    while frontier and d < depth and not budget_hit:
        new_frontier = []
        for t in frontier:
            if expanded >= node_budget:
                budget_hit = True
                break
            expanded += 1
            succs, hit = _expand(t, sides, cap, entries)
            cap_hit = cap_hit or hit
            for nt, step in succs:
                entries[nt] = (d + 1, t, step)
                new_frontier.append(nt)
        if budget_hit:
            break
        frontier = new_frontier
        d += 1
    exhausted = not frontier and not budget_hit
    return Closure(start, entries, exhausted, cap_hit, budget_hit, expanded, d)


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


def _field(doc, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"the document is not a derivation: missing key {key!r}")
    return doc[key]


def derivation_from_doc(doc: dict, th: Theory) -> Derivation:
    """Read a derivation_to_doc document; raises ValueError on any other shape."""
    symbols = th.symbols_by_name()
    n = int(_field(doc, "context_len"))
    start = TermInContext(parse_term(_field(doc, "start"), symbols), n)
    end = TermInContext(parse_term(_field(doc, "end"), symbols), n)
    steps = []
    for s in _field(doc, "steps"):
        subst = tuple(TermInContext(parse_term(u, symbols), n) for u in _field(s, "subst"))
        steps.append(
            RewriteStep(
                int(_field(s, "axiom")), _field(s, "direction"), tuple(_field(s, "position")), subst
            )
        )
    return Derivation(start, tuple(steps), end)
