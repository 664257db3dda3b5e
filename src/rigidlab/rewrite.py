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

One breadth-first engine serves successors, bounded_closure, prove_bounded
and the string route's word_bfs.  A theory's one-step relation is one
record, built once, on first use, in one pass over the orientations and
kept on the (frozen) Theory object: its kept orientations, its expansion
sides in tie-break order, each with its inverse side, and its one-way flag.
The sides hold one orientation per renaming orbit: an orientation whose
(source, target) pair renames an earlier one's gives only results the
earlier one gave at the same positions (comm R->L repeats comm L->R), so it
is left out.  The one-way flag, and apply_step's test of whether an
orientation is kept, still cover every orientation.  Only the record's
expansion function is compiled, on the first search.
A Closure is the one record of a breadth-first search, and Closure.grow
expands its frontier by one level under a one-step relation: the term
kernel, or word_bfs's string rewriting.  bounded_closure grows one record;
_search, the one meet loop, grows one from each side in turn for
prove_bounded and word_bfs.  The term kernel is one generated Python
function per theory, the expansion function, compiled once from the sides.
Per expanded term it walks the term once into three parallel lists, each
subterm with its parent's walk index and its argument index, and lists the
subterms by head symbol, so each side is tried only where its root symbol
occurs.  Then comes one straight-line block per side, in tie-break order,
that matches the side's source against a subterm and builds its target:
class and symbol identity checks, an identity check for a repeated
variable, the step's size change as one sum checked against the cap before
building, and one table lookup per symbol node of the result, with a call
of the terms module's node maker only on a miss.  After each block the
result is rebuilt upward along the parent links the same way, one table
lookup per ancestor.  The
expansion function is the only code generated.  Terms are hash-consed, so
that bare term is the result's identity: each term record maps the bare
terms it has reached to their back-move bits, and a result already in it
costs nothing more; most results are such repeats, so they never call App
at all.  A set bit names a move, a side at a walk index, that leads back
into the record: a result u -> v sets on v the bit of the inverse side at
the same walk index, which gives back u, and v's expansion skips that move
once its source has matched, before anything is built.
On a relation with inverse moves each edge is so built once, from the end
expanded first, as frontier search does (Korf, Zhang, Thayer & Hohwald,
"Frontier search", JACM 2005).  The bits are the term kernel's only: the
string route's records map their words to 0, a plain visited set, since a
word's move costs less than its bit arithmetic.  Only a result new to the
search gets its TermInContext and an entry, which records its parent, the
side that reached it and that side's walk index in the parent; no position,
substitution or RewriteStep is built while the search runs.  One parent
walk turns a record's entries into the steps of a derivation when it is
read.  Closure.step rebuilds a step once from its entry: at that one
subterm of the parent it reads the binding by walking that side's source
against the parent's subterm and its target against the entry's subterm
together, checking identity all along (an internal error on a mismatch),
and keeps the step.  So the rebuilt step is the one the search first
found, and reading a derivation runs no generated code.  apply_step, and so
replay, neither runs nor compiles generated code and never trusts the
kernel: it tests the step's orientation against the relation's kept
orientations, substitutes the step's terms into the axiom's sides,
compares, and swaps the result in with replace_at.

Outcomes distinguish three cases: a derivation was found; the search was
exhausted, which always certifies non-provability; or a bound cut the
search short, and the reason ("depth", "nodes" or "size") names it.
_verdict is the one rule from search records to status and reason.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from itertools import count
from typing import Callable, Optional

from .terms import (
    App,
    Symbol,
    Term,
    TermInContext,
    Var,
    _make,
    canonical,
    render_term,
    replace_at,
    parse_term,
    substitute_terms,
    subterm_at,
    term_size,
    count_symbol,
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

_PAIR = Symbol("pair", 2)  # joins an orientation's source and target into one orbit key
_COMPILES = count(1)  # numbers each theory's generated code in its file names
# Stands in for a missing table entry's weak ref: calling it gives None, as a
# dead ref does, so table.get(args, _NO_REF)() is the live node or None.
_NO_REF = type(None)


class RewriteError(ValueError):
    """An ill-formed or inapplicable rewrite step."""


@dataclass(frozen=True)
class RewriteStep:
    """One oriented axiom application at a position, with its substitution.

    subst[i-1] is the term (in the rewritten term's context) standing for the
    axiom's context variable i.
    """

    # Slotted by hand: dataclass(slots=True) rebuilds the class, and its
    # frozen __setattr__ then raises TypeError, not FrozenInstanceError, for
    # a name that is no field.  __reduce__ copies and pickles through the
    # constructor, since the frozen __setattr__ refuses to restore slots.
    __slots__ = ("axiom_index", "direction", "position", "subst")

    axiom_index: int
    direction: str
    position: tuple
    subst: tuple

    def __post_init__(self):
        if self.direction not in (LR, RL):
            raise ValueError(f"direction must be {LR!r} or {RL!r}")
        if self.axiom_index < 0:
            raise ValueError("axiom index must be non-negative")
        object.__setattr__(self, "position", tuple(self.position))
        object.__setattr__(self, "subst", tuple(self.subst))

    def __reduce__(self):
        return RewriteStep, (self.axiom_index, self.direction, self.position, self.subst)


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

    # Slotted by hand, as RewriteStep is, and for the same reasons.
    __slots__ = ("start", "steps", "end")

    start: TermInContext
    steps: tuple
    end: TermInContext

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __reduce__(self):
        return Derivation, (self.start, self.steps, self.end)


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
    src, dst = _oriented(eq, step.direction)
    if (step.axiom_index, step.direction) not in _relation(th).kept:
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


def _tuple(items: list) -> str:
    """Python source of a tuple display of the given expressions."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


class _Globals:
    """The globals of one generated function.

    names is the dict the function runs in.  Calling the object names a
    symbol, a ground subterm or an expansion side by a prefix and a number,
    once per object, so no symbol name or other input text is ever part of
    the source, and a symbol that several sides share is one global.
    """

    def __init__(self, **fixed):
        self.names = {"App": App, "Make": _make, "NoRef": _NO_REF, **fixed}
        self._ids: dict = {}

    def __call__(self, obj, prefix: str) -> str:
        g = self._ids.get(obj)
        if g is None:
            g = self._ids[obj] = f"{prefix}{len(self._ids)}"
            self.names[g] = obj
        return g


def _side_lines(src: Term, k: int, dst: Term, glob: _Globals, skip: str = "") -> tuple[list, str]:
    """The straight-line block of one expansion side in the expansion
    function's loop over walk indices: its lines, and the expression of its
    result.

    The lines match src, in a context of length k, against the subterm in
    the local t0, continue when it does not match, set cap_hit and continue
    when the step would grow the term by more than the local room, and
    otherwise leave dst under the bindings in the result's expression.  They
    are a class and symbol identity check and a tuple unpacking per symbol
    node of src, an identity check for a ground subterm or a repeated
    variable (terms are hash-consed), the size change as one sum of the
    bindings' sizes, and one node per symbol node of dst, innermost first,
    so no expression nests however deep the side.  src's root check is left
    out, since the loop runs only where src's root symbol heads t0.  A node
    is one table lookup: its args tuple is looked up in its symbol's table
    of nodes, and terms._make is called only on a miss or a dead weak ref,
    so the lookup is made once and _make stays the one place a node is
    made.  The size check is left out when the step cannot grow the term,
    since only terms within the cap are expanded, so room is never
    negative.  A skip condition, when given, is tested once src has
    matched, before the size check: the block continues when it holds.  Symbols, their tables of nodes and ground subterms enter only as
    glob's globals, S<n>, A<n> and K<n>, and locals are numbered, so no
    symbol name or other input text is ever part of the source.
    """
    pad = " " * 8
    lines: list = []
    builds: list = []  # run after the size check
    fresh = count(1)
    at = [None] * k  # the local holding variable i's binding, at [i-1]
    grow = [0] * k  # occurrences of variable i in dst minus those in src

    def match(p: Term, here: str) -> None:
        if p.__class__ is Var:
            i = p.index - 1
            grow[i] -= 1
            if at[i] is None:
                at[i] = here
            else:
                lines.append(f"{pad}if {here} is not {at[i]}: continue")
        elif not p.max_var:
            lines.append(f"{pad}if {here} is not {glob(p, 'K')}: continue")
        else:
            sym = glob(p.sym, "S")
            if p is not src:
                lines.append(f"{pad}if {here}.__class__ is not App or {here}.sym is not {sym}: continue")
            kids = [f"t{next(fresh)}" for _ in p.args]
            lines.append(f"{pad}{_tuple(kids)} = {here}.args")
            for q, kid in zip(p.args, kids):
                match(q, kid)

    def build(p: Term) -> str:
        if p.__class__ is Var:
            grow[p.index - 1] += 1
            return at[p.index - 1]
        if not p.max_var:
            return glob(p, "K")
        args = _tuple([build(q) for q in p.args])
        sym = glob(p.sym, "S")
        table = "A" + sym[1:]  # S3's table of nodes is A3
        glob.names[table] = p.sym._apps
        r = len(builds) // 2  # two lines per node
        builds.append(f"{pad}a{r} = {args}")
        builds.append(f"{pad}r{r} = {table}.get(a{r}, NoRef)() or Make({sym}, a{r})")
        return f"r{r}"

    match(src, "t0")
    if skip:
        lines.append(f"{pad}if {skip}: continue")
    result = build(dst)
    fixed = dst.size - src.size - sum(grow)  # symbol nodes gained
    if fixed > 0 or max(grow, default=0) > 0:
        terms = [str(fixed)] if fixed else []
        for i, c in enumerate(grow):
            if c:
                terms.append(f"{at[i]}.size" if c == 1 else f"{c} * {at[i]}.size")
        lines.append(f"{pad}if {' + '.join(terms)} > room: cap_hit = True; continue")
    return lines + builds, result


# The expansion function's walk: subs[w] is the w-th subterm of t in
# pre-order, ups[w] its parent's walk index and ats[w] its argument index.  A
# node's first argument follows it, and each next one follows the one before
# it, so every child's slot is known when its parent is reached, and one pass
# in walk order fills the lists with no stack.  {buckets} puts each node's
# walk index in the list of its head symbol, for the symbols some side is
# rooted at.
_WALK = """\
    term = t.term
    mask = reached.get(term, 0)
    size = term.size
    subs = [term] * size
    ups = [-1] * size
    ats = [0] * size
{lists}
    for w in range(size):
        sub = subs[w]
        if sub.__class__ is not App:
            continue
{buckets}
        args = sub.args
        c = w + 1
        if len(args) == 2:
            a, b = args
            subs[c] = a
            ups[c] = w
            c += a.size
            subs[c] = b
            ups[c] = w
            ats[c] = 1
        elif len(args) == 1:
            subs[c] = args[0]
            ups[c] = w
        else:
            for i, a in enumerate(args):
                subs[c] = a
                ups[c] = w
                ats[c] = i
                c += a.size
    n = t.context_len
    room = size_cap - size
    cap_hit = False"""

# After a side's block: its result is rebuilt upward along the parent links,
# one table lookup per ancestor with a terms._make call only on a miss or a
# dead weak ref, and recorded unless reached holds it.  {bit} is the
# result's back-move bit, set whether the result is new or a repeat: 1 << the
# inverse's bit index at w for a side with an inverse, and 0 for a side with
# none, so that a repeat keeps its bits and a new result gets none.
_RECORD = """\
        j, i = ups[w], ats[w]
        while j >= 0:
            p = subs[j]
            args = p.args
            if len(args) == 2:
                args = (result, args[1]) if i == 0 else (args[0], result)
            elif len(args) == 1:
                args = (result,)
            else:
                args = args[:i] + (result,) + args[i + 1 :]
            sym = p.sym
            result = sym._apps.get(args, NoRef)() or Make(sym, args)
            j, i = ups[j], ats[j]
        bit = {bit}
        seen = reached.get(result)
        if seen is not None:
            reached[result] = seen | bit
            continue
        reached[result] = bit
        nt = TermInContext(result, n)
        entries[nt] = (distance, t, {side}, w)
        new.append(nt)"""


def _bit(k: int, count: int) -> str:
    """The expression of the back-move bit of side k at walk index w, among
    count sides: w * count + k."""
    if count == 1:
        return "w"
    return f"w * {count}" + (f" + {k}" if k else "")


def _orbit(src: TermInContext, dst: TermInContext):
    """The renaming orbit key of the orientation src -> dst: the pair with
    variables renumbered in first-occurrence order; None when the
    orientation is not kept, src not binding the whole context.  A kept
    source mentions every variable of the target, so the pair reads its
    variables in the source's first-occurrence order."""
    if len(canonical(src.term)[1]) != src.context_len:
        return None
    return canonical(App(_PAIR, (src.term, dst.term)))[0]


def _expand_code(sides: list) -> tuple[str, dict]:
    """The source of the expansion function over sides, a theory's
    expansion sides as _relation lists them, and the globals it names.

    expand(size_cap, t, reached, entries, distance, new) is the successor
    kernel: it records t's one-step rewrites that reached lacks, and says
    whether a result over size_cap occurred; such a result is never built.
    t must lie within size_cap.  After the walk come the sides' blocks, in
    tie-break order: each side's lines from _side_lines, run at each walk
    index its root symbol heads (everywhere when its root is a variable),
    then the result's upward rebuild.  Terms are hash-consed, so the rebuilt
    bare term is the result's identity: one already in reached is skipped
    before its TermInContext is built.  Each other result goes into
    reached, into entries as (distance, t, side, w), and onto new, in
    tie-break order.  side, the same tuple the relation's sides list, and
    w, the walk index of the subterm it matched, record its first
    witnessing step, which Closure.step builds when a derivation is read.

    reached maps each bare term to its back-move bits, as in frontier
    search (Korf, Zhang, Thayer & Hohwald, "Frontier search", JACM 2005):
    bit w * K + j, over the K sides, set means side j at walk index w leads
    back into reached.  A result u -> v of side k at w sets bit w * K +
    inv(k) of v, new or not, where inv(k) is k's inverse side (its last
    slot), since that move gives back u.  expand reads t's bits first and
    skips a side at a walk index whose bit is set, once its source has
    matched and before anything is built: the result is one reached already
    holds, and lies within the cap.  Last it sets t's value to -1, all bits,
    so no more pile up on it.  A t missing from reached has no bits.
    """
    glob = _Globals(TermInContext=TermInContext)
    roots = dict.fromkeys(side[2] for side in sides if side[2] is not None)
    heads = {sym: f"h{i}" for i, sym in enumerate(roots)}  # the local listing sym's walk indices
    buckets = ["        head = sub.sym"] if heads else []
    for i, (sym, h) in enumerate(heads.items()):
        buckets.append(f"        {'elif' if i else 'if'} head is {glob(sym, 'S')}:")
        buckets.append(f"            {h}.append(w)")
    lists = "\n".join(f"    {h} = []" for h in heads.values())
    lines = [
        "def expand(size_cap, t, reached, entries, distance, new):",
        _WALK.format(lists=lists, buckets="\n".join(buckets)),
    ]
    for k, side in enumerate(sides):
        _, _, root, (src, dst), back = side
        # Only a side with an inverse is some side's inverse, so only its
        # bits are ever set.
        skip = "" if back is None else f"mask >> {_bit(k, len(sides))} & 1"
        body, result = _side_lines(src.term, src.context_len, dst.term, glob, skip)
        lines.append(f"    for w in {'range(size)' if root is None else heads[root]}:")
        lines.append("        t0 = subs[w]")
        lines += body
        lines.append(f"        result = {result}")
        bit = "0" if back is None else f"1 << {_bit(back, len(sides))}"
        lines.append(_RECORD.format(bit=bit, side=glob(side, "E")))
    lines.append("    reached[term] = -1")
    lines.append("    return cap_hit")
    return "\n".join(lines) + "\n", glob.names


@dataclass(frozen=True)
class _Relation:
    """A theory's one-step relation, as _relation builds it.

    kept holds the kept orientations as (axiom index, direction) pairs: an
    orientation is kept when its source mentions every context variable
    (_orbit is not None); one whose source does not is dropped, since no
    match of it binds the whole context.  apply_step tests a step against
    kept.  sides are the expansion sides in tie-break order, one kept
    orientation per renaming orbit: an orientation whose (source, target)
    pair, renumbered in first-occurrence order, equals an earlier one's
    rewrites every position to the result the earlier one already gave, so
    it is left out (comm R->L repeats comm L->R).  Each side is (axiom
    index, direction, the source's root symbol or None, the oriented
    (source, target) pair, the index of its inverse side or None).  The
    inverse is the side whose orbit is that of the flipped (target, source)
    pair; a side whose flipped orientation is not kept has none.  A step by
    a side at walk index w leaves w's walk index as it is, and the inverse
    at w gives back exactly the term the step started from.  one_way says
    some axiom has exactly one kept orientation; it covers every kept
    orientation, also those sides leaves out as renamings.
    """

    kept: frozenset
    sides: tuple
    one_way: bool

    @cached_property
    def expand(self) -> Callable:
        """The expansion function over sides, from _expand_code, compiled on
        first read: the successor kernel every term search grows by, and the
        only code generated, one code object per theory, compiled and run
        once.  Its file name carries the compile's serial number, as in
        <rewrite expand 3>, so a profile keeps each theory's function apart;
        no symbol name or other input text is part of it."""
        code, names = _expand_code(self.sides)
        exec(compile(code, f"<rewrite expand {next(_COMPILES)}>", "exec"), names)
        return names["expand"]


def _relation(th: Theory) -> _Relation:
    """th's one-step relation, built on first use in one pass over the
    orientations, each orbit key computed once, and kept on th the way
    Theory keeps its symbol table; a Theory is frozen, so it never goes
    stale, and a copy or a pickle of th leaves it behind.  Building it
    compiles no code: only the first search reads expand.
    """
    rel = getattr(th, "_relation", None)
    if rel is None:
        kept, orbits, sides, one_way = [], {}, [], False
        for ai, eq in enumerate(th.axioms):
            lr, rl = _orbit(eq.lhs, eq.rhs), _orbit(eq.rhs, eq.lhs)
            one_way = one_way or (lr is None) != (rl is None)
            for direction, key, flip in ((LR, lr, rl), (RL, rl, lr)):
                if key is None:
                    continue
                kept.append((ai, direction))
                if key not in orbits:
                    orbits[key] = len(sides)
                    src, dst = _oriented(eq, direction)
                    root = src.term.sym if isinstance(src.term, App) else None
                    sides.append((ai, direction, root, (src, dst), flip))
        # Each side's last slot held its flip's orbit key until every side
        # was listed; it now names the side of that orbit.
        sides = tuple(side[:4] + (orbits.get(side[4]),) for side in sides)
        rel = _Relation(frozenset(kept), sides, one_way)
        object.__setattr__(th, "_relation", rel)
    return rel


def _rebuild(parent: TermInContext, child: TermInContext, side: tuple, w: int) -> RewriteStep:
    """The step an entry records, rebuilt: side applied to parent's subterm
    at walk index w gives child.

    Descends parent and child together to w, checking at each level that
    they agree off the path: the siblings of the argument that holds w,
    compared by identity (terms are hash-consed).  There it reads one
    binding in one walk of side's source against parent's subterm and
    side's target against child's: symbol identity at each symbol node,
    identity at each repeated variable.  Any mismatch, a walk index past
    parent's last subterm included, is an internal error, never a step that
    does not join the two.
    """
    p, c = parent.term, child.term
    if w >= p.size:
        raise _not_a_record(parent, child)
    position = []
    j = 0  # p's walk index in parent
    # j <= w < j + p.size holds all the way down, so p is an App while j < w
    # and one of its arguments holds w.
    while j < w:
        if c.__class__ is not App or c.sym is not p.sym:
            break
        pa, ca = p.args, c.args
        j += 1
        i = 0
        while w >= j + pa[i].size:
            j += pa[i].size
            i += 1
        if any(pa[k] is not ca[k] for k in range(len(pa)) if k != i):
            break
        position.append(i)
        p, c = pa[i], ca[i]
    else:  # the descent reached w
        ai, direction, _, (src, dst), _ = side
        bound = [None] * src.context_len
        todo = [(dst.term, c), (src.term, p)]
        while todo:
            q, u = todo.pop()
            if q.__class__ is Var:
                if bound[q.index - 1] is None:
                    bound[q.index - 1] = u
                elif bound[q.index - 1] is not u:
                    break
            elif u.__class__ is not App or u.sym is not q.sym:
                break
            elif len(q.args) == 1:  # no zip: most symbols of compiled theories are unary
                todo.append((q.args[0], u.args[0]))
            else:
                todo += zip(q.args, u.args)
        else:
            n = parent.context_len
            return RewriteStep(ai, direction, position, [TermInContext(s, n) for s in bound])
    raise _not_a_record(parent, child)


def _not_a_record(parent: TermInContext, child: TermInContext) -> RuntimeError:
    """The internal error of a closure entry whose record gives no step from
    parent to child."""
    return RuntimeError(
        f"internal error: the closure entry {render_term(child.term)} does not "
        f"record a step from {render_term(parent.term)}"
    )


def successors(
    t: TermInContext, th: Theory, size_cap: int
) -> list[tuple[TermInContext, RewriteStep]]:
    """Distinct one-step rewrites of t within the size cap.

    Each result term appears once, paired with its first witnessing step in
    tie-break order; the list order is deterministic.  Nothing counts as
    reached beforehand, not even t: it has no back-move bits, and it is
    listed when a step returns to it.
    """
    if size_cap < term_size(t.term):
        raise ValueError("size cap is smaller than the term itself")
    cl = Closure(t, {}, [t])
    cl.grow(partial(_relation(th).expand, size_cap), 1)
    return [(nt, cl.step(nt)) for nt in cl.frontier]


@dataclass
class Closure:
    """The record of one breadth-first search from start, over terms or words.

    entries maps every reached node to (distance, parent, side, at): parent
    is the node it was first reached from, side the one-step relation's side
    that reached it and at where that side matched, a walk index in the
    term kernel and a letter offset in the string route.  The start's entry
    is (0, None, None, None).  No step is built while the search runs:
    step(t) builds the one an entry records, by rebuild(parent, t, side, at),
    when a derivation is read, and keeps it, so derivations that share a
    prefix share its step objects.  The term kernel's rebuild reads the
    side's (source, target) pair against parent and t and runs no generated
    code.  frontier holds the nodes of the last level reached, still to be
    expanded, and depth_reached counts the levels completed.
    expanded counts expanded nodes, cap_hit says the size cap pruned a
    result, and budget_hit says the node budget cut a level short (the
    frontier then stays the one that level was expanding).  reached maps
    every entry's bare identity, a word or a bare term, to a value.  In the
    term kernel the value is the term's back-move bits, so the kernel tests
    a result before it wraps it: bit w * K + k, over the relation's K sides,
    set means side k at walk index w leads back into reached, and the
    term's expansion skips that move; an expanded term's value is -1.  The
    string route keeps no bits: a word is its own entry key, so its
    expansion tests entries, and reached holds only the start.
    """

    start: TermInContext
    entries: dict
    frontier: list
    depth_reached: int = 0
    expanded: int = 0
    cap_hit: bool = False
    budget_hit: bool = False
    reached: dict = field(default_factory=dict)
    rebuild: Callable = field(default=_rebuild, repr=False, compare=False)
    steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def exhausted(self) -> bool:
        """The frontier emptied: nothing reached is left to expand."""
        return not self.frontier

    @property
    def complete(self) -> bool:
        """Nothing cut the search short: the frontier emptied and the size
        cap never pruned a result, so entries is the start's whole class."""
        return not self.frontier and not self.cap_hit

    def grow(self, expand, node_budget: int) -> list:
        """Expand the frontier by one level; returns the new nodes in order.

        expand(t, reached, entries, distance, new) is the one-step relation,
        recording t's results not reached yet (and, in the term kernel,
        setting their back-move bits in reached), and says whether the size
        cap pruned one.  When expanded reaches node_budget, sets budget_hit
        and returns the nodes reached so far, keeping the frontier and
        depth_reached.
        """
        new: list = []
        distance = self.depth_reached + 1
        for t in self.frontier:
            if self.expanded >= node_budget:
                self.budget_hit = True
                return new
            self.expanded += 1
            if expand(t, self.reached, self.entries, distance, new):
                self.cap_hit = True
        self.frontier = new
        self.depth_reached = distance
        return new

    @classmethod
    def of(cls, start, bare, rebuild=_rebuild) -> "Closure":
        """A search that has reached only start, whose bare identity is bare;
        rebuild turns an entry's record into its step, the term kernel's by
        default."""
        return cls(start, {start: (0, None, None, None)}, [start], reached={bare: 0}, rebuild=rebuild)

    def __contains__(self, t: TermInContext) -> bool:
        return t in self.entries

    def distance(self, t: TermInContext) -> int:
        return self.entries[t][0]

    def parent(self, t):
        """The node t was first reached from; None for the start."""
        return self.entries[t][1]

    def step(self, t):
        """The step from t's parent to t, built from t's record on first
        read and kept; None for the start."""
        step = self.steps.get(t)
        if step is None:
            _, parent, side, at = self.entries[t]
            if parent is None:
                return None
            step = self.steps[t] = self.rebuild(parent, t, side, at)
        return step

    def path(self, t) -> list:
        """The steps on the parent links from start to t, in order."""
        steps = []
        parent = self.entries[t][1]
        while parent is not None:
            steps.append(self.step(t))
            t = parent
            parent = self.entries[t][1]
        steps.reverse()
        return steps

    def derivation_to(self, t: TermInContext) -> Derivation:
        return Derivation(self.start, tuple(self.path(t)), t)


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
    """A proof search's counters, declared in its document's key order."""

    expanded: int = 0
    visited_left: int = 0
    visited_right: int = 0
    depth_left: int = 0
    depth_right: int = 0
    cap_hit: bool = False
    budget_hit: bool = False

    def to_doc(self) -> dict:
        return asdict(self)


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


def _search(left: Closure, right: Closure, one_way: bool, depth: int, expand, node_budget: int):
    """The one meet loop: (meet, mu), the first meet of the shortest length
    mu, or (None, depth + 1) when none lies within depth.

    The records grow by expand in turns, the smaller frontier first, under
    one node budget.  Meets are looked for among a level's new nodes once it
    ends, so a meet is committed to only when no shorter one can exist.
    With one_way only left grows, and right's start is the only meet.
    """
    searches = (left,) if one_way else (left, right)
    meet, mu = (left.start, 0) if left.start == right.start else (None, depth + 1)
    while left.depth_reached + right.depth_reached < min(depth, mu):
        open_ = [s for s in searches if s.frontier]
        # Once a side's frontier empties, no new meet can appear: the other
        # side grows on only to certify, past a capped one.  No level starts
        # with a meet held: a shared start has mu = 0, so the loop never
        # starts, and a meet found in a level has mu = d_new + e, at most
        # the two records' depths after it, so the while test ends the loop.
        if not open_ or any(s.complete for s in searches):
            break
        grown = min(open_, key=lambda s: len(s.frontier))
        other = right if grown is left else left
        d_new = grown.depth_reached + 1
        for nt in grown.grow(expand, node_budget - other.expanded):
            entry = other.entries.get(nt)
            if entry is not None and d_new + entry[0] < mu:
                mu = d_new + entry[0]
                meet = nt
        if grown.budget_hit:
            break
    return meet, mu


def prove_bounded(
    th: Theory,
    goal: Equation,
    depth: int,
    *,
    slack: int = DEFAULT_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ProofOutcome:
    """Search for a derivation of goal.lhs = goal.rhs of at most depth steps.

    Bidirectional breadth-first search by _search, so a found derivation has
    minimal length among those within bounds.  On a theory with a one-way
    axiom only forward steps from lhs count, so only the left side grows:
    depth counts its levels.  The size cap is max(size(lhs), size(rhs)) + slack;
    a negative slack is a ValueError.
    """
    if slack < 0:
        raise ValueError("slack must not be negative")
    lhs, rhs = goal.lhs, goal.rhs
    cap = max(term_size(lhs.term), term_size(rhs.term)) + slack
    bounds_doc = {"depth": depth, "size_cap": cap, "node_budget": node_budget}
    rel = _relation(th)
    left, right = Closure.of(lhs, lhs.term), Closure.of(rhs, rhs.term)
    meet, mu = _search(left, right, rel.one_way, depth, partial(rel.expand, cap), node_budget)
    stats = SearchStats(
        left.expanded + right.expanded, len(left.entries), len(right.entries),
        left.depth_reached, right.depth_reached,
        left.cap_hit or right.cap_hit, left.budget_hit or right.budget_hit,
    )
    if meet is not None:
        # Every meet lies within depth: a level is expanded only while the
        # two levels sum to less than depth.
        back = [flip_step(s) for s in reversed(right.path(meet))]
        deriv = Derivation(lhs, tuple(left.path(meet) + back), rhs)
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
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Closure:
    """The closure record of start, grown level by level up to depth.

    size_cap defaults to start's size plus DEFAULT_SLACK; a cap below
    start's size is a ValueError.
    """
    cap = size_cap if size_cap is not None else term_size(start.term) + DEFAULT_SLACK
    if cap < term_size(start.term):
        raise ValueError("size cap is smaller than the term itself")
    expand = partial(_relation(th).expand, cap)
    cl = Closure.of(start, start.term)
    while cl.frontier and cl.depth_reached < depth and not cl.budget_hit:
        cl.grow(expand, node_budget)
    return cl


def replay(d: Derivation, th: Theory) -> bool:
    """Check a derivation by re-applying every step from the start term."""
    try:
        intermediates(d, th)
    except ValueError:
        return False
    return True


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


def symbol_census(d: Derivation, th: Theory, name: str) -> list[int]:
    """Occurrence count of the symbol named name along the derivation."""
    sym = th.symbol(name)
    return [count_symbol(t.term, sym) for t in intermediates(d, th)]


# ---- JSON export ----

def derivation_to_doc(d: Derivation) -> dict:
    return _derivation_doc(d, render_term, lambda s: _step_doc(s, render_term))


def _derivation_doc(d: Derivation, render: Callable, step: Callable) -> dict:
    """derivation_to_doc with render writing each term and step writing each
    step's entry: a caller that renders many derivations passes a memoising
    renderer, and may write a step as a reference into a table of its own."""
    return {
        "context_len": d.start.context_len,
        "start": render(d.start.term),
        "end": render(d.end.term),
        "steps": [step(s) for s in d.steps],
    }


def _step_doc(s: RewriteStep, render: Callable) -> dict:
    return {
        "axiom": s.axiom_index,
        "direction": s.direction,
        "position": list(s.position),
        "subst": [render(u.term) for u in s.subst],
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
