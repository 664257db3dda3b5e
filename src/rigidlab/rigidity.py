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
through symmetry", FMSD 1996).  Symmetry also gives a witness before one
closure holds a renaming of its term: two entries u and v = rho(u) of the
term's size give t ->* v, and the path to u renamed by rho and reversed
gives v ->* rho(t).  With a one-way axiom a complete closure is only what
the term reaches, not what reaches it, so nothing is shared, and a path
cannot be reversed, so no such pair is sought.

A term that no side of the one-step relation matches anywhere is inert: it
is in normal form, its class is itself, and it is decided without a closure,
counted as its one-entry closure would count.  A term with fewer than two
variables has no renaming to find.  The search builds neither kind.  A
bottom-up matching automaton of the sides' sources gives each subterm a
state, the memoised recursion labels each node it keeps once, and the last
argument of a term of the top size is drawn only from the terms that make
the whole a candidate.  The skipped terms are counted by a recurrence over
(size, next variable, state).  No list of the top size is memoised; the
search holds one size's candidates at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .rewrite import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_SLACK,
    BOUNDS,
    Closure,
    Derivation,
    EXHAUSTED,
    FOUND,
    RewriteStep,
    _kernel,
    _oriented,
    bounded_closure,
    derivation_to_doc,
    flip_step,
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


def _shapes(
    th: Theory, budget: int, next_var: int, max_context: int, memo: dict, label=None
) -> list[Term]:
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
    them.  label, when given, is called on each list as it is memoised, after
    the lists its terms' arguments come from.
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
        top = [((), next_var, budget - 1)]
        out.extend(App(sym, args) for args, _, _ in _fill(th, top, k, 0, max_context, memo, label))
    if label is not None:
        label(out)
    return out


def _fill(th: Theory, partial: list, k: int, spare: int, max_context: int, memo: dict, label) -> list:
    """Each (arguments so far, next variable, nodes left) in partial, given
    all but the last `spare` of its k arguments from _shapes' lists, keeping
    one node for each argument still to come."""
    for rest in range(k - 1, spare - 1, -1):
        partial = [
            (args + (a,), max(v, a.max_var + 1), left - a.size)
            for args, v, left in partial
            for a in _shapes(th, left - rest, v, max_context, memo, label)
        ]
    return partial


class _Automaton:
    """The bottom-up matching automaton of a set of sources (Hoffmann &
    O'Donnell, "Pattern matching in trees", JACM 1982).

    A node's state is the set of source subterms it matches, every variable
    read as a wildcard, together with whether the node is inert: neither it
    nor any of its subterms matches a whole source.  Both follow from the
    node's symbol and its children's states, so a state costs one transition
    per node, memoised by (symbol, child states).  The terms with no redex of
    a left-linear system form a regular tree language (Comon et al., Tree
    Automata Techniques and Applications, 2007, ch. 1), and for linear
    sources the automaton is exact.  A source that repeats a variable is
    read with a wildcard for each occurrence, so a node the source does not
    match may be called a redex; that only sends an inert term to its
    closure.  A variable source matches every node, so then no node is
    inert.  States are small ints: inert[q] is state q's flag, and states
    maps each node labelled so far to its state.
    """

    def __init__(self, sources: list[Term]):
        self.everywhere = any(s.__class__ is Var for s in sources)
        wholes = [_wildcards(s) for s in sources if s.__class__ is App]
        self.wholes = frozenset(wholes)
        self.by_root: dict = {}  # symbol -> the wildcard subterms it roots
        seen = set()
        stack = list(wholes)
        while stack:
            p = stack.pop()
            if p.__class__ is App and p not in seen:
                seen.add(p)
                self.by_root.setdefault(p.sym, []).append(p)
                stack.extend(p.args)
        self.delta: dict = {}  # (symbol, child states) -> state
        self.ids: dict = {}  # (matched subterms, inert) -> state
        self.matched: list = []
        self.inert: list = []
        self.states: dict = {}
        self.var = self._state(frozenset(), not self.everywhere)

    def _state(self, matched: frozenset, inert: bool) -> int:
        q = self.ids.get((matched, inert))
        if q is None:
            q = self.ids[(matched, inert)] = len(self.inert)
            self.matched.append(matched)
            self.inert.append(inert)
        return q

    def step(self, sym, kids: tuple) -> int:
        """The state of a node headed by sym whose arguments have the states
        kids."""
        q = self.delta.get((sym, kids))
        if q is None:
            below = [self.matched[c] for c in kids]
            matched = frozenset(
                p
                for p in self.by_root.get(sym, ())
                if all(a.__class__ is Var or a in m for a, m in zip(p.args, below))
            )
            inert = (
                not self.everywhere
                and all(self.inert[c] for c in kids)
                and not matched & self.wholes
            )
            q = self.delta[(sym, kids)] = self._state(matched, inert)
        return q

    def label(self, nodes: list) -> None:
        """Give each node not yet labelled its state; its arguments must
        have theirs."""
        states = self.states
        for t in nodes:
            if t not in states:
                if t.__class__ is Var:
                    states[t] = self.var
                else:
                    states[t] = self.step(t.sym, tuple([states[a] for a in t.args]))


def _wildcards(p: Term) -> Term:
    """p with every variable replaced by x1, the wildcard."""
    if p.__class__ is Var:
        return Var(1)
    return App(p.sym, tuple(_wildcards(a) for a in p.args))


class _Enumeration:
    """The canonical linear-regular terms of one theory up to max_context, in
    canonical order, one size at a time.

    of_size streams the terms of one size.  A term's arguments before its
    last come from _shapes' lists, and its last argument from the list of
    exactly the nodes left (sized), which is built by the same generator and
    memoised, so no list of the top size is memoised.  With an automaton,
    candidates gives only the terms the flabby search visits: two or more
    variables, and not inert.  The lists of last arguments it reads hold
    only terms that give the whole term two variables, filtered once per
    (symbol, states of the arguments before, next variable, size) by the
    state they would give it.  The terms it skips are counted, never built,
    by count, the counting twin of _shapes: a recurrence over (size, next
    variable, automaton state).
    """

    def __init__(self, th: Theory, max_context: int, auto: Optional[_Automaton] = None):
        self.th = th
        self.max_context = max_context
        self.auto = auto
        self.label = auto.label if auto else None
        self.memo: dict = {}  # _shapes' lists
        self.lists: dict = {}  # (size, next_var, two) -> sized's list
        self.classified: dict = {}  # (size, next_var, two) -> classes of sized's list
        self.counts: dict = {}  # (size, next_var) -> {(state, next var after): terms}
        self.lasts: dict = {}  # _last's lists, by its key
        self.at: tuple = ()  # where candidates is, for skipped_before

    def sized(self, size: int, next_var: int, two: bool) -> list[Term]:
        """The terms of exactly `size` nodes whose variables read next_var,
        next_var+1, ..., in canonical order; if two, only those after which
        the next variable is 3 or more, so that with the arguments before
        them a term has two variables or more."""
        key = (size, next_var, two)
        out = self.lists.get(key)
        if out is None:
            out = self.lists[key] = list(self.of_size(size, next_var, two))
            if self.label:
                self.label(out)
        return out

    def classes(self, size: int, next_var: int, two: bool) -> list[tuple[int, int]]:
        """The class of each term of sized(size, next_var, two): its state
        and the next variable after it."""
        key = (size, next_var, two)
        out = self.classified.get(key)
        if out is None:
            states = self.auto.states
            out = self.classified[key] = [
                (states[a], max(next_var, a.max_var + 1)) for a in self.sized(*key)
            ]
        return out

    def count(self, size: int, next_var: int) -> dict:
        """The terms of sized(size, next_var, False) by class, (state, next
        variable after the term) -> how many, with none built."""
        key = (size, next_var)
        out = self.counts.get(key)
        if out is not None:
            return out
        out = self.counts[key] = {}
        auto = self.auto
        if size == 1 and next_var <= self.max_context:
            out[(auto.var, next_var + 1)] = 1
        for sym in self.th.signature:
            k = sym.arity
            if k >= size or (k == 0 and size > 1):
                continue
            # (states of the arguments so far, next variable, nodes left) -> terms
            partial = {((), next_var, size - 1): 1}
            for rest in range(k - 1, -1, -1):
                grown: dict = {}
                for (kids, v, left), n in partial.items():
                    for r in range(1, left - rest + 1) if rest else (left,):
                        for (q, w), m in self.count(r, v).items():
                            c = (kids + (q,), w, left - r)
                            grown[c] = grown.get(c, 0) + n * m
                partial = grown
            for (kids, v, _), n in partial.items():
                c = (auto.step(sym, kids), v)
                out[c] = out.get(c, 0) + n
        return out

    def skipped(self, max_size: int) -> tuple[int, int]:
        """How many terms up to max_size nodes have fewer than two
        variables, and how many others the automaton calls inert."""
        one_var = inert = 0
        for size in range(1, max_size + 1):
            for (q, w), n in self.count(size, 1).items():
                if w < 3:
                    one_var += n
                elif self.auto.inert[q]:
                    inert += n
        return one_var, inert

    def _last(self, sym, kids: tuple, next_var: int, size: int) -> tuple:
        """The last arguments, of exactly `size` nodes from next_var, that
        make sym(args..., a) a candidate when the arguments before it have
        the states kids: (the arguments in order; the kind of each class,
        0 to keep, 1 for fewer than two variables in all, 2 for inert; and
        how many terms of kinds 1 and 2 it skips)."""
        key = (sym, kids, next_var, size)
        got = self.lasts.get(key)
        if got is not None:
            return got
        auto = self.auto
        kinds = {}
        skipped = [0, 0, 0]
        for (q, w), n in self.count(size, next_var).items():
            kind = 1 if w < 3 else 2 if auto.inert[auto.step(sym, kids + (q,))] else 0
            kinds[q, w] = kind
            skipped[kind] += n
        terms = []
        if skipped[0]:
            keep = {c for c, kind in kinds.items() if not kind}
            pairs = zip(self.sized(size, next_var, True), self.classes(size, next_var, True))
            terms = [a for a, c in pairs if c in keep]
        got = self.lasts[key] = (terms, kinds, skipped[1], skipped[2])
        return got

    def _prefixes(self, size: int, next_var: int) -> Iterator[tuple]:
        """(symbol, arguments before the last, next variable, nodes left for
        the last) for the terms of exactly size > 1 nodes from next_var, in
        canonical order."""
        th = self.th
        for sym in th.signature:
            k = sym.arity
            if 0 < k < size:
                top = [((), next_var, size - 1)]
                for args, v, left in _fill(th, top, k, 1, self.max_context, self.memo, self.label):
                    yield sym, args, v, left

    def of_size(self, size: int, next_var: int, two: bool = False) -> Iterator[Term]:
        """The terms of sized(size, next_var, two) in order, as they are
        built."""
        if size == 1:
            for t in _shapes(self.th, 1, next_var, self.max_context, self.memo, self.label):
                if not two or max(next_var, t.max_var + 1) >= 3:
                    yield t
            return
        for sym, args, v, left in self._prefixes(size, next_var):
            for a in self.sized(left, v, two):
                yield App(sym, args + (a,))

    def candidates(self, max_size: int) -> Iterator[Term]:
        """The terms up to max_size nodes that the flabby search visits, in
        canonical order.

        Each size's candidates are built as one batch and kept until the
        next size: a closure's canonical successors of that size are later
        candidates, and with their nodes alive the expansion finds them in
        the hash-cons table rather than building each twice.  The batch is
        a list of runs of candidates that share their arguments before the
        last; while a run is read, at holds the terms with fewer than two
        variables and the inert ones skipped before it, and its _last key.
        """
        states = self.auto.states
        for size in range(2, max_size + 1):
            one_var, inert = self.skipped(size - 1)
            runs = []
            for sym, args, v, left in self._prefixes(size, 1):
                key = (sym, tuple([states[a] for a in args]), v, left)
                lasts, _, skip_one, skip_inert = self._last(*key)
                if lasts:
                    runs.append(((one_var, inert, key), [App(sym, args + (a,)) for a in lasts]))
                one_var += skip_one
                inert += skip_inert
            for self.at, run in runs:
                yield from run

    def skipped_before(self, term: Term) -> tuple[int, int]:
        """How many terms with fewer than two variables, and how many inert
        ones, come before term, the candidate yielded last: the counts kept
        up to its arguments before the last, plus those before its last
        argument in sized's whole list, which is built for this."""
        one_var, inert, key = self.at
        kinds = self.lasts[key][1]
        next_var, size = key[2:]
        at = self.sized(size, next_var, False).index(term.args[-1])
        before = [0, 0, 0]
        for c in self.classes(size, next_var, False)[:at]:
            before[kinds[c]] += 1
        return one_var + before[1], inert + before[2]


def _enumeration(th: Theory, max_context: int, skip_inert: bool) -> _Enumeration:
    """The enumeration search_flabby reads: its automaton is built from the
    sources of th's expansion sides, or from a variable source, which
    matches every node, when inert terms must run their closures too."""
    if skip_inert:
        sources = [_oriented(th.axioms[ai], direction)[0].term for ai, direction, _, _ in _kernel(th)[0]]
    else:
        sources = [Var(1)]
    return _Enumeration(th, max_context, _Automaton(sources))


def enumerate_linear_regular(
    th: Theory, max_size: int, max_context: int
) -> Iterator[TermInContext]:
    """All canonical linear-regular terms, smallest first.

    Canonical means the variables read 1, 2, ... in left-to-right order, so
    exactly one representative per orbit of context renamings is produced.
    Within one size the order is lexicographic on pre-order keys (variables
    first, then symbols in signature order), the order _shapes builds.
    """
    terms = _Enumeration(th, max_context)
    for size in range(1, max_size + 1):
        for term in terms.of_size(size, 1):
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
    "bounds" (no witness, but some closure was truncated).  A found
    report's derivation is breadth-first, hence minimal-length, only when
    the closure held a renaming of the term; one joined from two closure
    paths has at most twice the depth bound in steps.  With no witness
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
    Neither inert terms nor terms with fewer than two variables are built:
    they are counted, and a found document counts those before the witness.
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
    least image tuple is kept.  This direct witness comes with the
    breadth-first (hence minimal-length) derivation from the shared
    closure.  Failing one, on a theory with no one-way axiom, two entries
    u and v of t's size with one canonical form, so v = rho(u), give the
    witness t ->* v ->* rho(t), of at most 2 * depth steps: the first such
    v in the scan, with the first entry of its form as u (symmetry within
    one closure, after Emerson & Sistla, "Symmetry and model checking",
    FMSD 1996).  A complete class that holds such a pair also holds
    rho(t), so only a depth-bounded search can find a witness this way.
    The first witness in canonical order is returned.  On a theory with no
    one-way axiom, a term whose canonical form an earlier complete closure
    without a witness reached is cleared by that class instead, and
    counted in classes_shared.  No flabby term is ever cleared so: the term
    whose closure covered it would be flabby, and found first.  An inert term is
    cleared as its own class, with no closure run.  Only the candidates,
    terms with two or more variables that the automaton does not call
    inert, are built and visited; the others are counted, up to the witness
    when there is one.  With no witness the status is "exhausted" when no
    closure set caps_hit, budget_hit or depth_hit, and "bounds" otherwise.
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
    # Only a symmetric relation, with no one-way axiom, makes a complete
    # class decide its members.
    share = not _kernel(th)[1]
    cleared: dict = {}  # canonical term -> size of the class that cleared it
    # An inert term's closure would be one entry, complete, with no flag
    # set, when the closure expands it (depth and budget at least 1).
    terms = _enumeration(th, max_context, depth >= 1 and node_budget >= 1)
    for term in terms.candidates(max_size):
        res.closures_computed += 1
        class_size = cleared.pop(term, None)
        if class_size is not None:
            res.classes_shared += 1
            res.closure_terms_total += class_size
            continue
        t = TermInContext(term, term.max_var)
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
        # up.  On an incomplete closure of a symmetric relation, the first
        # two entries with one canonical form other than t's collide; a
        # complete one that held them would hold a renaming of t too.
        clear = share and cl.complete
        size = t.term.size
        top = max_size if clear else size
        best = collision = None
        first: dict = {}  # canonical form -> (first entry with it, image tuple)
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
            elif share and collision is None:
                seen = first.setdefault(c, (u, images))
                if seen[0] is not u:
                    collision = seen + (u, images)
        if best is not None:
            images, target = best
            res.report = FlabbyReport(t, Permutation(images), cl.derivation_to(target))
        elif collision is not None:
            res.report = _collision_report(cl, *collision)
        if res.report is not None:
            res.status = FOUND
            if not verify_report(res.report, th):
                raise RuntimeError("internal error: flabby report failed verification")
            _skipped(res, *terms.skipped_before(term))
            return res
    _skipped(res, *terms.skipped(max_size))
    res.status = BOUNDS if res.caps_hit or res.budget_hit or res.depth_hit else EXHAUSTED
    return res


def _collision_report(
    cl: Closure, u: TermInContext, u_images: tuple, v: TermInContext, v_images: tuple
) -> FlabbyReport:
    """The witness from two entries of t's closure with one canonical form,
    on a relation with no one-way axiom: t ->* v by the tree path, then
    v = rho(u) ->* rho(t) by the tree path to u renamed by rho and reversed.

    Both entries keep t's variables, so each image tuple lists all of them,
    and rho maps u_images[i] to v_images[i]; rho is no identity, since u is
    not v.
    """
    images = [0] * len(u_images)
    for a, b in zip(u_images, v_images):
        images[a - 1] = b
    rho = Permutation(images)
    back = [
        flip_step(
            RewriteStep(s.axiom_index, s.direction, s.position, [substitute_simple(x, rho) for x in s.subst])
        )
        for s in reversed(cl.path(u))
    ]
    t = cl.start
    return FlabbyReport(t, rho, Derivation(t, tuple(cl.path(v) + back), substitute_simple(t, rho)))


def _skipped(res: FlabbySearchResult, one_var: int, inert: int) -> None:
    """Count the terms the search skipped: one_var with fewer than two
    variables, and inert ones, each as its one-entry closure would count."""
    res.terms_enumerated = res.closures_computed + one_var + inert
    res.closures_computed += inert
    res.closure_terms_total += inert
    if inert:
        res.max_closure = max(res.max_closure, 1)
