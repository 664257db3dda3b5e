"""Interpretations of one theory in another.

An interpretation assigns to every source symbol of arity k a target term in
context k; it extends homomorphically to all source terms (variables are kept
fixed).  check_preserves_axioms searches for target proofs of the axiom
images, and probe_conservativity hunts for source equations that become
provable in the target without being provable at the source - bounded
evidence against conservativity.

The module also owns the ``.itp`` file format::

    source seed.thy
    target compiled.thy
    map l = m(a(b(alpha(x1))),x2)
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice, permutations
from pathlib import Path
from typing import Mapping, Optional, Union

from .rewrite import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_SLACK,
    Derivation,
    ProofOutcome,
    bounded_closure,
    derivation_to_doc,
    prove_bounded,
)
from .rigidity import _shapes
from .terms import (
    App,
    Term,
    TermInContext,
    Var,
    _graft,
    is_linear_regular,
    parse_term,
    render_term,
    term_size,
)
from .theory import Equation, Theory, _check_signature_terms, load_theory
from .terms import ParseError

__all__ = [
    "ConservativityReport",
    "Interpretation",
    "ProbeFinding",
    "check_preserves_axioms",
    "compose_interpretations",
    "extend",
    "identity_interpretation",
    "interpretations_equal",
    "load_interpretation",
    "parse_interpretation",
    "probe_conservativity",
    "render_interpretation",
]


@dataclass(frozen=True)
class Interpretation:
    """A per-symbol assignment of target terms, one per source symbol.

    assignment is an ordered tuple of (source symbol name, image); build one
    from a dict with Interpretation.of.  When linear_regular is set, every
    image must itself be linear-regular.
    """

    source: Theory
    target: Theory
    assignment: tuple
    linear_regular: bool = False

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
        by_name = dict(self.assignment)
        if len(by_name) != len(self.assignment):
            raise ValueError("duplicate symbol in assignment")
        target_symbols = self.target.symbols_by_name()
        for sym in self.source.signature:
            image = by_name.get(sym.name)
            if image is None:
                raise ValueError(f"no image for source symbol {sym.name!r}")
            if image.context_len != sym.arity:
                raise ValueError(
                    f"image of {sym.name!r} lives in context {image.context_len}, "
                    f"arity is {sym.arity}"
                )
            _check_signature_terms(image.term, target_symbols)
            if self.linear_regular and not is_linear_regular(image):
                raise ValueError(f"image of {sym.name!r} is not linear-regular")
        if len(self.assignment) != len(self.source.signature):
            raise ValueError("assignment names symbols outside the source signature")
        object.__setattr__(self, "_by_name", by_name)

    @staticmethod
    def of(
        source: Theory,
        target: Theory,
        mapping: Mapping[str, TermInContext],
        linear_regular: bool = False,
    ) -> "Interpretation":
        assignment = tuple((sym.name, mapping[sym.name]) for sym in source.signature if sym.name in mapping)
        missing = [sym.name for sym in source.signature if sym.name not in mapping]
        if missing:
            raise ValueError(f"no image for source symbols: {', '.join(missing)}")
        extra = [name for name in mapping if not source.has_symbol(name)]
        if extra:
            raise ValueError(f"assignment names unknown symbols: {', '.join(extra)}")
        return Interpretation(source, target, assignment, linear_regular)

    def image_of(self, name: str) -> TermInContext:
        return self._by_name[name]


def extend(i: Interpretation, t: TermInContext) -> TermInContext:
    """Homomorphic extension: variables fixed, applications mapped through the
    assignment by grafting the extended arguments into the symbol's image.

    Interpretation already checked that each image lives in its symbol's
    arity, so no node re-checks contexts.
    """

    def go(term: Term) -> Term:
        if isinstance(term, Var):
            return term
        return _graft(i.image_of(term.sym.name).term, [go(a) for a in term.args])

    return TermInContext(go(t.term), t.context_len)


def identity_interpretation(th: Theory) -> Interpretation:
    mapping = {
        sym.name: TermInContext(
            App(sym, tuple(Var(i) for i in range(1, sym.arity + 1))), sym.arity
        )
        for sym in th.signature
    }
    return Interpretation.of(th, th, mapping)


def compose_interpretations(outer: Interpretation, inner: Interpretation) -> Interpretation:
    """The interpretation sending f to outer's extension of inner(f)."""
    if inner.target != outer.source:
        raise ValueError("inner target and outer source theories differ")
    mapping = {name: extend(outer, image) for name, image in inner.assignment}
    return Interpretation.of(inner.source, outer.target, mapping)


def check_preserves_axioms(
    i: Interpretation,
    *,
    depth: int,
    size_cap: Optional[int] = None,
    slack: int = DEFAULT_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[tuple[int, ProofOutcome]]:
    """Bounded target proofs of every source axiom's image, by axiom index."""
    out = []
    for idx, eq in enumerate(i.source.axioms):
        goal = Equation(extend(i, eq.lhs), extend(i, eq.rhs))
        out.append(
            (idx, prove_bounded(i.target, goal, depth, size_cap=size_cap, slack=slack, node_budget=node_budget))
        )
    return out


def interpretations_equal(
    a: Interpretation,
    b: Interpretation,
    *,
    depth: int,
    size_cap: Optional[int] = None,
    slack: int = DEFAULT_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[tuple[str, ProofOutcome]]:
    """Per-symbol bounded proofs that two interpretations agree in the target."""
    if a.source != b.source or a.target != b.target:
        raise ValueError("interpretations do not share source and target")
    out = []
    for sym in a.source.signature:
        goal = Equation(a.image_of(sym.name), b.image_of(sym.name))
        out.append(
            (sym.name, prove_bounded(a.target, goal, depth, size_cap=size_cap, slack=slack, node_budget=node_budget))
        )
    return out


@dataclass
class ProbeFinding:
    """A source equation whose image became provable in the target."""

    lhs: TermInContext
    rhs: TermInContext
    target_derivation: Derivation
    confirmed: bool  # the source closure was complete

    def to_doc(self) -> dict:
        return {
            "lhs": render_term(self.lhs.term),
            "rhs": render_term(self.rhs.term),
            "context_len": self.lhs.context_len,
            "confirmed": self.confirmed,
            "target_derivation": derivation_to_doc(self.target_derivation),
        }


@dataclass
class ConservativityReport:
    """Findings of a bounded conservativity probe.

    confirmed entries are pairs where the target proved the image while the
    source closure was complete; candidates are pairs where some bound cut
    the source closure short.  targets_complete is True when every target
    closure was complete (no depth bound, size cap or node budget cut it
    short), so that a clean probe missed no target proof within the pool of
    pairs.
    """

    confirmed: list
    candidates: list
    pairs_checked: int
    target_proved: int
    targets_complete: bool
    bounds: dict

    @property
    def clean(self) -> bool:
        return not self.confirmed and not self.candidates

    def to_doc(self) -> dict:
        return {
            "confirmed": [f.to_doc() for f in self.confirmed],
            "candidates": [f.to_doc() for f in self.candidates],
            "pairs_checked": self.pairs_checked,
            "target_proved": self.target_proved,
            "targets_complete": self.targets_complete,
            "bounds": self.bounds,
        }


def _graft_shared(term: Term, args: list, grafted: dict) -> Term:
    """_graft(term, args), reading and filling grafted, a map from the nodes
    of earlier calls with the same args to their grafts."""
    if term.__class__ is Var:
        return args[term.index - 1]
    out = grafted.get(term)
    if out is None:
        out = grafted[term] = App(term.sym, [_graft_shared(a, args, grafted) for a in term.args])
    return out


def probe_conservativity(
    i: Interpretation,
    *,
    term_size_bound: int,
    depth: int,
    max_context: Optional[int] = None,
    slack: int = DEFAULT_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ConservativityReport:
    """Probe all small linear-regular source equations for conservativity.

    Pairs (s, t) range over canonical s and arbitrary renamings t of canonical
    terms in the same context; that covers every equation between
    linear-regular terms up to a joint renaming, under which both provability
    sides are stable.  Shared closures make the quadratic pair count cheap:
    one target closure of extend(i, s) and one source closure of s decide all
    pairs with that left side.  The pairs are not tested one by one: each
    target-closure entry is looked up among the pool's images, and the hits
    are taken in pool order; pairs_checked is counted, not looped.
    """
    if max_context is None:
        max_context = term_size_bound
    bounds_doc = {
        "term_size_bound": term_size_bound,
        "max_context": max_context,
        "depth": depth,
        "slack": slack,
        "node_budget": node_budget,
    }
    # Canonical terms of all sizes in key order: a canonical pair is probed
    # from the side that comes first.  Sorted stably by size, they come in
    # enumerate_linear_regular's order.
    shapes = _shapes(i.source, term_size_bound, 1, max_context, {})
    rank = {t: k for k, t in enumerate(shapes)}
    by_context: dict[int, list[TermInContext]] = {}
    for t in sorted(shapes, key=lambda u: u.size):
        by_context.setdefault(t.max_var, []).append(TermInContext(t, t.max_var))

    confirmed: list[ProbeFinding] = []
    candidates: list[ProbeFinding] = []
    pairs_checked = 0
    target_proved = 0
    targets_complete = True

    for n, canonical in sorted(by_context.items()):
        # Every renaming but the identity, which comes first and keeps t
        # itself.  The canonical terms share subterms, so each renaming
        # grafts a shared node once.
        renamings = [
            ([Var(v) for v in images], {})
            for images in islice(permutations(range(1, n + 1)), 1, None)
        ]
        pool: list[tuple[TermInContext, bool]] = []
        for t in canonical:
            pool.append((t, True))
            for args, grafted in renamings:
                pool.append((TermInContext(_graft_shared(t.term, args, grafted), n), False))
        if len(pool) < 2:
            continue
        images = {t: extend(i, t) for t, _ in pool}
        src_cap = max(term_size(t.term) for t, _ in pool) + slack
        tgt_cap = max(term_size(img.term) for img in images.values()) + slack
        pool_at: dict[TermInContext, list[int]] = {}
        for k, (t, _) in enumerate(pool):
            pool_at.setdefault(images[t], []).append(k)
        ranks = {t: rank[t.term] for t in canonical}
        sorted_ranks = sorted(ranks.values())
        for s in canonical:
            cl_target = bounded_closure(
                i.target, images[s], depth, size_cap=tgt_cap, node_budget=node_budget
            )
            targets_complete = targets_complete and cl_target.complete
            cl_source = bounded_closure(
                i.source, s, depth, size_cap=src_cap, node_budget=node_budget
            )
            source_certified = cl_source.complete
            # Every pool term but s itself, less the canonical terms ranked
            # below s: canonical-canonical pairs are unordered; probe once.
            pairs_checked += len(pool) - 1 - bisect_left(sorted_ranks, ranks[s])
            hits = sorted(k for u in cl_target.entries for k in pool_at.get(u, ()))
            for k in hits:
                t, t_canonical = pool[k]
                if t == s or (t_canonical and ranks[t] < ranks[s]):
                    continue
                target_proved += 1
                if t in cl_source:
                    continue
                finding = ProbeFinding(s, t, cl_target.derivation_to(images[t]), source_certified)
                (confirmed if source_certified else candidates).append(finding)

    return ConservativityReport(
        confirmed, candidates, pairs_checked, target_proved, targets_complete, bounds_doc
    )


# ---- .itp files ----

def parse_interpretation(
    text: str,
    *,
    source: Optional[Theory] = None,
    target: Optional[Theory] = None,
    base_dir: Union[str, Path, None] = None,
) -> Interpretation:
    """Parse the .itp format.

    source/target lines name .thy files resolved against base_dir; passing
    explicit theories overrides (and permits omitting) those lines.
    """
    base = Path(base_dir) if base_dir is not None else Path(".")
    mapping: dict[str, str] = {}
    map_lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "source":
            if source is None:
                source = load_theory(base / rest)
        elif head == "target":
            if target is None:
                target = load_theory(base / rest)
        elif head == "map":
            name, eq, body = rest.partition("=")
            if not eq:
                raise ParseError("expected: map <symbol> = <term>", line_no, 1)
            mapping[name.strip()] = body.strip()
            map_lines[name.strip()] = line_no
        else:
            raise ParseError(f"unknown directive {head!r}", line_no, 1)
    if source is None or target is None:
        raise ParseError("interpretation needs both a source and a target theory")
    symbols = target.symbols_by_name()
    images = {}
    for name, body in mapping.items():
        if not source.has_symbol(name):
            raise ParseError(f"map names unknown source symbol {name!r}", map_lines[name], 1)
        term = parse_term(body, symbols, line=map_lines[name])
        try:
            images[name] = TermInContext(term, source.symbol(name).arity)
        except ValueError as e:
            raise ParseError(str(e), map_lines[name], 1) from None
    try:
        return Interpretation.of(source, target, images)
    except ValueError as e:
        raise ParseError(str(e)) from None


def render_interpretation(i: Interpretation, source_file: str, target_file: str) -> str:
    lines = [f"source {source_file}", f"target {target_file}"]
    for name, image in i.assignment:
        lines.append(f"map {name} = {render_term(image.term)}")
    return "\n".join(lines) + "\n"


def load_interpretation(path: Union[str, Path]) -> Interpretation:
    p = Path(path)
    return parse_interpretation(p.read_text(), base_dir=p.parent)
