"""Interpretations of one theory in another.

An interpretation assigns to every source symbol of arity k a target term in
context k; it extends homomorphically to all source terms (variables are kept
fixed).  check_preserves_axioms searches for target proofs of the axiom
images, and probe_conservativity hunts for source equations that become
provable in the target without being provable at the source - bounded
evidence against conservativity.

Terms are hash-consed, so the probe's pool shares its nodes, and two memos
over them do each node's work once (Filliatre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): _extend_shared extends a node once per
context's pool, mapping each source node to its image node, and a
ConservativityReport's document renders each distinct term once, in one
renderer that all its findings share.  extend is _extend_shared with a
fresh memo, so there is one extension path.  The findings' derivations
pass through the same few steps too, and the document writes each distinct
step once, in a table that the findings' derivations index into.

The module also owns the ``.itp`` file format::

    source seed.thy
    target compiled.thy
    map l = m(a(b(alpha(x1))),x2)
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import islice, permutations
from pathlib import Path
from typing import Mapping, Optional, Union

from .rewrite import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_SLACK,
    Derivation,
    ProofOutcome,
    _derivation_doc,
    _step_doc,
    bounded_closure,
    prove_bounded,
)
from .rigidity import _shapes
from .terms import (
    App,
    Term,
    TermInContext,
    Var,
    _graft,
    parse_term,
    render_term,
    term_size,
)
from .theory import Equation, Theory, _check_signature_terms, _directives, load_theory
from .terms import ParseError

__all__ = [
    "ConservativityReport",
    "Interpretation",
    "ProbeFinding",
    "check_preserves_axioms",
    "compose_interpretations",
    "extend",
    "load_interpretation",
    "parse_interpretation",
    "probe_conservativity",
    "render_interpretation",
]


@dataclass(frozen=True)
class Interpretation:
    """A per-symbol assignment of target terms, one per source symbol.

    assignment is an ordered tuple of (source symbol name, image); build one
    from a dict with Interpretation.of.
    """

    source: Theory
    target: Theory
    assignment: tuple

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
        if len(self.assignment) != len(self.source.signature):
            raise ValueError("assignment names symbols outside the source signature")
        object.__setattr__(self, "_by_name", by_name)

    @staticmethod
    def of(source: Theory, target: Theory, mapping: Mapping[str, TermInContext]) -> "Interpretation":
        assignment = tuple((sym.name, mapping[sym.name]) for sym in source.signature if sym.name in mapping)
        missing = [sym.name for sym in source.signature if sym.name not in mapping]
        if missing:
            raise ValueError(f"no image for source symbols: {', '.join(missing)}")
        extra = [name for name in mapping if not source.has_symbol(name)]
        if extra:
            raise ValueError(f"assignment names unknown symbols: {', '.join(extra)}")
        return Interpretation(source, target, assignment)

    def image_of(self, name: str) -> TermInContext:
        return self._by_name[name]


def extend(i: Interpretation, t: TermInContext) -> TermInContext:
    """Homomorphic extension: variables fixed, applications mapped through the
    assignment by grafting the extended arguments into the symbol's image.

    Interpretation already checked that each image lives in its symbol's
    arity, so no node re-checks contexts.
    """
    return TermInContext(_extend_shared(i, t.term, {}), t.context_len)


def _extend_shared(i: Interpretation, term: Term, extended: dict) -> Term:
    """The bare term of extend(i, term), reading and filling extended, a map
    from the source nodes of earlier calls under i to their images, so a
    node that several terms share is extended once."""
    if term.__class__ is Var:
        return term
    out = extended.get(term)
    if out is None:
        args = [_extend_shared(i, a, extended) for a in term.args]
        out = extended[term] = _graft(i.image_of(term.sym.name).term, args)
    return out


def compose_interpretations(outer: Interpretation, inner: Interpretation) -> Interpretation:
    """The interpretation sending f to outer's extension of inner(f)."""
    if inner.target != outer.source:
        raise ValueError("inner target and outer source theories differ")
    mapping = {name: extend(outer, image) for name, image in inner.assignment}
    return Interpretation.of(inner.source, outer.target, mapping)


def check_preserves_axioms(i: Interpretation, *, depth: int) -> list[tuple[int, ProofOutcome]]:
    """Bounded target proofs of every source axiom's image, by axiom index."""
    out = []
    for idx, eq in enumerate(i.source.axioms):
        goal = Equation(extend(i, eq.lhs), extend(i, eq.rhs))
        out.append((idx, prove_bounded(i.target, goal, depth)))
    return out


@dataclass(slots=True)
class ProbeFinding:
    """A source equation whose image became provable in the target."""

    lhs: TermInContext
    rhs: TermInContext
    target_derivation: Derivation
    confirmed: bool  # the source closure was complete


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
        """The report's document.  The findings' derivations pass through
        the same few terms and steps, so each distinct term is rendered once,
        for all findings, and each distinct step entry is written once, in
        the list "steps", in order of first use: confirmed findings first,
        then candidates, each derivation's steps in order.  A finding's
        target_derivation lists its steps as indices into "steps"; replacing
        each index by its entry gives the derivation's derivation_to_doc
        document.  An entry leaves the context of its substitution's terms
        to the derivation, so steps that differ only there share one."""
        render, index, table = cache(render_term), {}, []

        def step(s) -> int:
            key = (s.axiom_index, s.direction, s.position, *[render(u.term) for u in s.subst])
            i = index.get(key)
            if i is None:
                i = index[key] = len(table)
                table.append(_step_doc(s, render))
            return i

        def finding(f: ProbeFinding) -> dict:
            return {
                "lhs": render(f.lhs.term),
                "rhs": render(f.rhs.term),
                "context_len": f.lhs.context_len,
                "confirmed": f.confirmed,
                "target_derivation": _derivation_doc(f.target_derivation, render, step),
            }

        confirmed = [finding(f) for f in self.confirmed]
        candidates = [finding(f) for f in self.candidates]
        return {
            "confirmed": confirmed,
            "candidates": candidates,
            "steps": table,
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
    are taken in pool order; pairs_checked is counted, not looped.  A
    negative slack is a ValueError.

    Work is done per distinct node, not per pool term: the renamings graft
    each shared node of the canonical terms once (_graft_shared), the
    pool's images are built by _extend_shared with one memo per context's
    pool, so each source node is extended once, and the report's to_doc
    renders each distinct term and each distinct step once for all
    findings.
    """
    if slack < 0:
        raise ValueError("slack must not be negative")
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
        extended: dict = {}
        images = {t: TermInContext(_extend_shared(i, t.term, extended), n) for t, _ in pool}
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

def parse_interpretation(text: str, *, base_dir: Union[str, Path, None] = None) -> Interpretation:
    """Parse the .itp format.

    The source and target lines, both required, name the .thy files of the
    two theories, resolved against base_dir (default the working directory).
    """
    base = Path(base_dir) if base_dir is not None else Path(".")
    theories: dict[str, Theory] = {}
    mapping: dict[str, str] = {}
    map_lines: dict[str, int] = {}
    for line_no, head, rest in _directives(text):
        if head in ("source", "target"):
            if head in theories:
                raise ParseError(f"duplicate {head} line", line_no, 1)
            theories[head] = load_theory(base / rest)
        elif head == "map":
            name, eq, body = rest.partition("=")
            name = name.strip()
            if not eq:
                raise ParseError("expected: map <symbol> = <term>", line_no, 1)
            if name in mapping:
                raise ParseError(f"duplicate map line for {name!r}", line_no, 1)
            mapping[name] = body.strip()
            map_lines[name] = line_no
        else:
            raise ParseError(f"unknown directive {head!r}", line_no, 1)
    if len(theories) < 2:
        raise ParseError("interpretation needs both a source and a target theory")
    source, target = theories["source"], theories["target"]
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
    return parse_interpretation(p.read_text(encoding="utf-8"), base_dir=p.parent)
