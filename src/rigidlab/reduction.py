"""Word problems over monoid presentations, compiled into equational theories.

An instance is an alphabet, a list of defining relations, and one goal pair
of words.  Compilation produces a theory with a unary symbol per generator, a
unary marker symbol ``alpha``, and a binary ``m``: every relation u = v turns
into the unary-chain axiom u(x1) = v(x1), and the goal pair (u, v) turns into
the single variable-transposing axiom

    m(u(alpha(x1)), x2) = m(v(alpha(x2)), x1).

Words embed as unary chains (first letter outermost, the empty word as a bare
variable), and a word equation holds in the monoid presentation exactly when
the compiled theory proves the corresponding chain equation.  When the goal
is derivable, the term m(u(alpha(x1)), x2) is provably equal to itself with
its two variables swapped; flabby_witness builds that derivation from a word
derivation of the goal.

The module also owns the ``.wp`` file format::

    alphabet a b
    rel ab = ba
    goal ab = ba     # eps denotes the empty word
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Sequence, Union

from .interp import Interpretation
from .rewrite import (
    Closure,
    DEFAULT_NODE_BUDGET,
    DEFAULT_SLACK,
    Derivation,
    EXHAUSTED,
    FOUND,
    LR,
    RL,
    RewriteStep,
    _search,
    _verdict,
    apply_step,
    prove_bounded,
)
from .terms import (
    App,
    ParseError,
    Permutation,
    Symbol,
    Term,
    TermInContext,
    Var,
    is_variable_name,
    subterm_at,
)
from .theory import Equation, Theory, _directives
from .rigidity import FlabbyReport, verify_report

__all__ = [
    "MARKER",
    "PAIRING",
    "WordDerivation",
    "WordOutcome",
    "WordProblemInstance",
    "WordStep",
    "compile_reduction",
    "flabby_witness",
    "goal_axiom_index",
    "instance",
    "parse_wp",
    "reverse_word_derivation",
    "seed_interpretation",
    "seed_theory",
    "word_apply",
    "word_bfs",
    "word_equation",
    "word_from_text",
    "word_replay",
    "word_semidecide",
    "word_to_term",
    "word_to_text",
]

MARKER = "alpha"
PAIRING = "m"

Word = tuple


@dataclass(frozen=True)
class WordProblemInstance:
    """Alphabet, defining relations, and one goal pair, all over the alphabet."""

    alphabet: tuple
    relations: tuple
    goal: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "relations", tuple(tuple(map(tuple, r)) for r in self.relations))
        object.__setattr__(self, "goal", tuple(map(tuple, self.goal)))
        seen = set()
        for g in self.alphabet:
            if g in (MARKER, PAIRING):
                raise ValueError(f"generator name {g!r} is reserved")
            if is_variable_name(g):
                raise ValueError(f"generator name {g!r} is reserved for variables")
            Symbol(g, 1)  # validates the identifier shape
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
        if len(self.goal) != 2:
            raise ValueError("the goal is one pair of words")
        for u, v in list(self.relations) + [self.goal]:
            for w in (u, v):
                for letter in w:
                    if letter not in seen:
                        raise ValueError(f"letter {letter!r} is not in the alphabet")


def instance(
    alphabet: Sequence[str],
    relations: Sequence[tuple],
    goal: tuple,
) -> WordProblemInstance:
    """Convenience constructor accepting words as strings of one-letter names."""
    return WordProblemInstance(tuple(alphabet), tuple(relations), tuple(goal))


@dataclass(frozen=True)
class WordStep:
    """One relation applied at a letter offset, in either direction."""

    relation_index: int
    direction: str
    offset: int

    def __post_init__(self):
        if self.direction not in (LR, RL):
            raise ValueError(f"direction must be {LR!r} or {RL!r}")
        if self.relation_index < 0 or self.offset < 0:
            raise ValueError("relation index and offset must be non-negative")


@dataclass(frozen=True)
class WordDerivation:
    start: Word
    steps: tuple
    end: Word

    def __post_init__(self):
        object.__setattr__(self, "start", tuple(self.start))
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "end", tuple(self.end))

    def to_doc(self) -> dict:
        return {
            "start": list(self.start),
            "end": list(self.end),
            "steps": [
                {"relation": s.relation_index, "direction": s.direction, "offset": s.offset}
                for s in self.steps
            ],
        }


def word_apply(inst: WordProblemInstance, w: Word, step: WordStep) -> Word:
    if not 0 <= step.relation_index < len(inst.relations):
        raise ValueError(f"relation index {step.relation_index} out of range")
    u, v = inst.relations[step.relation_index]
    src, dst = (u, v) if step.direction == LR else (v, u)
    if w[step.offset : step.offset + len(src)] != src or step.offset > len(w):
        raise ValueError(f"relation {step.relation_index} does not match at offset {step.offset}")
    return w[: step.offset] + dst + w[step.offset + len(src) :]


def word_replay(inst: WordProblemInstance, d: WordDerivation) -> bool:
    try:
        cur = d.start
        for step in d.steps:
            cur = word_apply(inst, cur, step)
    except ValueError:
        return False
    return cur == d.end


def reverse_word_derivation(d: WordDerivation) -> WordDerivation:
    flipped = tuple(
        WordStep(s.relation_index, RL if s.direction == LR else LR, s.offset)
        for s in reversed(d.steps)
    )
    return WordDerivation(d.end, flipped, d.start)


def _word_sides(inst: WordProblemInstance) -> list:
    """The string route's sides, in tie-break order: (relation index,
    direction, source word, target word)."""
    return [
        (ri, direction, *((u, v) if direction == LR else (v, u)))
        for ri, (u, v) in enumerate(inst.relations)
        for direction in (LR, RL)
    ]


def _word_expand(sides: list, length_cap: int, w: Word, reached, entries, distance, new):
    """The string route's one-step relation, as Closure.grow takes it: records
    w's rewrites within the length cap that entries lacks, each as (distance,
    w, side, offset) for its first step in side, offset order, and says
    whether the cap pruned one.

    This is a plain breadth-first step: a word is its own entry key, so
    entries is the visited set, and reached is left as Closure.of made it.
    The term kernel's back-move bits would save building a result, but a
    word's result is two tuple slices, cheaper than the bit arithmetic."""
    cap_hit = False
    for side in sides:
        src, dst = side[2], side[3]
        for offset in range(len(w) - len(src) + 1):
            if w[offset : offset + len(src)] != src:
                continue
            nw = w[:offset] + dst + w[offset + len(src) :]
            if len(nw) > length_cap:
                cap_hit = True
                continue
            if nw in entries:
                continue
            entries[nw] = (distance, w, side, offset)
            new.append(nw)
    return cap_hit


def _word_step(parent: Word, child: Word, side: tuple, offset: int) -> WordStep:
    """The step a string-route entry records, as Closure.step reads it; a
    record that does not join parent to child is an internal error."""
    ri, direction, src, dst = side
    end = offset + len(src)
    if parent[offset:end] != src or parent[:offset] + dst + parent[end:] != child:
        raise RuntimeError(f"internal error: the word entry {word_to_text(child)} does not record a step")
    return WordStep(ri, direction, offset)


@dataclass
class WordOutcome:
    """found / exhausted / bounds, mirroring the term-level proof outcomes."""

    status: str
    derivation: Optional[WordDerivation]
    certified: bool
    reason: Optional[str]
    expanded: int
    bounds: dict

    @property
    def found(self) -> bool:
        return self.status == FOUND

    def to_doc(self) -> dict:
        return {
            "status": self.status,
            "certified": self.certified,
            "reason": self.reason,
            "expanded": self.expanded,
            "bounds": self.bounds,
            "derivation": self.derivation.to_doc() if self.derivation else None,
        }


def word_bfs(
    inst: WordProblemInstance,
    w1: Union[str, Word],
    w2: Union[str, Word],
    *,
    depth: int,
    slack: int = DEFAULT_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> WordOutcome:
    """Direct string-rewriting search, breadth-first from w1 only.

    It runs on the term route's engine, _search over Closure records, with a
    one-step relation of its own, so the two routes share the search but not
    the relation.  w2 is looked for at the end of each level, and a found
    search counts that whole level in expanded.  "exhausted" certifies.  A
    negative slack is a ValueError.
    """
    if slack < 0:
        raise ValueError("slack must not be negative")
    w1, w2 = tuple(w1), tuple(w2)
    cap = max(len(w1), len(w2)) + slack
    bounds_doc = {"depth": depth, "length_cap": cap, "node_budget": node_budget}
    left, right = Closure.of(w1, w1, _word_step), Closure.of(w2, w2, _word_step)
    meet, _ = _search(left, right, True, depth, partial(_word_expand, _word_sides(inst), cap), node_budget)
    if meet is not None:
        deriv = WordDerivation(w1, tuple(left.path(meet)), w2)
        return WordOutcome(FOUND, deriv, False, None, left.expanded, bounds_doc)
    status, reason = _verdict(left)
    return WordOutcome(status, None, status == EXHAUSTED, reason, left.expanded, bounds_doc)


# ---- compilation ----

def seed_theory() -> Theory:
    """The fixed source theory of the reduction: three binary symbols and one
    axiom identifying l applied to a pair with r applied to the swap."""
    l = Symbol("l", 2)
    r = Symbol("r", 2)
    m = Symbol(PAIRING, 2)
    axiom = Equation(
        TermInContext(App(l, (Var(1), Var(2))), 2),
        TermInContext(App(r, (Var(2), Var(1))), 2),
    )
    return Theory((l, r, m), (axiom,))


def word_to_term(w: Union[str, Word], below: Term) -> Term:
    """The unary chain for a word, wrapped around a given subterm.

    The first letter of the word is the outermost symbol; the empty word is
    the subterm itself.
    """
    t = below
    for letter in reversed(tuple(w)):
        t = App(Symbol(letter, 1), (t,))
    return t


def _marked_pair(w: Union[str, Word], first: int, second: int) -> Term:
    """The marked pairing m(w(alpha(x_first)), x_second)."""
    marked = App(Symbol(MARKER, 1), (Var(first),))
    return App(Symbol(PAIRING, 2), (word_to_term(w, marked), Var(second)))


def compile_reduction(inst: WordProblemInstance) -> Theory:
    """The compiled theory: generators and the marker as unary symbols, the
    pairing symbol, one chain axiom per relation, and the goal axiom."""
    signature = tuple(Symbol(g, 1) for g in inst.alphabet) + (Symbol(MARKER, 1), Symbol(PAIRING, 2))
    axioms = [word_equation(u, v) for u, v in inst.relations]
    u, v = inst.goal
    axioms.append(
        Equation(TermInContext(_marked_pair(u, 1, 2), 2), TermInContext(_marked_pair(v, 2, 1), 2))
    )
    return Theory(signature, tuple(axioms))


@lru_cache(maxsize=16)
def _compiled(inst: WordProblemInstance) -> Theory:
    """compile_reduction, memoised on the frozen instance for repeated queries."""
    return compile_reduction(inst)


def goal_axiom_index(inst: WordProblemInstance) -> int:
    return len(inst.relations)


def seed_interpretation(inst: WordProblemInstance) -> Interpretation:
    """The interpretation of the seed theory in the compiled theory.

    l and r map to the pairing of a goal-word chain (over the marked first
    argument) with the second argument; the pairing symbol maps to itself.
    Each image is linear-regular by construction.  It is conservative
    exactly when the goal is not derivable.
    """
    source = seed_theory()
    target = _compiled(inst)
    u, v = inst.goal
    mapping = {
        "l": TermInContext(_marked_pair(u, 1, 2), 2),
        "r": TermInContext(_marked_pair(v, 1, 2), 2),
        PAIRING: TermInContext(App(target.symbol(PAIRING), (Var(1), Var(2))), 2),
    }
    return Interpretation.of(source, target, mapping)


# ---- the word problem through the compiled theory ----

def word_equation(w1: Union[str, Word], w2: Union[str, Word]) -> Equation:
    """The chain equation w1(x1) = w2(x1) in context 1."""
    return Equation(
        TermInContext(word_to_term(w1, Var(1)), 1),
        TermInContext(word_to_term(w2, Var(1)), 1),
    )


def word_semidecide(
    inst: WordProblemInstance,
    w1: Union[str, Word],
    w2: Union[str, Word],
    *,
    depth: int,
    slack: int = DEFAULT_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> WordOutcome:
    """Decide a bounded word equation through the compiled theory.

    Words are encoded as unary chains and handed to the term-level search;
    the resulting derivation is decoded back into word steps (the chain
    depth of each rewrite position is the letter offset).
    """
    w1, w2 = tuple(w1), tuple(w2)
    cap = max(len(w1), len(w2)) + slack
    th = _compiled(inst)
    # A chain is one node longer than its word, so the proof's size cap is cap + 1.
    outcome = prove_bounded(th, word_equation(w1, w2), depth, slack=slack, node_budget=node_budget)
    bounds_doc = {"depth": depth, "length_cap": cap, "node_budget": node_budget}
    deriv = None
    if outcome.derivation is not None:
        steps = []
        for s in outcome.derivation.steps:
            if s.axiom_index >= len(inst.relations):
                raise RuntimeError("internal error: chain derivation used the goal axiom")
            steps.append(WordStep(s.axiom_index, s.direction, len(s.position)))
        deriv = WordDerivation(w1, tuple(steps), w2)
        if not word_replay(inst, deriv):
            raise RuntimeError("internal error: decoded word derivation failed replay")
    return WordOutcome(
        outcome.status, deriv, outcome.certified, outcome.reason, outcome.stats.expanded, bounds_doc
    )


# ---- the flabby witness of a derivable goal ----

def flabby_witness(inst: WordProblemInstance, word_derivation: WordDerivation) -> FlabbyReport:
    """Build the two-variable flabby term witness from a goal derivation.

    The term is the image of l: the pairing of the marked u-chain with x2.
    One goal-axiom step at the root, binding (x1, x2), swaps the variables
    and rewrites the chain to v; the reversed word derivation then rewrites
    v back to u, lifted into the chain above the marker, each step binding
    x1 to the subterm below its source's letters.  apply_step checks every
    step.  Total length: 1 + len(word_derivation.steps).
    """
    u, v = inst.goal
    if word_derivation.start != u or word_derivation.end != v:
        raise ValueError("word derivation does not prove the goal pair")
    if not word_replay(inst, word_derivation):
        raise ValueError("word derivation does not replay")
    interp = seed_interpretation(inst)
    th = interp.target
    term = interp.image_of("l")
    sigma = Permutation.transposition(2, 1, 2)

    swap = (TermInContext(Var(1), 2), TermInContext(Var(2), 2))
    steps = [RewriteStep(goal_axiom_index(inst), LR, (), swap)]
    cur = apply_step(term, th, steps[0])
    for ws in reverse_word_derivation(word_derivation).steps:
        src = inst.relations[ws.relation_index][0 if ws.direction == LR else 1]
        below = subterm_at(cur.term, (0,) * (ws.offset + 1 + len(src)))
        position = (0,) * (ws.offset + 1)
        steps.append(RewriteStep(ws.relation_index, ws.direction, position, (TermInContext(below, 2),)))
        cur = apply_step(cur, th, steps[-1])

    report = FlabbyReport(term, sigma, Derivation(term, tuple(steps), cur))
    if not verify_report(report, th):
        raise RuntimeError("internal error: flabby witness failed verification")
    return report


# ---- .wp files ----

def word_from_text(text: str, alphabet: Sequence[str]) -> Word:
    """A word written as a string of one-letter generator names; eps is empty."""
    if text == "eps":
        return ()
    if not text:
        raise ValueError("empty word: write the empty word as eps")
    letters = tuple(text)
    for letter in letters:
        if letter not in alphabet:
            raise ValueError(f"letter {letter!r} is not in the alphabet")
    return letters


def word_to_text(w: Word) -> str:
    return "".join(w) if w else "eps"


def parse_wp(text: str) -> WordProblemInstance:
    alphabet: Optional[tuple] = None
    relations: list[tuple] = []
    goal: Optional[tuple] = None
    for line_no, head, rest in _directives(text):
        if head == "alphabet":
            if alphabet is not None:
                raise ParseError("duplicate alphabet line", line_no, 1)
            alphabet_line = line_no
            names = tuple(rest.split())
            for g in names:
                if len(g) != 1:
                    raise ParseError(
                        f"generator {g!r}: word syntax needs one-letter names", line_no, 1
                    )
            alphabet = names
        elif head in ("rel", "goal"):
            if alphabet is None:
                raise ParseError("alphabet must come before relations and goal", line_no, 1)
            if rest.count("=") != 1:
                raise ParseError(f"expected: {head} <word> = <word>", line_no, 1)
            a, b = (part.strip() for part in rest.split("="))
            try:
                pair = (word_from_text(a, alphabet), word_from_text(b, alphabet))
            except ValueError as e:
                raise ParseError(str(e), line_no, 1) from None
            if head == "rel":
                relations.append(pair)
            else:
                if goal is not None:
                    raise ParseError("duplicate goal line", line_no, 1)
                goal = pair
        else:
            raise ParseError(f"unknown directive {head!r}", line_no, 1)
    if alphabet is None:
        raise ParseError("missing alphabet line")
    if goal is None:
        raise ParseError("missing goal line")
    try:
        return WordProblemInstance(alphabet, tuple(relations), goal)
    except ValueError as e:
        # Every word was checked against the alphabet above, so only an
        # alphabet fault reaches here.
        raise ParseError(str(e), alphabet_line, 1) from None

