"""Normalization of compiled-theory terms onto special terms.

Special terms are the images of seed-theory terms under the reduction's
interpretation: variables, and pairings whose first argument is a literal
goal-word chain over the marker.  The normalizer maps every term of a
compiled theory onto a special term by five clauses, applied in order:

    1. a variable is fixed;
    2. a unary symbol (generator or marker) is stripped;
    3. m(w(alpha(t1)), t2) becomes m(u(alpha(t1^)), t2^) when the chain w
       is provably equivalent to the first goal word u;
    4. likewise with the second goal word v, guarded by a certified
       refutation of u ~ v;
    5. otherwise m(t1, t2) becomes m(t1^, t2^).

Clauses 3 and 4 need answers to bounded-undecidable questions, so the
normalizer is parameterized by a word-equivalence oracle that may answer
yes, no, or unknown.  Unknown answers fall through to clause 5 and raise a
warning flag; every chain decision is logged with the oracle's certificates.

Which special terms are fixed depends on the instance.  Where the oracle
certifies that u and v are not equivalent, every special term is fixed, so
the normalizer is a retraction onto the interpreted seed terms.  On a
yes-instance clause 3 also catches every v-marked pair and re-spells it as
u: the image of a seed term s goes to the image of s with each r replaced
by l, and the fixed points are exactly the images of seed terms with no r.
It cannot fix both: the images of l(x1,x2) and r(x1,x2) are then provably
equal in the compiled theory, while l(x1,x2) and r(x1,x2) are not provably
equal in the rigid seed theory, so fixing both would carry a target proof to
no seed proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .reduction import (
    MARKER,
    PAIRING,
    Word,
    WordDerivation,
    WordProblemInstance,
    compile_reduction,
    reverse_word_derivation,
    seed_theory,
    word_bfs,
    word_to_term,
    word_to_text,
)
from .rewrite import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_SLACK,
    Derivation,
    EXHAUSTED,
    ProofOutcome,
    prove_bounded,
    replay,
)
from .terms import App, Symbol, Term, TermInContext, Var
from .theory import Equation

__all__ = [
    "HAT_FOUND",
    "HAT_NOT_FOUND",
    "HAT_UNCERTAIN",
    "HatCongruenceResult",
    "HatResult",
    "NO",
    "OracleAnswer",
    "OracleInconsistencyError",
    "SpecialTermTag",
    "UNKNOWN",
    "WordOracle",
    "YES",
    "check_hat_congruence",
    "hat",
    "is_special",
    "split_marked_chain",
]

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

HAT_FOUND = "found"
HAT_NOT_FOUND = "not_found"
HAT_UNCERTAIN = "uncertain"


class OracleInconsistencyError(RuntimeError):
    """The oracle certified a refutation of something it also proved."""


@dataclass(frozen=True)
class OracleAnswer:
    """yes with a word derivation, certified no, or unknown."""

    status: str
    derivation: Optional[WordDerivation] = None

    @property
    def is_yes(self) -> bool:
        return self.status == YES

    @property
    def is_no(self) -> bool:
        return self.status == NO

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN

    def to_doc(self) -> dict:
        return {
            "answer": self.status,
            "derivation": self.derivation.to_doc() if self.derivation else None,
        }


class WordOracle:
    """Memoized bounded word-equivalence oracle over one instance.

    Answers yes when the direct string search finds a derivation, no when it
    exhausts the reachable words with the length cap never binding, and
    unknown otherwise.  Answers are cached under both argument orders.
    """

    def __init__(
        self,
        inst: WordProblemInstance,
        *,
        depth: int,
        length_cap: Optional[int] = None,
        slack: int = DEFAULT_SLACK,
        node_budget: int = DEFAULT_NODE_BUDGET,
    ):
        self.inst = inst
        self.depth = depth
        self.length_cap = length_cap
        self.slack = slack
        self.node_budget = node_budget
        self.searches = 0
        self._memo: dict = {}

    def equiv(self, w1, w2) -> OracleAnswer:
        key = (tuple(w1), tuple(w2))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self.searches += 1
        out = word_bfs(
            self.inst,
            key[0],
            key[1],
            depth=self.depth,
            length_cap=self.length_cap,
            slack=self.slack,
            node_budget=self.node_budget,
        )
        if out.found:
            ans = OracleAnswer(YES, out.derivation)
        elif out.status == EXHAUSTED:
            ans = OracleAnswer(NO)
        else:
            ans = OracleAnswer(UNKNOWN)
        self._memo[key] = ans
        rkey = (key[1], key[0])
        if rkey not in self._memo:
            rev = reverse_word_derivation(ans.derivation) if ans.derivation else None
            self._memo[rkey] = OracleAnswer(ans.status, rev)
        return ans


def _split(term: Term, generators: frozenset) -> Optional[tuple]:
    """The maximal generator chain strictly above a literal marker, if any."""
    letters = []
    cur = term
    while isinstance(cur, App) and cur.sym.arity == 1 and cur.sym.name in generators:
        letters.append(cur.sym.name)
        cur = cur.args[0]
    if isinstance(cur, App) and cur.sym.arity == 1 and cur.sym.name == MARKER:
        return tuple(letters), cur.args[0]
    return None


def split_marked_chain(inst: WordProblemInstance, term: Term) -> Optional[tuple]:
    return _split(term, frozenset(inst.alphabet))


# The seed theory's l, r and m, looked up once for is_special.
_SEED_SYMBOLS = tuple(seed_theory().symbol(name) for name in ("l", "r", PAIRING))


@dataclass(frozen=True)
class SpecialTermTag:
    special: bool
    preimage: Optional[TermInContext]


def is_special(inst: WordProblemInstance, t: TermInContext) -> SpecialTermTag:
    """Check membership in the special-term grammar and return the seed
    preimage: variables; m over a literal u-chain-marker first argument
    (preimage l); likewise with v (preimage r); m over two special terms
    (preimage m).  The u clause wins when the goal words coincide."""
    u, v = inst.goal
    gens = frozenset(inst.alphabet)
    sym_l, sym_r, sym_m = _SEED_SYMBOLS

    def pre(term: Term) -> Optional[Term]:
        if isinstance(term, Var):
            return term
        if isinstance(term, App) and term.sym.name == PAIRING and term.sym.arity == 2:
            first, second = term.args
            split = _split(first, gens)
            if split is not None:
                w, below = split
                sym = sym_l if w == u else sym_r if w == v else None
                if sym is None:
                    return None
                pa, pb = pre(below), pre(second)
                if pa is None or pb is None:
                    return None
                return App(sym, (pa, pb))
            pa, pb = pre(first), pre(second)
            if pa is None or pb is None:
                return None
            return App(sym_m, (pa, pb))
        return None

    image = pre(t.term)
    if image is None:
        return SpecialTermTag(False, None)
    return SpecialTermTag(True, TermInContext(image, t.context_len))


@dataclass(frozen=True)
class HatResult:
    """The normal form, warning messages for undecided oracle calls, and a
    log of every chain decision with its oracle certificates."""

    term: TermInContext
    warnings: tuple
    decisions: tuple

    @property
    def clean(self) -> bool:
        return not self.warnings

    def to_doc(self) -> dict:
        from .terms import render_term

        return {
            "term": render_term(self.term.term),
            "context_len": self.term.context_len,
            "warnings": list(self.warnings),
            "decisions": [dict(d) for d in self.decisions],
        }


def hat(inst: WordProblemInstance, t: TermInContext, oracle) -> HatResult:
    """Normalize a compiled-theory term onto a special term.

    The oracle must provide equiv(w1, w2) -> OracleAnswer.  The result term
    always satisfies is_special; warnings are raised exactly when an unknown
    oracle answer forced the fall-through clause.

    When the oracle certifies that u and v are not equivalent, every special
    term is fixed.  On a yes-instance v-marked pairs are re-spelled as u, so
    the fixed points are exactly the images of seed terms with no r.
    """
    u, v = inst.goal
    gens = frozenset(inst.alphabet)
    marker = Symbol(MARKER, 1)
    warnings: list = []
    decisions: list = []

    def query_doc(w1: Word, w2: Word, ans: OracleAnswer) -> dict:
        return {"left": word_to_text(w1), "right": word_to_text(w2), **ans.to_doc()}

    def decide(w: Word) -> Optional[Word]:
        """The goal word the chain provably equals, or None for fall-through."""
        queries = []
        a = oracle.equiv(u, w)
        queries.append(query_doc(u, w, a))
        chosen = None
        if a.is_yes:
            chosen, clause = u, "u"
        else:
            b = oracle.equiv(v, w)
            queries.append(query_doc(v, w, b))
            if b.is_yes:
                c = oracle.equiv(u, v)
                queries.append(query_doc(u, v, c))
                if c.is_no:
                    chosen, clause = v, "v"
                elif c.is_yes:
                    if a.is_no:
                        raise OracleInconsistencyError(
                            f"oracle refutes u ~ {word_to_text(w)} but proves "
                            f"u ~ v and v ~ {word_to_text(w)}"
                        )
                    chosen, clause = u, "u"
                else:
                    clause = "pair"
                    warnings.append(
                        f"goal words match chain '{word_to_text(w)}' but their "
                        f"own equivalence is undecided"
                    )
            elif b.is_no and a.is_no:
                clause = "pair"
            else:
                clause = "pair"
                warnings.append(
                    f"chain '{word_to_text(w)}' undecided against the goal words"
                )
        decisions.append({"chain": word_to_text(w), "clause": clause, "queries": queries})
        return chosen

    def go(term: Term) -> Term:
        if isinstance(term, Var):
            return term
        if term.sym.arity == 1 and (term.sym.name == MARKER or term.sym.name in gens):
            return go(term.args[0])
        if term.sym.name == PAIRING and term.sym.arity == 2:
            first, second = term.args
            split = _split(first, gens)
            if split is not None:
                chosen = decide(split[0])
                if chosen is not None:
                    inner = App(marker, (go(split[1]),))
                    return App(term.sym, (word_to_term(inst, chosen, inner), go(second)))
            return App(term.sym, (go(first), go(second)))
        return App(term.sym, tuple(go(a) for a in term.args))

    result = TermInContext(go(t.term), t.context_len)
    return HatResult(result, tuple(warnings), tuple(decisions))


@dataclass
class HatCongruenceResult:
    """Endpoint normal forms and a bounded proof search between them."""

    status: str
    start_hat: HatResult
    end_hat: HatResult
    proof: ProofOutcome

    @property
    def congruent(self) -> bool:
        return self.status == HAT_FOUND

    def to_doc(self) -> dict:
        return {
            "status": self.status,
            "start_hat": self.start_hat.to_doc(),
            "end_hat": self.end_hat.to_doc(),
            "proof": self.proof.to_doc(),
        }


def check_hat_congruence(
    inst: WordProblemInstance,
    d: Derivation,
    *,
    oracle=None,
    depth: Optional[int] = None,
    size_cap: Optional[int] = None,
    slack: int = DEFAULT_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> HatCongruenceResult:
    """Check that normalization collapses a derivation's endpoints.

    Computes the hats of d.start and d.end and searches for a proof between
    them; the default depth is 2 * len(d.steps) + 4.  Undecided oracle
    answers during either normalization make the result uncertain.
    "not_found" is no certificate that the hats differ: the embedded proof
    outcome's status says whether that search was complete ("exhausted") or
    a bound cut it short ("bounds").
    """
    th = compile_reduction(inst)
    if not replay(d, th):
        raise ValueError("derivation does not replay in the compiled theory")
    if depth is None:
        depth = 2 * len(d.steps) + 4
    if oracle is None:
        oracle = WordOracle(inst, depth=depth, node_budget=node_budget)
    h1 = hat(inst, d.start, oracle)
    h2 = hat(inst, d.end, oracle)
    outcome = prove_bounded(
        th,
        Equation(h1.term, h2.term),
        depth,
        size_cap=size_cap,
        slack=slack,
        node_budget=node_budget,
    )
    if h1.warnings or h2.warnings:
        status = HAT_UNCERTAIN
    elif outcome.found:
        status = HAT_FOUND
    else:
        status = HAT_NOT_FOUND
    return HatCongruenceResult(status, h1, h2, outcome)
