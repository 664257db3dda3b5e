"""Independent reference implementations used to derive expected test values,
plus fuzzing helpers and small fixtures that only the tests use.

The oracle functions deliberately share no code with the package beyond the
term data types: matching, rewriting, closure, and shortest-path search are
reimplemented here with plain recursion and a unidirectional breadth-first
search, so that agreement with the engine is a real check.
"""

import random
from typing import Optional

from rigidlab.interp import Interpretation
from rigidlab.rewrite import Derivation, flip_step, successors
from rigidlab.terms import App, Term, TermInContext, Var
from rigidlab.theory import Theory


def naive_positions(term: Term):
    out = [((), term)]
    if isinstance(term, App):
        for i, a in enumerate(term.args):
            for p, s in naive_positions(a):
                out.append(((i,) + p, s))
    return out


def naive_match(pattern: Term, target: Term) -> Optional[dict]:
    binding: dict = {}

    def go(p: Term, t: Term) -> bool:
        if isinstance(p, Var):
            if p.index in binding:
                return binding[p.index] == t
            binding[p.index] = t
            return True
        if not isinstance(t, App) or t.sym != p.sym:
            return False
        return all(go(pa, ta) for pa, ta in zip(p.args, t.args))

    return binding if go(pattern, target) else None


def naive_instantiate(side: Term, binding: dict) -> Term:
    if isinstance(side, Var):
        return binding[side.index]
    return App(side.sym, tuple(naive_instantiate(a, binding) for a in side.args))


def naive_replace(term: Term, path: tuple, repl: Term) -> Term:
    if not path:
        return repl
    head, rest = path[0], path[1:]
    args = list(term.args)
    args[head] = naive_replace(args[head], rest, repl)
    return App(term.sym, tuple(args))


def naive_size(term: Term) -> int:
    if isinstance(term, Var):
        return 1
    return 1 + sum(naive_size(a) for a in term.args)


def naive_successors(t: TermInContext, th: Theory, size_cap) -> tuple[list, bool]:
    """One-step rewrites of t within size_cap, each with its first witness.

    Results come in tie-break order (axiom index, then L->R before R->L, then
    pre-order position), each paired with (axiom index, direction, position,
    substitution terms) of the first rewrite producing it.  The flag says
    whether some rewrite was dropped for exceeding size_cap.  A match is used
    only when it binds every variable of the axiom context, mirroring the
    engine's refusal to invent subterms for unbound variables.
    """
    witness: dict = {}
    cap_hit = False
    for ai, eq in enumerate(th.axioms):
        k = eq.context_len
        for direction, src, dst in (("LR", eq.lhs, eq.rhs), ("RL", eq.rhs, eq.lhs)):
            for path, sub in naive_positions(t.term):
                binding = naive_match(src.term, sub)
                if binding is None or set(binding) != set(range(1, k + 1)):
                    continue
                new = naive_replace(t.term, path, naive_instantiate(dst.term, binding))
                if naive_size(new) > size_cap:
                    cap_hit = True
                    continue
                result = TermInContext(new, t.context_len)
                if result not in witness:
                    witness[result] = (ai, direction, path, tuple(binding[i] for i in range(1, k + 1)))
    return list(witness.items()), cap_hit


def naive_variables(term: Term) -> set:
    if isinstance(term, Var):
        return {term.index}
    return set().union(*(naive_variables(a) for a in term.args))


def validate_linear_regular(th: Theory) -> list[int]:
    """Indices of axioms where either side is not linear-regular: some
    context variable does not occur exactly once."""

    def linear_regular(t: TermInContext) -> bool:
        leaves = [s.index for _, s in naive_positions(t.term) if isinstance(s, Var)]
        return sorted(leaves) == list(range(1, t.context_len + 1))

    return [i for i, eq in enumerate(th.axioms) if not (linear_regular(eq.lhs) and linear_regular(eq.rhs))]


def naive_one_way(th: Theory) -> bool:
    """Whether some axiom has exactly one side that mentions its whole
    context, so that only one of its orientations is a step."""
    for eq in th.axioms:
        whole = set(range(1, eq.context_len + 1))
        if (naive_variables(eq.lhs.term) == whole) != (naive_variables(eq.rhs.term) == whole):
            return True
    return False


def naive_replay(d: Derivation, th: Theory) -> bool:
    """Re-apply every step of d with plain recursion: the step's orientation
    must have a source that mentions the axiom's whole context, its
    substitution must instantiate that source to the subterm at its
    position, and the instantiated target replaces it.  The last term must
    be d's end."""
    n = d.start.context_len
    cur = d.start.term
    for step in d.steps:
        if not 0 <= step.axiom_index < len(th.axioms) or step.direction not in ("LR", "RL"):
            return False
        eq = th.axioms[step.axiom_index]
        src, dst = (eq.lhs, eq.rhs) if step.direction == "LR" else (eq.rhs, eq.lhs)
        k = eq.context_len
        if naive_variables(src.term) != set(range(1, k + 1)) or len(step.subst) != k:
            return False
        if any(s.context_len != n for s in step.subst):
            return False
        binding = {i + 1: s.term for i, s in enumerate(step.subst)}
        sub = cur
        for i in step.position:
            if not isinstance(sub, App) or not 0 <= i < len(sub.args):
                return False
            sub = sub.args[i]
        if sub != naive_instantiate(src.term, binding):
            return False
        cur = naive_replace(cur, tuple(step.position), naive_instantiate(dst.term, binding))
    return d.end.context_len == n and cur == d.end.term


def reverse_derivation(d: Derivation) -> Derivation:
    """The same proof read backwards; flips every step's direction."""
    return Derivation(d.end, tuple(flip_step(s) for s in reversed(d.steps)), d.start)


def identity_interpretation(th: Theory) -> Interpretation:
    """The interpretation sending every symbol of th to itself."""
    mapping = {
        sym.name: TermInContext(App(sym, tuple(Var(i) for i in range(1, sym.arity + 1))), sym.arity)
        for sym in th.signature
    }
    return Interpretation.of(th, th, mapping)


def naive_one_step(t: TermInContext, th: Theory) -> set:
    """All terms reachable in exactly one rewrite step, either direction."""
    return {result for result, _ in naive_successors(t, th, float("inf"))[0]}


def naive_closure(t: TermInContext, th: Theory, depth: int, size_cap: int) -> dict:
    """Breadth-first closure as a map term -> distance, pruned by size_cap."""
    dist = {t: 0}
    frontier = [t]
    for d in range(1, depth + 1):
        new = []
        for cur in frontier:
            for nt in naive_one_step(cur, th):
                if naive_size(nt.term) > size_cap or nt in dist:
                    continue
                dist[nt] = d
                new.append(nt)
        frontier = new
    return dist


def naive_shortest(
    th: Theory, lhs: TermInContext, rhs: TermInContext, depth: int, size_cap: int
) -> Optional[int]:
    """Length of the shortest derivation lhs = rhs within the bounds, if any."""
    closure = naive_closure(lhs, th, depth, size_cap)
    return closure.get(rhs)


def naive_all_terms(th: Theory, size: int, context: int) -> list:
    """Every term of exactly the given size with variables drawn from
    1..context, linear-regular or not, by brute-force recursion."""
    if size < 1:
        return []
    out = []
    if size == 1:
        out.extend(Var(i) for i in range(1, context + 1))
        out.extend(App(s, ()) for s in th.signature if s.arity == 0)
        return out
    for s in th.signature:
        if s.arity == 0 or s.arity > size - 1:
            continue
        for parts in _compositions(size - 1, s.arity):
            pools = [naive_all_terms(th, p, context) for p in parts]
            out.extend(App(s, args) for args in _product(pools))
    return out


def term_key(term: Term, th: Theory) -> tuple:
    """The reference key of the canonical term order: the pre-order tag
    sequence, a variable tagged (0, index) and an application (1, i) for the
    i-th symbol of th's signature.  Keys compare lexicographically."""
    if isinstance(term, Var):
        return ((0, term.index),)
    head = ((1, th.signature.index(term.sym)),)
    return head + sum((term_key(a, th) for a in term.args), ())


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _product(pools: list):
    if not pools:
        yield ()
        return
    for head in pools[0]:
        for rest in _product(pools[1:]):
            yield (head,) + rest


def sorted_word_oracle(w1, w2) -> bool:
    """Word equivalence for the two-generator commutative presentation
    (sole relation swapping adjacent distinct letters): words are equivalent
    exactly when they agree as multisets."""
    return sorted(w1) == sorted(w2)


# ---- fuzzing helpers (these may use the package under test) ----

def random_term(rng: random.Random, th: Theory, budget: int, context: int) -> Term:
    """A random well-formed term of size <= budget over variables 1..context."""
    options: list = []
    if context > 0:
        options.append(None)
    options.extend(s for s in th.signature if s.arity + 1 <= budget)
    pick = options[rng.randrange(len(options))]
    if pick is None:
        return Var(rng.randint(1, context))
    if pick.arity == 0:
        return App(pick, ())
    remaining = budget - 1
    if pick.arity == 1:
        parts = [rng.randint(1, remaining)]
    else:
        cuts = sorted(rng.sample(range(1, remaining), pick.arity - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [remaining])]
    return App(pick, tuple(random_term(rng, th, p, context) for p in parts))


def random_walk(
    rng: random.Random, th: Theory, start: TermInContext, max_steps: int, size_cap: int
) -> Derivation:
    """A random valid derivation of at most max_steps from start."""
    cur = start
    steps = []
    for _ in range(max_steps):
        succ = successors(cur, th, size_cap)
        if not succ:
            break
        nt, step = succ[rng.randrange(len(succ))]
        steps.append(step)
        cur = nt
    return Derivation(start, tuple(steps), cur)


def walk(term: Term) -> tuple[list, list, list]:
    """term's pre-order walk as three parallel lists: each subterm, its
    parent's walk index (-1 at the root) and its argument index."""
    size = term.size
    subs, ups, ats = [term] * size, [-1] * size, [0] * size
    for w in range(size):
        c = w + 1
        for i, a in enumerate(getattr(subs[w], "args", ())):
            subs[c], ups[c], ats[c] = a, w, i
            c += a.size
    return subs, ups, ats


def rebuild_up(subs: list, ups: list, ats: list, w: int, result: Term) -> Term:
    """The walked term with its subterm at walk index w swapped for result,
    rebuilt upward along the parent links."""
    j, i = ups[w], ats[w]
    while j >= 0:
        args = subs[j].args
        result = App(subs[j].sym, args[:i] + (result,) + args[i + 1 :])
        j, i = ups[j], ats[j]
    return result


def reference_expand(
    sides: list, size_cap: int, t: TermInContext, reached: dict, entries: dict, distance: int, new: list
) -> bool:
    """The successor kernel as a plain loop over a theory's expansion sides,
    to check the generated expansion function against.

    Walks t once, and each side, in order, is tried by naive_match at each
    subterm: its (source, target) pair is side[3].  A match's result is
    instantiated, measured with naive_size, and rebuilt upward along the
    parent links.  A result already in reached is skipped; each other one
    goes into reached, with no back-move bits, into entries as (distance, t,
    side, w), and onto new.  Returns whether a result over size_cap
    occurred.
    """
    term, n = t.term, t.context_len
    subs, ups, ats = walk(term)
    room = size_cap - naive_size(term)
    cap_hit = False
    for side in sides:
        src, dst = side[3]
        for w, sub in enumerate(subs):
            binding = naive_match(src.term, sub)
            if binding is None:
                continue
            got = naive_instantiate(dst.term, binding)
            if naive_size(got) - naive_size(sub) > room:
                cap_hit = True
                continue
            result = rebuild_up(subs, ups, ats, w, got)
            if result in reached:
                continue
            reached[result] = 0
            nt = TermInContext(result, n)
            entries[nt] = (distance, t, side, w)
            new.append(nt)
    return cap_hit
