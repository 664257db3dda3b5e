"""Output checks made apart from the code under test.

Every check here either recomputes the expected answer with code that shares
nothing with rigidlab beyond the term data types (the naive rewriting of
tests/oracles.py, closed-form counts, slicing on words, a special-term
recognizer of its own), or tests a property the method must have.  None
compares against a stored copy of an earlier output.

A check raises CheckError when an output is wrong.  A check returns FAILED
for an operation whose verdict is the wrong way round on an instance whose
answer is known from the paper's theorem; such an operation counts as failed
rather than making the run incorrect.
"""

from __future__ import annotations

from math import comb, factorial

from oracles import (
    naive_closure,
    naive_instantiate,
    naive_one_step,
    naive_replace,
    naive_size,
    sorted_word_oracle,
)
from rigidlab.terms import App, Symbol, TermInContext, Var

FAILED = "failed"

L = Symbol("l", 2)
R = Symbol("r", 2)
M = Symbol("m", 2)
ALPHA = Symbol("alpha", 1)


class CheckError(Exception):
    """An output that contradicts an independent computation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---- terms, written apart from rigidlab.terms ----

def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def var_sequence(term) -> list:
    if isinstance(term, Var):
        return [term.index]
    out = []
    for a in term.args:
        out.extend(var_sequence(a))
    return out


def show(term) -> str:
    if isinstance(term, Var):
        return f"x{term.index}"
    return f"{term.sym.name}({','.join(show(a) for a in term.args)})"


def subterm(term, path):
    for i in path:
        require(isinstance(term, App) and 0 <= i < len(term.args), f"invalid position {tuple(path)}")
        term = term.args[i]
    return term


def rename(term, images: dict):
    if isinstance(term, Var):
        return Var(images[term.index])
    return App(term.sym, tuple(rename(a, images) for a in term.args))


def chain(word, below):
    """The unary chain of a word around a term, first letter outermost."""
    for letter in reversed(tuple(word)):
        below = App(Symbol(letter, 1), (below,))
    return below


def seed_image(term, goal):
    """The image of a seed term (l, r, m) under the reduction's interpretation."""
    if isinstance(term, Var):
        return term
    a, b = (seed_image(x, goal) for x in term.args)
    if term.sym.name == "m":
        return App(M, (a, b))
    word = goal[0] if term.sym.name == "l" else goal[1]
    return App(M, (chain(word, App(ALPHA, (a,))), b))


def r_to_l(term):
    """The seed term with every r replaced by l, arguments kept in place."""
    if isinstance(term, Var):
        return term
    sym = L if term.sym.name == "r" else term.sym
    return App(sym, tuple(r_to_l(a) for a in term.args))


def special_preimage(term, alphabet, goal):
    """The seed term a special term is the image of, or None.

    Special terms: variables; m(w(alpha(s)), t) with w a goal word (u gives
    l, then v gives r) and s, t special; m(s, t) with s not a marked chain.
    """
    if isinstance(term, Var):
        return term
    if not (isinstance(term, App) and term.sym == M):
        return None
    first, second = term.args
    letters = []
    cur = first
    while isinstance(cur, App) and cur.sym.arity == 1 and cur.sym.name in alphabet:
        letters.append(cur.sym.name)
        cur = cur.args[0]
    if isinstance(cur, App) and cur.sym == ALPHA:
        word = tuple(letters)
        sym = L if word == goal[0] else R if word == goal[1] else None
        parts = (sym, cur.args[0], second)
    else:
        parts = (M, first, second)
    if parts[0] is None:
        return None
    a = special_preimage(parts[1], alphabet, goal)
    b = special_preimage(parts[2], alphabet, goal)
    if a is None or b is None:
        return None
    return App(parts[0], (a, b))


def count_symbols(term, names: set) -> int:
    if isinstance(term, Var):
        return 0
    return (term.sym.name in names) + sum(count_symbols(a, names) for a in term.args)


# ---- derivations ----

def replay_naively(d, th, start, end) -> None:
    """Replay a term derivation one step at a time with the naive rewriting
    of tests/oracles.py: each step's instantiated source side must sit at
    its position, and the next term must be among naive_one_step's results."""
    require(d.start == start, f"derivation starts at {show(d.start.term)}, expected {show(start.term)}")
    require(d.end == end, f"derivation ends at {show(d.end.term)}, expected {show(end.term)}")
    cur = start
    for k, step in enumerate(d.steps):
        require(0 <= step.axiom_index < len(th.axioms), f"step {k}: no axiom {step.axiom_index}")
        eq = th.axioms[step.axiom_index]
        require(step.direction in ("LR", "RL"), f"step {k}: bad direction")
        src, dst = (eq.lhs, eq.rhs) if step.direction == "LR" else (eq.rhs, eq.lhs)
        require(len(step.subst) == eq.context_len, f"step {k}: substitution has the wrong length")
        binding = {i + 1: s.term for i, s in enumerate(step.subst)}
        require(
            subterm(cur.term, step.position) == naive_instantiate(src.term, binding),
            f"step {k}: axiom {step.axiom_index} {step.direction} does not match at {tuple(step.position)}",
        )
        new = naive_replace(cur.term, tuple(step.position), naive_instantiate(dst.term, binding))
        nxt = TermInContext(new, cur.context_len)
        require(nxt in naive_one_step(cur, th), f"step {k}: result is not a one-step rewrite")
        cur = nxt
    require(cur == end, "derivation does not reach its end term")


def ball(t, th, radius: int) -> set:
    """Every term within radius naive steps of t, for size-preserving theories."""
    return set(naive_closure(t, th, radius, naive_size(t.term)))


def require_shortest(d, th) -> None:
    """No naive path from d.start to d.end is shorter than d.

    A path of length k <= len(d) - 1 has a term within ceil(k/2) of the start
    and floor(k/2) of the end, so disjoint balls of those radii rule it out.
    """
    k = len(d.steps) - 1
    if k < 0:
        return
    near_start = ball(d.start, th, (k + 1) // 2)
    near_end = ball(d.end, th, k // 2)
    require(not near_start & near_end, f"a derivation shorter than {len(d.steps)} steps exists")


def word_replay(relations, d) -> None:
    """Replay a word derivation by plain slicing."""
    cur = tuple(d.start)
    for k, step in enumerate(d.steps):
        require(0 <= step.relation_index < len(relations), f"word step {k}: no relation")
        u, v = relations[step.relation_index]
        src, dst = (u, v) if step.direction == "LR" else (v, u)
        o = step.offset
        require(cur[o : o + len(src)] == src, f"word step {k}: relation does not match at offset {o}")
        cur = cur[:o] + dst + cur[o + len(src) :]
    require(cur == tuple(d.end), "word derivation does not reach its end word")


def min_swaps(w1, w2) -> int:
    """Fewest adjacent swaps of distinct letters turning w1 into w2, for
    words over two letters with equal letter counts."""
    p = [i for i, c in enumerate(w1) if c == "a"]
    q = [i for i, c in enumerate(w2) if c == "a"]
    return sum(abs(x - y) for x, y in zip(p, q))


# ---- flabby ----

def count_linear_regular(unary: int, max_size: int, max_context: int) -> dict:
    """Canonical linear-regular terms over unary symbols and one binary
    symbol, by number of variables: {n: count} for sizes <= max_size."""
    # t[s][n]: shapes of exactly s nodes with n variable leaves
    t = [[0] * (max_size + 1) for _ in range(max_size + 1)]
    for s in range(1, max_size + 1):
        for n in range(1, max_size + 1):
            total = 1 if (s == 1 and n == 1) else 0
            if s > 1:
                total += unary * t[s - 1][n]
                for s1 in range(1, s - 1):
                    for n1 in range(1, n):
                        total += t[s1][n1] * t[s - 1 - s1][n - n1]
            t[s][n] = total
    return {n: sum(t[s][n] for s in range(1, max_size + 1)) for n in range(1, max_context + 1)}


SEED_TERMS = sum(catalan(k - 1) * 3 ** (k - 1) for k in range(1, 5))
SEED_CLOSURE_TERMS = sum(catalan(k - 1) * 5 ** (k - 1) for k in range(2, 5))


def check_seed_sweep(res) -> None:
    """Criterion 1's bounds: every seed term with <= 4 variables, each of
    whose closures holds 2^(number of l and r nodes) terms."""
    require(res.status == "exhausted", f"seed sweep status {res.status}")
    require(res.report is None, "seed sweep reported a witness")
    require(not res.caps_hit and not res.budget_hit, "seed sweep hit a bound")
    require(res.terms_enumerated == SEED_TERMS, f"{res.terms_enumerated} terms, expected {SEED_TERMS}")
    require(
        res.closure_terms_total == SEED_CLOSURE_TERMS,
        f"closures hold {res.closure_terms_total} terms, expected {SEED_CLOSURE_TERMS}",
    )


def check_no_instance_sweep(res, unary: int, max_size: int, max_context: int) -> None:
    """A no-instance compiles to a rigid theory, so no witness may appear,
    and a search that finds none has enumerated every term."""
    require(res.status != "found", "a flabby witness on a no-instance")
    require(res.report is None, "a report without a found status")
    counts = count_linear_regular(unary, max_size, max_context)
    require(res.terms_enumerated == sum(counts.values()), f"{res.terms_enumerated} terms enumerated")
    require(
        res.closures_computed == sum(c for n, c in counts.items() if n >= 2),
        f"{res.closures_computed} closures computed",
    )


def check_yes_instance_sweep(res, th, goal, *, bounds_ok: bool):
    """A yes-instance compiles to a non-rigid theory: exhausted is wrong.

    A found witness must be the image of l, m(u(alpha(x1)),x2), with the two
    variables swapped, and must replay.  bounds_ok says whether the depth is
    too small for the search to be expected to reach the witness.
    """
    if res.status == "exhausted":
        return FAILED
    if res.status == "bounds":
        require(bounds_ok, "no witness although the witness derivation is within the depth")
        return None
    require(res.status == "found" and res.report is not None, f"status {res.status}")
    rep = res.report
    image_l = TermInContext(seed_image(App(L, (Var(1), Var(2))), goal), 2)
    require(rep.term == image_l, f"witness {show(rep.term.term)} is not the image of l")
    require(tuple(rep.permutation.images) == (2, 1), "witness permutation is not the swap")
    swapped = TermInContext(rename(image_l.term, {1: 2, 2: 1}), 2)
    replay_naively(rep.derivation, th, image_l, swapped)
    return None


# ---- probe ----

def probe_pairs(max_size: int) -> int:
    """Pairs probe_conservativity checks over the seed theory up to a term
    size: every canonical s against every renaming of a canonical t in the
    same context, canonical-canonical pairs once.  A seed term with n
    variables has 2n - 1 nodes; one variable alone makes no pair."""
    total = 0
    for n in range(2, (max_size + 1) // 2 + 1):
        c = catalan(n - 1) * 3 ** (n - 1)
        total += c * (c * factorial(n) - 1) - c * (c - 1) // 2
    return total


def check_probe_clean(rep, pairs: int) -> None:
    require(rep.pairs_checked == pairs, f"pairs_checked={rep.pairs_checked}, expected {pairs}")
    require(not rep.confirmed, f"{len(rep.confirmed)} confirmed findings on a no-instance")
    require(not rep.candidates, f"{len(rep.candidates)} candidates on a no-instance")


def check_probe_findings(rep, pairs: int, seed_th, target_th, goal, source_classes: dict) -> None:
    """On a yes-instance l(x1,x2) = r(x1,x2) must be confirmed; every
    confirmed finding's target derivation replays between the images, and
    its right side lies outside the seed-theory class of its left side."""
    require(rep.pairs_checked == pairs, f"pairs_checked={rep.pairs_checked}, expected {pairs}")
    require(not rep.candidates, "candidates although every seed closure is finite")
    shown = {(show(f.lhs.term), show(f.rhs.term)) for f in rep.confirmed}
    require(("l(x1,x2)", "r(x1,x2)") in shown, "l(x1,x2) = r(x1,x2) not confirmed")
    for f in rep.confirmed:
        n = f.lhs.context_len
        replay_naively(
            f.target_derivation,
            target_th,
            TermInContext(seed_image(f.lhs.term, goal), n),
            TermInContext(seed_image(f.rhs.term, goal), n),
        )
        cls = source_classes.get(f.lhs)
        if cls is None:
            size = naive_size(f.lhs.term)
            cls = set(naive_closure(f.lhs, seed_th, size, size))
            require(len(cls) == 2 ** count_symbols(f.lhs.term, {"l", "r"}), "seed-theory class is incomplete")
            source_classes[f.lhs] = cls
        require(f.rhs not in cls, f"{show(f.lhs.term)} = {show(f.rhs.term)} holds in the seed theory")


# ---- closure ----

def check_ac_closure(cl, n: int, sample: list, th) -> None:
    """All bracketings of all permutations of x1..xn, each once; sampled
    entries' derivations replay."""
    require(cl.exhausted and not cl.cap_hit and not cl.budget_hit, "AC closure is not complete")
    expected = catalan(n - 1) * factorial(n)
    require(len(cl.entries) == expected, f"{len(cl.entries)} closure terms, expected {expected}")
    seen = set()
    for t in cl.entries:
        require(t.context_len == n, "closure term in the wrong context")
        leaves = var_sequence(t.term)
        binary = count_symbols(t.term, {"m"})
        require(binary == len(leaves) - 1 == naive_size(t.term) - len(leaves), f"{show(t.term)} is not a bracketing")
        require(sorted(leaves) == list(range(1, n + 1)), f"{show(t.term)} is not a permutation")
        seen.add(show(t.term))
    require(len(seen) == expected, "closure terms repeat")
    for t in sample:
        d = cl.derivation_to(t)
        replay_naively(d, th, cl.start, t)


def check_ac_proof(out, th, goal) -> None:
    require(out.status == "found", f"AC proof status {out.status}")
    replay_naively(out.derivation, th, goal.lhs, goal.rhs)
    require_shortest(out.derivation, th)


def check_assoc_refutation(out, goal) -> None:
    """Associativity keeps the leaf order, so different orders are not
    provably equal and the finite class certifies it."""
    require(var_sequence(goal.lhs.term) != var_sequence(goal.rhs.term), "leaf orders agree")
    require(out.status == "exhausted" and out.certified, f"status {out.status}, certified {out.certified}")
    require(out.derivation is None, "a derivation between different leaf orders")


# ---- words_hat ----

def check_word_pair(relations, w1, w2, direct, via_terms) -> None:
    """Both routes against the multiset oracle; found derivations replay by
    slicing and are as short as the fewest adjacent swaps."""
    if sorted_word_oracle(w1, w2):
        shortest = min_swaps(w1, w2)
        for name, out in (("word_bfs", direct), ("word_semidecide", via_terms)):
            require(out.status == "found", f"{name}({''.join(w1)}, {''.join(w2)}): {out.status}")
            require(tuple(out.derivation.start) == w1 and tuple(out.derivation.end) == w2, f"{name}: wrong ends")
            word_replay(relations, out.derivation)
            require(len(out.derivation.steps) == shortest, f"{name}: {len(out.derivation.steps)} steps, not {shortest}")
    else:
        for name, out in (("word_bfs", direct), ("word_semidecide", via_terms)):
            require(
                out.status == "exhausted" and out.certified,
                f"{name}({''.join(w1)}, {''.join(w2)}): {out.status}, certified={out.certified}",
            )


def check_hat_shape(t, out, alphabet, goal) -> None:
    """On the yes-instance every output is special, spells every marked
    chain as u, keeps the variable occurrences, and carries no warning."""
    res, tag = out.result, out.tag
    require(res.clean, f"hat({show(t.term)}) raised warnings")
    pre = special_preimage(res.term.term, alphabet, goal)
    require(pre is not None, f"hat({show(t.term)}) = {show(res.term.term)} is not special")
    require(not count_symbols(pre, {"r"}), f"hat({show(t.term)}) = {show(res.term.term)} keeps a v-chain")
    require(res.term.context_len == t.context_len, "hat changed the context")
    require(var_sequence(res.term.term) == var_sequence(t.term), f"hat({show(t.term)}) moved variables")
    require(tag.special and tag.preimage == TermInContext(pre, t.context_len), "is_special disagrees")


def check_hat_image(s, out, goal, merge: bool) -> None:
    """The image of seed term s goes to the image of s (no-instance) or of
    s[r:=l] (yes-instance), and is_special names that preimage."""
    res, tag = out.result, out.tag
    expected = r_to_l(s.term) if merge else s.term
    require(res.clean, f"hat(image of {show(s.term)}) raised warnings")
    require(
        res.term == TermInContext(seed_image(expected, goal), s.context_len),
        f"hat(image of {show(s.term)}) = {show(res.term.term)}",
    )
    require(tag.special and tag.preimage == TermInContext(expected, s.context_len), "is_special disagrees")
