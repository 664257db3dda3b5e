"""Show that every output check rejects a planted wrong answer.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  Each case takes a real output of the
program, first confirms that the check accepts it, then plants one error (a
flipped status, a dropped closure entry, a corrupted step position, a
`hat` output that keeps a v-chain) and confirms that the check rejects it.
The inputs are small versions of the workloads' inputs, so it ends in a
few seconds.
"""

from __future__ import annotations

import dataclasses
import sys

import run


def main() -> int:
    if not run.add_paths():
        return 2
    import checks
    import workloads as wl
    from rigidlab.interp import extend, probe_conservativity
    from rigidlab.normalizer import WordOracle, hat, is_special
    from rigidlab.reduction import parse_wp, seed_interpretation, word_bfs, word_semidecide
    from rigidlab.rewrite import bounded_closure, prove_bounded
    from rigidlab.rigidity import search_flabby
    from rigidlab.terms import App, TermInContext, Var, parse_term
    from rigidlab.theory import parse_equation, parse_theory

    missed = []

    def case(name, check, good, bad, reject_as=None):
        """check(good) must pass; check(bad) must raise CheckError, or
        return reject_as when that is given."""
        try:
            if check(good) == checks.FAILED:
                missed.append(f"{name}: the true output counts as failed")
                return
        except checks.CheckError as exc:
            missed.append(f"{name}: the true output is rejected: {exc}")
            return
        try:
            verdict = check(bad)
        except checks.CheckError as exc:
            print(f"ok  {name}: {exc}")
            return
        if reject_as is not None and verdict == reject_as:
            print(f"ok  {name}: counted as {verdict}")
        else:
            missed.append(f"{name}: the planted error passed")

    def corrupt_step(d, k):
        steps = list(d.steps)
        pos = tuple(steps[k].position)
        steps[k] = dataclasses.replace(steps[k], position=pos + (0,) if not pos else pos[:-1] + (1 - pos[-1],))
        return dataclasses.replace(d, steps=tuple(steps))

    # flabby: a flipped status, and a corrupted step in a witness
    seed = parse_theory(wl.SEED_THY)
    res = search_flabby(seed, max_size=9, max_context=4, depth=8)
    case("seed sweep, status flipped", checks.check_seed_sweep, res, dataclasses.replace(res, status="bounds"))
    yes, yes_th = wl.compiled(wl.WP["yes_ab"])
    res = search_flabby(yes_th, max_size=6, max_context=2, depth=6)
    check = lambda r: checks.check_yes_instance_sweep(r, yes_th, yes.goal, bounds_ok=False)
    case("yes-instance sweep, status flipped", check, res, dataclasses.replace(res, status="exhausted"), checks.FAILED)
    bad = dataclasses.replace(res.report, derivation=corrupt_step(res.report.derivation, 0))
    case("yes-instance witness, step position corrupted", check, res, dataclasses.replace(res, report=bad))
    no, no_th = wl.compiled(wl.WP["no_ab"])
    res = search_flabby(no_th, max_size=5, max_context=2, depth=6)
    check = lambda r: checks.check_no_instance_sweep(r, len(no.alphabet) + 1, 5, 2)
    case("no-instance sweep, status flipped", check, res, dataclasses.replace(res, status="found"))

    # probe: a finding planted on the free instance, one dropped on the yes-instance
    free = seed_interpretation(parse_wp(wl.WP["free"]))
    clean = probe_conservativity(free, term_size_bound=3, depth=6)
    pairs = checks.probe_pairs(3)
    yes_i = seed_interpretation(yes)
    rep = probe_conservativity(yes_i, term_size_bound=3, depth=6)
    check = lambda r: checks.check_probe_clean(r, pairs)
    case("free probe, finding planted", check, clean, dataclasses.replace(clean, confirmed=rep.confirmed[:1]))
    check = lambda r: checks.check_probe_findings(r, pairs, seed, yes_i.target, yes.goal, {})
    lr = [f for f in rep.confirmed if (checks.show(f.lhs.term), checks.show(f.rhs.term)) == ("l(x1,x2)", "r(x1,x2)")]
    others = [f for f in rep.confirmed if f not in lr]
    case("yes probe, l = r dropped", check, rep, dataclasses.replace(rep, confirmed=others))
    bad = dataclasses.replace(lr[0], target_derivation=corrupt_step(lr[0].target_derivation, 0))
    case("yes probe, step position corrupted", check, rep, dataclasses.replace(rep, confirmed=others + [bad]))

    # closure: an entry dropped, a corrupted step, a flipped status
    ac = parse_theory(wl.AC_THY)
    n = 4
    start = TermInContext(parse_term(wl.left_comb(n), ac.symbols_by_name()), n)
    cl = bounded_closure(ac, start, 20)
    entries = dict(cl.entries)
    entries.pop(next(reversed(entries)))
    sample = list(cl.entries)[1:4]
    check = lambda c: checks.check_ac_closure(c, n, sample, ac)
    case("AC closure, one entry dropped", check, cl, dataclasses.replace(cl, entries=entries))
    goal = parse_equation(f"[5] {wl.left_comb(5)} = {wl.reversed_right_comb(5)}", ac)
    out = prove_bounded(ac, goal, 8)
    check = lambda o: checks.check_ac_proof(o, ac, goal)
    bad = dataclasses.replace(out, derivation=corrupt_step(out.derivation, len(out.derivation.steps) // 2))
    case("AC proof, step position corrupted", check, out, bad)
    a = parse_theory(wl.A_THY)
    goal_a = parse_equation(f"[5] {wl.left_comb(5)} = {wl.reversed_right_comb(5)}", a)
    out = prove_bounded(a, goal_a, 16)
    check = lambda o: checks.check_assoc_refutation(o, goal_a)
    case("assoc proof, status flipped", check, out, dataclasses.replace(out, status="bounds", certified=False))

    # words: a flipped status, a corrupted offset
    w1, w2 = tuple("abab"), tuple("bbaa")
    direct = word_bfs(yes, w1, w2, depth=10)
    via = word_semidecide(yes, w1, w2, depth=10)
    check = lambda o: checks.check_word_pair(yes.relations, w1, w2, o, via)
    case("word_bfs, status flipped", check, direct, dataclasses.replace(direct, status="exhausted", derivation=None))
    steps = list(direct.derivation.steps)
    steps[0] = dataclasses.replace(steps[0], offset=steps[0].offset + 1)
    bad = dataclasses.replace(direct, derivation=dataclasses.replace(direct.derivation, steps=tuple(steps)))
    case("word_bfs, step offset corrupted", check, direct, bad)

    # hat: an output that keeps a v-chain on the yes-instance
    oracle = WordOracle(yes, depth=40)
    s = TermInContext(App(checks.R, (Var(1), Var(2))), 2)
    image = extend(yes_i, s)
    res = hat(yes, image, oracle)
    good = wl.HatOutput(image, res, is_special(yes, res.term))
    kept = dataclasses.replace(res, term=image)
    bad = wl.HatOutput(image, kept, is_special(yes, image))
    case("hat image, v-chain kept", lambda o: checks.check_hat_image(s, o, yes.goal, merge=True), good, bad)
    alphabet = frozenset(yes.alphabet)
    case("hat shape, v-chain kept", lambda o: checks.check_hat_shape(image, o, alphabet, yes.goal), good, bad)

    for m in missed:
        print(f"MISSED  {m}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
