"""RewriteStep and Derivation are slotted frozen dataclasses, RewriteStep
with a hand-written __init__: copies, pickles, dataclasses.replace,
equality, hashing and their read-only fields behave as for any frozen
dataclass, and every way of making a step, replace included, normalises and
checks its fields.  ProbeFinding, one per finding of a conservativity
report, is slotted too and keeps its copies, pickles and replace.

Needs neither pytest nor hypothesis, so it also runs as a plain script on
the oldest supported Python:

    PYTHONPATH=src python tests/test_rewrite_step.py
"""

import copy
import dataclasses
import pickle

from rigidlab.interp import ProbeFinding
from rigidlab.rewrite import LR, RL, Derivation, RewriteStep, flip_step
from rigidlab.terms import App, Symbol, TermInContext, Var

M = Symbol("m", 2)


def step():
    subst = [TermInContext(App(M, (Var(2), Var(1))), 2), TermInContext(Var(1), 2)]
    return RewriteStep(1, LR, [0, 1], subst)


def derivation():
    s = step()
    return Derivation(s.subst[0], [s, flip_step(s)], s.subst[0])


def records():
    """Each slotted frozen record with its fields, a reader of one of its
    terms, one field change for replace and the record that change gives."""
    s, d = step(), derivation()
    return [
        (s, RewriteStep.__slots__, lambda r: r.subst[0].term, {"position": (1,)}, RewriteStep(1, LR, (1,), s.subst)),
        (d, Derivation.__slots__, lambda r: r.start.term, {"steps": [s]}, Derivation(d.start, (s,), d.end)),
    ]


def test_fields_are_normalised_and_checked():
    s = step()
    assert s.position == (0, 1) and isinstance(s.subst, tuple)
    assert isinstance(derivation().steps, tuple)
    for bad in ((0, "up", (), ()), (-1, LR, (), ())):
        try:
            RewriteStep(*bad)
        except ValueError:
            continue
        raise AssertionError(f"RewriteStep{bad} was accepted")


def test_replace_checks_fields():
    s = step()
    for change in ({"direction": "up"}, {"axiom_index": -1}):
        try:
            dataclasses.replace(s, **change)
        except ValueError:
            continue
        raise AssertionError(f"replace with {change} was accepted")
    moved = dataclasses.replace(s, position=[1, 0])
    assert moved.position == (1, 0) and moved.subst is s.subst


def test_equality_and_hash():
    s, t = step(), step()
    assert s == t and hash(s) == hash(t) and s is not t
    assert s != flip_step(s) and flip_step(flip_step(s)) == s
    assert flip_step(s).direction == RL
    assert len({s, t, flip_step(s)}) == 2
    assert derivation() == derivation() and hash(derivation()) == hash(derivation())


def test_copies_and_pickles_are_equal():
    for r, _, term, change, changed in records():
        for other in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(other) is type(r) and other == r and hash(other) == hash(r)
            assert term(other) is term(r)
        assert dataclasses.replace(r, **change) == changed


def test_frozen_and_slotted():
    for r, fields, *_ in records():
        for name in fields + ("other",):
            try:
                setattr(r, name, 0)
            except dataclasses.FrozenInstanceError:
                continue
            raise AssertionError(f"assigning {name} was allowed")
        try:
            delattr(r, fields[0])
        except dataclasses.FrozenInstanceError:
            pass
        else:
            raise AssertionError("deleting a field was allowed")
        assert not hasattr(r, "__dict__")
        assert fields == tuple(f.name for f in dataclasses.fields(r))
    assert RewriteStep.__slots__ == ("axiom_index", "direction", "position", "subst")
    assert Derivation.__slots__ == ("start", "steps", "end")


def test_probe_finding_is_slotted():
    # perfbench's self-test plants a fault in a report with
    # dataclasses.replace on a finding.
    d = derivation()
    f = ProbeFinding(d.start, d.end, d, True)
    assert not hasattr(f, "__dict__")
    assert ProbeFinding.__slots__ == tuple(field.name for field in dataclasses.fields(f))
    g = dataclasses.replace(f, confirmed=False)
    assert type(g) is ProbeFinding and not g.confirmed and g.target_derivation is d
    for other in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert other == f and type(other) is ProbeFinding


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
