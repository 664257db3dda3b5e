"""RewriteStep is a slotted frozen dataclass with a hand-written __init__:
copies, pickles, dataclasses.replace, equality, hashing and its read-only
fields behave as for any frozen dataclass, and every way of making a step,
replace included, normalises and checks its fields.

Needs neither pytest nor hypothesis, so it also runs as a plain script on
the oldest supported Python:

    PYTHONPATH=src python tests/test_rewrite_step.py
"""

import copy
import dataclasses
import pickle

from rigidlab.rewrite import LR, RL, RewriteStep, flip_step
from rigidlab.terms import App, Symbol, TermInContext, Var

M = Symbol("m", 2)


def step():
    subst = [TermInContext(App(M, (Var(2), Var(1))), 2), TermInContext(Var(1), 2)]
    return RewriteStep(1, LR, [0, 1], subst)


def test_fields_are_normalised_and_checked():
    s = step()
    assert s.position == (0, 1) and isinstance(s.subst, tuple)
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


def test_copies_and_pickles_are_equal():
    s = step()
    for other in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert other == s and hash(other) == hash(s)
        assert other.subst[0].term is s.subst[0].term
    assert dataclasses.replace(s, position=(1,)) == RewriteStep(1, LR, (1,), s.subst)


def test_frozen_and_slotted():
    s = step()
    for name in ("axiom_index", "position", "other"):
        try:
            setattr(s, name, 0)
        except dataclasses.FrozenInstanceError:
            continue
        raise AssertionError(f"assigning {name} was allowed")
    try:
        del s.position
    except dataclasses.FrozenInstanceError:
        pass
    else:
        raise AssertionError("deleting a field was allowed")
    assert not hasattr(s, "__dict__")
    assert RewriteStep.__slots__ == ("axiom_index", "direction", "position", "subst")


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
