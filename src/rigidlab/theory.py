"""Equational theories: a ranked signature plus an ordered list of axioms.

Axioms are equations-in-context and are addressed by their 0-based index in
rewrite steps, so their order is part of the theory's identity.  The module
also owns the line-oriented ``.thy`` file format, whose line reader,
_directives, the ``.wp`` and ``.itp`` readers share::

    # comment
    symbol m 2
    axiom [2] m(x1,x2) = m(x2,x1)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

from .terms import (
    App,
    ParseError,
    Symbol,
    Term,
    TermInContext,
    parse_term,
    render_term,
)

__all__ = [
    "Equation",
    "Theory",
    "load_theory",
    "parse_equation",
    "parse_theory",
    "render_theory",
    "save_theory",
]


@dataclass(frozen=True)
class Equation:
    """Two terms sharing one variable context."""

    lhs: TermInContext
    rhs: TermInContext

    def __post_init__(self):
        if self.lhs.context_len != self.rhs.context_len:
            raise ValueError("equation sides live in different contexts")

    @property
    def context_len(self) -> int:
        return self.lhs.context_len


def _check_signature_terms(term: Term, by_name: dict) -> None:
    if isinstance(term, App):
        declared = by_name.get(term.sym.name)
        if declared != term.sym:
            raise ValueError(f"symbol {term.sym.name}/{term.sym.arity} is not in the signature")
        for a in term.args:
            _check_signature_terms(a, by_name)


@dataclass(frozen=True)
class Theory:
    """An ordered signature and an ordered, 0-indexed list of axioms.

    The rewrite engine keeps the theory's one-step relation on the object,
    as one record, _relation, built on first use: its kept orientations, its
    expansion sides with their inverses, and its one-way flag.  The one
    generated Python function that expands a term by all the sides is
    compiled into that record on the first search, once per theory.  Replay
    reads only the kept orientations, so it neither runs nor compiles
    generated code, and reading a derivation runs none.  A copy or a pickle
    carries only the signature and the axioms, so it builds its own
    relation on first use.
    """

    signature: tuple
    axioms: tuple

    def __post_init__(self):
        object.__setattr__(self, "signature", tuple(self.signature))
        object.__setattr__(self, "axioms", tuple(self.axioms))
        by_name: dict[str, Symbol] = {}
        for sym in self.signature:
            if sym.name in by_name:
                raise ValueError(f"duplicate symbol {sym.name!r}")
            by_name[sym.name] = sym
        for eq in self.axioms:
            _check_signature_terms(eq.lhs.term, by_name)
            _check_signature_terms(eq.rhs.term, by_name)
        object.__setattr__(self, "_by_name", by_name)

    def __reduce__(self):
        return Theory, (self.signature, self.axioms)

    def symbol(self, name: str) -> Symbol:
        sym = self._by_name.get(name)
        if sym is None:
            raise KeyError(f"no symbol named {name!r}")
        return sym

    def has_symbol(self, name: str) -> bool:
        return name in self._by_name

    def symbols_by_name(self) -> dict:
        return dict(self._by_name)


# ---- .thy files ----

_AXIOM_RE = re.compile(r"^\s*\[\s*(\d+)\s*\]\s*(.*)$")


def _parse_equation_body(body: str, context_len: int, th_symbols: dict, line_no: int) -> Equation:
    if body.count("=") != 1:
        raise ParseError("an axiom needs exactly one '='", line_no, 1)
    lhs_text, rhs_text = body.split("=")
    lhs = parse_term(lhs_text.strip(), th_symbols, line=line_no)
    rhs = parse_term(rhs_text.strip(), th_symbols, line=line_no)
    try:
        return Equation(TermInContext(lhs, context_len), TermInContext(rhs, context_len))
    except ValueError as e:
        raise ParseError(str(e), line_no, 1) from None


def _directives(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, head, rest) for each line of a line-oriented file that
    is not blank once its # comment is cut; head is the first word, rest
    the remainder, stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            head, _, rest = line.partition(" ")
            yield line_no, head, rest.strip()


def parse_theory(text: str) -> Theory:
    """Parse the .thy format; symbols must be declared before use."""
    signature: list[Symbol] = []
    by_name: dict[str, Symbol] = {}
    axioms: list[Equation] = []
    for line_no, head, rest in _directives(text):
        if head == "symbol":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("expected: symbol <name> <arity>", line_no, 1)
            name, arity_text = parts
            if not arity_text.isdigit():
                raise ParseError(f"bad arity {arity_text!r}", line_no, 1)
            if name in by_name:
                raise ParseError(f"duplicate symbol {name!r}", line_no, 1)
            try:
                sym = Symbol(name, int(arity_text))
            except ValueError as e:
                raise ParseError(str(e), line_no, 1) from None
            signature.append(sym)
            by_name[name] = sym
        elif head == "axiom":
            m = _AXIOM_RE.match(rest)
            if m is None:
                raise ParseError("expected: axiom [<context>] <lhs> = <rhs>", line_no, 1)
            axioms.append(_parse_equation_body(m.group(2), int(m.group(1)), by_name, line_no))
        else:
            raise ParseError(f"unknown directive {head!r}", line_no, 1)
    return Theory(tuple(signature), tuple(axioms))


def render_theory(th: Theory) -> str:
    lines = [f"symbol {sym.name} {sym.arity}" for sym in th.signature]
    for eq in th.axioms:
        lines.append(
            f"axiom [{eq.context_len}] {render_term(eq.lhs.term)} = {render_term(eq.rhs.term)}"
        )
    return "\n".join(lines) + "\n"


def parse_equation(text: str, th: Theory) -> Equation:
    """Parse "[n] lhs = rhs" against a theory's signature."""
    m = _AXIOM_RE.match(text)
    if m is None:
        raise ParseError("expected: [<context>] <lhs> = <rhs>")
    return _parse_equation_body(m.group(2), int(m.group(1)), th.symbols_by_name(), 1)


def load_theory(path: Union[str, Path]) -> Theory:
    return parse_theory(Path(path).read_text(encoding="utf-8"))


def save_theory(th: Theory, path: Union[str, Path]) -> None:
    Path(path).write_text(render_theory(th), encoding="utf-8")
