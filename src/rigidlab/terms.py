"""Terms over a ranked signature, in positional variable contexts.

A context is just a length n; the variables are the indices 1..n, written
``x1``..``xn`` in concrete syntax.  There are no named variables.

Terms are hash-consed (maximal sharing): every constructor returns the one
live node with equal contents, so structurally equal terms are the same
object, and == and hash are identity, O(1) whatever the depth.  A Symbol owns
a weak-valued table of the App nodes it heads, so a node lives only as long
as something outside the table holds it.  Each App carries its size and its
largest variable index, computed once from its children.  Nodes are
immutable, and copy, deepcopy and pickle go back through the constructors.

Concrete syntax: ``x1``, ``f(t1,...,tk)``, nullary symbols written ``c()``.
Whitespace is insignificant inside a term.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence, Union
from weakref import KeyedRef

__all__ = [
    "App",
    "ParseError",
    "Permutation",
    "Symbol",
    "Term",
    "TermInContext",
    "Var",
    "count_symbol",
    "is_linear_regular",
    "parse_term",
    "render_term",
    "replace_at",
    "subterm_at",
    "substitute_simple",
    "substitute_terms",
    "term_size",
    "var_occurrences",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VARNAME_RE = re.compile(r"x[1-9][0-9]*")


class ParseError(ValueError):
    """Malformed concrete syntax.  Carries a 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def is_variable_name(name: str) -> bool:
    """True for identifiers reserved for variables (x1, x2, ...)."""
    return _VARNAME_RE.fullmatch(name) is not None


class _Frozen:
    """Immutable slots: fields are set once, through the slot descriptors."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_SYMBOLS: dict = {}  # (name, arity) -> the Symbol
_VARS: dict = {}  # index -> the Var


class Symbol(_Frozen):
    """A signature entry: a name with a fixed arity.

    Interned: equal (name, arity) give the same object.  Each symbol owns the
    weak-valued table of the App nodes it heads, keyed by their args tuple.
    """

    __slots__ = ("name", "arity", "_apps", "_forget")

    def __new__(cls, name: str, arity: int):
        sym = _SYMBOLS.get((name, arity))
        if sym is not None:
            return sym
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"bad symbol name {name!r}")
        if is_variable_name(name):
            raise ValueError(f"symbol name {name!r} is reserved for variables")
        if arity < 0:
            raise ValueError("arity must be non-negative")
        sym = object.__new__(cls)
        apps: dict = {}

        def forget(ref, apps=apps):
            if apps.get(ref.key) is ref:
                del apps[ref.key]

        object.__setattr__(sym, "name", name)
        object.__setattr__(sym, "arity", arity)
        object.__setattr__(sym, "_apps", apps)
        object.__setattr__(sym, "_forget", forget)
        _SYMBOLS[(name, arity)] = sym
        return sym

    def __reduce__(self):
        return Symbol, (self.name, self.arity)

    def __repr__(self):
        return f"Symbol(name={self.name!r}, arity={self.arity!r})"


class Var(_Frozen):
    """A context variable, indexed from 1.  Interned like every term."""

    __slots__ = ("index", "max_var")
    size = 1

    def __new__(cls, index: int):
        var = _VARS.get(index)
        if var is not None:
            return var
        if index < 1:
            raise ValueError("variable indices start at 1")
        var = object.__new__(cls)
        object.__setattr__(var, "index", index)
        object.__setattr__(var, "max_var", index)
        _VARS[index] = var
        return var

    def __reduce__(self):
        return Var, (self.index,)

    def __repr__(self):
        return f"Var(index={self.index!r})"


class App(_Frozen):
    """An application of a symbol to exactly arity-many argument terms.

    Hash-consed: the constructor returns the one live node with this symbol
    and these argument nodes, so == and hash are identity.  size (nodes,
    variables included) and max_var (largest variable index, 0 if none) are
    computed once from the children.
    """

    __slots__ = ("sym", "args", "size", "max_var", "__weakref__")

    def __new__(cls, sym: Symbol, args):
        args = tuple(args)
        ref = sym._apps.get(args)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(args) != sym.arity:
            raise ValueError(f"{sym.name} has arity {sym.arity}, got {len(args)} arguments")
        size, top = 1, 0
        for a in args:
            size += a.size
            if a.max_var > top:
                top = a.max_var
        node = object.__new__(cls)
        _set_sym(node, sym)
        _set_args(node, args)
        _set_size(node, size)
        _set_max_var(node, top)
        sym._apps[args] = KeyedRef(node, sym._forget, args)
        return node

    def __reduce__(self):
        return App, (self.sym, self.args)

    def __repr__(self):
        return f"App(sym={self.sym!r}, args={self.args!r})"


_set_sym = App.sym.__set__
_set_args = App.args.__set__
_set_size = App.size.__set__
_set_max_var = App.max_var.__set__

Term = Union[Var, App]


class TermInContext(_Frozen):
    """A term together with the length of its variable context.

    Every variable index occurring in the term must lie in 1..context_len;
    the context may declare variables the term does not use.  Not interned:
    == compares the term by identity and the context length by value.
    """

    __slots__ = ("term", "context_len")

    def __init__(self, term: Term, context_len: int):
        if context_len < 0:
            raise ValueError("context length must be non-negative")
        if term.max_var > context_len:
            raise ValueError(
                f"term uses variables beyond its context of length {context_len}"
            )
        _set_term(self, term)
        _set_context_len(self, context_len)

    def __eq__(self, other):
        if other.__class__ is not TermInContext:
            return NotImplemented
        return self.term is other.term and self.context_len == other.context_len

    def __hash__(self):
        return hash((self.term, self.context_len))

    def __reduce__(self):
        return TermInContext, (self.term, self.context_len)

    def __repr__(self):
        return f"TermInContext(term={self.term!r}, context_len={self.context_len!r})"


_set_term = TermInContext.term.__set__
_set_context_len = TermInContext.context_len.__set__


def term_size(term: Term) -> int:
    """Number of nodes, variables included."""
    return term.size


def count_symbol(term: Term, sym: Symbol) -> int:
    """Number of occurrences of sym in the term."""
    if isinstance(term, Var):
        return 0
    here = 1 if term.sym == sym else 0
    return here + sum(count_symbol(a, sym) for a in term.args)


def subterm_at(term: Term, pos: Sequence[int]) -> Term:
    """The subterm at a position; raises ValueError on an invalid path."""
    cur = term
    for i in pos:
        if not isinstance(cur, App) or not 0 <= i < len(cur.args):
            raise ValueError(f"invalid position {tuple(pos)}")
        cur = cur.args[i]
    return cur


def replace_at(term: Term, pos: Sequence[int], replacement: Term) -> Term:
    """The term with the subterm at pos swapped for replacement.

    pos must be a position of term, as subterm_at checks.  The spine above
    pos is rebuilt iteratively, so depth is no limit.
    """
    spine = []
    for i in pos:
        spine.append(term)
        term = term.args[i]
    for node, i in zip(reversed(spine), reversed(pos)):
        args = node.args
        replacement = App(node.sym, args[:i] + (replacement,) + args[i + 1 :])
    return replacement


def _var_sequence(term: Term, out: list) -> None:
    if isinstance(term, Var):
        out.append(term.index)
        return
    for a in term.args:
        _var_sequence(a, out)


def var_occurrences(t: TermInContext) -> tuple[int, ...]:
    """Variable indices in left-to-right (in-order) traversal, with repeats."""
    out: list[int] = []
    _var_sequence(t.term, out)
    return tuple(out)


def is_linear_regular(t: TermInContext) -> bool:
    """True when every context variable occurs exactly once in the term."""
    occ = var_occurrences(t)
    return len(occ) == t.context_len and len(set(occ)) == t.context_len


@dataclass(frozen=True)
class Permutation:
    """A bijection on 1..n, stored as its image tuple."""

    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"{self.images} is not a permutation of 1..{n}")

    @property
    def size(self) -> int:
        return len(self.images)

    def apply(self, index: int) -> int:
        return self.images[index - 1]

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(tuple(images))

    @staticmethod
    def all_of(n: int) -> Iterator["Permutation"]:
        """All permutations of 1..n in lexicographic order of image tuples."""
        for images in itertools.permutations(range(1, n + 1)):
            yield Permutation(images)


def _graft(term: Term, args: Sequence[Term]) -> Term:
    if isinstance(term, Var):
        return args[term.index - 1]
    return App(term.sym, [_graft(a, args) for a in term.args])


def substitute_simple(t: TermInContext, sigma: Permutation) -> TermInContext:
    """Rename variables along a permutation of t's context.

    The result lives in the same context.  The tree shape is unchanged.
    """
    if sigma.size != t.context_len:
        raise ValueError(
            f"permutation of {sigma.size} does not match context {t.context_len}"
        )
    return TermInContext(_graft(t.term, [Var(i) for i in sigma.images]), t.context_len)


def substitute_terms(
    t: TermInContext,
    args: Sequence[TermInContext],
    context_len: Optional[int] = None,
) -> TermInContext:
    """Simultaneous substitution of terms for all context variables.

    args[i-1] replaces variable i; all replacement terms must share one
    codomain context.  For a closed t (context 0) the codomain length cannot
    be inferred from args, so pass context_len explicitly.
    """
    if len(args) != t.context_len:
        raise ValueError(f"expected {t.context_len} replacement terms, got {len(args)}")
    if args:
        k = args[0].context_len
        for a in args[1:]:
            if a.context_len != k:
                raise ValueError("replacement terms live in different contexts")
        if context_len is not None and context_len != k:
            raise ValueError("context_len disagrees with the replacement terms")
    else:
        k = context_len if context_len is not None else 0
    return TermInContext(_graft(t.term, [a.term for a in args]), k)


# ---- concrete syntax ----

_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([(),])|(\S))")


def _tokenize(text: str, line: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        col = m.start(m.lastindex) + 1
        if m.group(1) is not None:
            tokens.append(("ident", m.group(1), col))
        elif m.group(2) is not None:
            tokens.append(("punct", m.group(2), col))
        else:
            raise ParseError(f"unexpected character {m.group(3)!r}", line, col)
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _TermParser:
    def __init__(self, text: str, symbols: Mapping[str, Symbol], line: int):
        self.tokens = _tokenize(text, line)
        self.symbols = symbols
        self.line = line
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, col: int):
        raise ParseError(message, self.line, col)

    def term(self) -> Term:
        kind, value, col = self.next()
        if kind != "ident":
            self.fail(f"expected a term, got {value!r}" if value else "expected a term", col)
        if is_variable_name(value):
            k, v, c = self.peek()
            if k == "punct" and v == "(":
                self.fail("variables take no arguments", c)
            return Var(int(value[1:]))
        sym = self.symbols.get(value)
        if sym is None:
            self.fail(f"unknown symbol {value!r}", col)
        k, v, c = self.next()
        if not (k == "punct" and v == "("):
            self.fail(f"expected '(' after symbol {value!r} (nullary symbols are written {value}())", c)
        args: list[Term] = []
        k, v, c = self.peek()
        if k == "punct" and v == ")":
            self.next()
        else:
            while True:
                args.append(self.term())
                k, v, c = self.next()
                if k == "punct" and v == ")":
                    break
                if not (k == "punct" and v == ","):
                    self.fail("expected ',' or ')' in argument list", c)
        if len(args) != sym.arity:
            self.fail(f"{value} has arity {sym.arity}, got {len(args)} arguments", col)
        return App(sym, tuple(args))


def parse_term(text: str, symbols: Mapping[str, Symbol], *, line: int = 1) -> Term:
    """Parse one term from text; the whole string must be consumed."""
    p = _TermParser(text, symbols, line)
    t = p.term()
    kind, value, col = p.peek()
    if kind != "end":
        p.fail(f"unexpected trailing input {value!r}", col)
    return t


def render_term(term: Term) -> str:
    """Concrete syntax for a term; inverse to parse_term."""
    if isinstance(term, Var):
        return f"x{term.index}"
    return f"{term.sym.name}({','.join(render_term(a) for a in term.args)})"
