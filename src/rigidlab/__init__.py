"""Workbench for linear-regular equational theories.

Terms and theories, a bounded bidirectional rewrite engine with replayable
derivations, interpretations between theories with a conservativity probe,
compilation of monoid word problems into theories, a flabby-term search for
rigidity analysis, and a normalizer onto special terms.

The package root exports the names that the README and the command-line
front end use; everything else is imported from its submodule.
"""

from .terms import (
    App,
    ParseError,
    Symbol,
    TermInContext,
    Var,
    parse_term,
    render_term,
    term_size,
)
from .theory import (
    Theory,
    load_theory,
    parse_equation,
    save_theory,
)
from .rewrite import (
    BOUNDS,
    EXHAUSTED,
    FOUND,
    derivation_from_doc,
    prove_bounded,
    replay,
    symbol_census,
)
from .rigidity import search_flabby
from .interp import (
    load_interpretation,
    probe_conservativity,
    render_interpretation,
)
from .reduction import (
    compile_reduction,
    instance,
    parse_wp,
    seed_interpretation,
    seed_theory,
    word_bfs,
    word_semidecide,
)
from .normalizer import (
    WordOracle,
    check_hat_congruence,
    hat,
    is_special,
)

__version__ = "0.1.0"

__all__ = [
    "App",
    "BOUNDS",
    "EXHAUSTED",
    "FOUND",
    "ParseError",
    "Symbol",
    "TermInContext",
    "Theory",
    "Var",
    "WordOracle",
    "check_hat_congruence",
    "compile_reduction",
    "derivation_from_doc",
    "hat",
    "instance",
    "is_special",
    "load_interpretation",
    "load_theory",
    "parse_equation",
    "parse_term",
    "parse_wp",
    "probe_conservativity",
    "prove_bounded",
    "render_interpretation",
    "render_term",
    "replay",
    "save_theory",
    "search_flabby",
    "seed_interpretation",
    "seed_theory",
    "symbol_census",
    "term_size",
    "word_bfs",
    "word_semidecide",
]
