"""Command-line front end.

Every command prints one JSON result document to standard output and a short
human-readable log to standard error.  Exit codes: 0 for a definite positive
result, 1 for a definite negative (certified exhaustion, or a clean probe
whose target closures were all complete), 2 for an indeterminate result
(some bound was hit), 3 for usage or parse errors and for
inputs out of reach (a term nested too deeply) or any internal error, so an
exception never reads as a mathematical answer.
Every search command takes --slack, its one size bound, and --node-budget,
which defaults to one million expanded terms.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import click

from .interp import (
    load_interpretation,
    probe_conservativity,
    render_interpretation,
)
from .normalizer import WordOracle, hat, is_special
from .reduction import (
    compile_reduction,
    parse_wp,
    seed_interpretation,
    word_from_text,
    word_semidecide,
)
from .rewrite import (
    BOUNDS,
    DEFAULT_NODE_BUDGET,
    DEFAULT_SLACK,
    EXHAUSTED,
    FOUND,
    derivation_from_doc,
    prove_bounded,
    replay,
    symbol_census,
)
from .rigidity import search_flabby
from .terms import ParseError, TermInContext, parse_term, render_term
from .theory import Theory, load_theory, parse_equation, save_theory

__all__ = ["cli", "main"]

_node_budget = click.option(
    "--node-budget", type=click.IntRange(min=1), default=DEFAULT_NODE_BUDGET, show_default=True
)
_slack = click.option("--slack", type=click.IntRange(min=0), default=DEFAULT_SLACK, show_default=True)

# The exit code of a search status; "exhausted" always means a complete search.
_EXIT_CODE = {FOUND: 0, EXHAUSTED: 1, BOUNDS: 2}


def _emit(doc: dict, code: int, log: str) -> int:
    click.echo(log, err=True)
    click.echo(json.dumps(doc, indent=2))
    return code


def _load_wp(path: str):
    return parse_wp(Path(path).read_text(encoding="utf-8"))


def _load_derivation(path: str, th: Theory):
    return derivation_from_doc(json.loads(Path(path).read_text(encoding="utf-8")), th)


def _parse_term_arg(text: str, th: Theory) -> TermInContext:
    """A term argument, optionally prefixed with an explicit [n] context."""
    text = text.strip()
    ctx = None
    if text.startswith("["):
        close = text.find("]")
        if close < 0:
            raise ParseError("unclosed context prefix")
        try:
            ctx = int(text[1:close])
        except ValueError:
            raise ParseError(f"bad context length {text[1:close]!r}") from None
        text = text[close + 1 :].strip()
    term = parse_term(text, th.symbols_by_name())
    if ctx is None:
        ctx = term.max_var
    return TermInContext(term, ctx)


@click.group()
def cli():
    """Workbench for linear-regular equational theories."""


@cli.command("prove")
@click.argument("theory_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("equation")
@click.option("--depth", type=click.IntRange(min=0), default=8, show_default=True)
@_slack
@_node_budget
def cmd_prove(theory_file, equation, depth, slack, node_budget):
    """Bounded proof search for EQUATION ("[n] lhs = rhs") in THEORY_FILE."""
    th = load_theory(theory_file)
    goal = parse_equation(equation, th)
    outcome = prove_bounded(th, goal, depth, slack=slack, node_budget=node_budget)
    if outcome.found:
        note = f"found a {len(outcome.derivation.steps)}-step derivation"
    elif outcome.status == EXHAUSTED:
        note = "not provable (frontier exhausted, certified)"
    else:
        note = f"indeterminate ({outcome.status}, reason={outcome.reason})"
    log = f"prove: depth={depth} status={outcome.status}; {note}"
    return _emit(outcome.to_doc(), _EXIT_CODE[outcome.status], log)


@cli.command("replay")
@click.argument("theory_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("derivation_file", type=click.Path(exists=True, dir_okay=False))
def cmd_replay(theory_file, derivation_file):
    """Replay a derivation JSON document against THEORY_FILE."""
    th = load_theory(theory_file)
    d = _load_derivation(derivation_file, th)
    ok = replay(d, th)
    result = {"valid": ok, "steps": len(d.steps)}
    return _emit(result, 0 if ok else 1, f"replay: {'valid' if ok else 'INVALID'}")


@cli.command("reduce")
@click.argument("wp_file", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--out-dir",
    type=click.Path(file_okay=False),
    default=None,
    help="Directory for the generated files (default: alongside the input).",
)
def cmd_reduce(wp_file, out_dir):
    """Compile a word-problem file into theory and interpretation files."""
    inst = _load_wp(wp_file)
    stem = Path(wp_file).stem
    out = Path(out_dir) if out_dir else Path(wp_file).parent
    out.mkdir(parents=True, exist_ok=True)
    interp = seed_interpretation(inst)
    target, source = interp.target, interp.source
    target_path = out / f"{stem}.thy"
    source_path = out / f"{stem}_source.thy"
    itp_path = out / f"{stem}.itp"
    save_theory(target, target_path)
    save_theory(source, source_path)
    itp_path.write_text(
        render_interpretation(interp, source_path.name, target_path.name), encoding="utf-8"
    )
    doc = {
        "target": str(target_path),
        "source": str(source_path),
        "interpretation": str(itp_path),
        "target_axioms": len(target.axioms),
        "target_symbols": len(target.signature),
    }
    return _emit(doc, 0, f"reduce: wrote {target_path}, {source_path}, {itp_path}")


@cli.group("rigidity")
def rigidity():
    """Rigidity analyses."""


@rigidity.command("search")
@click.argument("theory_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--max-size", type=click.IntRange(min=1), default=7, show_default=True)
@click.option("--max-context", type=click.IntRange(min=0), default=4, show_default=True)
@click.option("--depth", type=click.IntRange(min=0), default=6, show_default=True)
@_slack
@_node_budget
def cmd_rigidity_search(theory_file, max_size, max_context, depth, slack, node_budget):
    """Search THEORY_FILE for a flabby term within the given bounds."""
    th = load_theory(theory_file)
    result = search_flabby(
        th,
        max_size=max_size,
        max_context=max_context,
        depth=depth,
        slack=slack,
        node_budget=node_budget,
    )
    if result.found:
        note = "flabby term found (theory is not rigid)"
    elif result.status == EXHAUSTED:
        note = "no flabby term (exhaustive at these bounds)"
    else:
        note = "no flabby term found, but some bound was hit"
    log = f"rigidity search: status={result.status}; {note}"
    return _emit(result.to_doc(), _EXIT_CODE[result.status], log)


@cli.command("hat")
@click.argument("wp_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("term")
@click.option("--oracle-depth", type=click.IntRange(min=0), default=8, show_default=True)
@_slack
@_node_budget
def cmd_hat(wp_file, term, oracle_depth, slack, node_budget):
    """Normalize TERM ("[n] term") over the theory compiled from WP_FILE."""
    inst = _load_wp(wp_file)
    th = compile_reduction(inst)
    t = _parse_term_arg(term, th)
    oracle = WordOracle(inst, depth=oracle_depth, slack=slack, node_budget=node_budget)
    result = hat(inst, t, oracle)
    tag = is_special(inst, result.term)
    doc = {
        "input": render_term(t.term),
        **result.to_doc(),
        "special": tag.special,
        "preimage": render_term(tag.preimage.term) if tag.preimage else None,
    }
    code = 0 if result.clean else 2
    note = "clean" if result.clean else f"{len(result.warnings)} oracle warning(s)"
    return _emit(doc, code, f"hat: {note}")


@cli.command("word")
@click.argument("wp_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("word1")
@click.argument("word2")
@click.option("--depth", type=click.IntRange(min=0), default=8, show_default=True)
@_slack
@_node_budget
def cmd_word(wp_file, word1, word2, depth, slack, node_budget):
    """Decide WORD1 = WORD2 (eps for the empty word) under WP_FILE's relations."""
    inst = _load_wp(wp_file)
    w1 = word_from_text(word1, inst.alphabet)
    w2 = word_from_text(word2, inst.alphabet)
    outcome = word_semidecide(inst, w1, w2, depth=depth, slack=slack, node_budget=node_budget)
    if outcome.found:
        note = f"derivable in {len(outcome.derivation.steps)} step(s)"
    elif outcome.status == EXHAUSTED:
        note = "not derivable (certified)"
    else:
        note = f"indeterminate ({outcome.status}, reason={outcome.reason})"
    return _emit(outcome.to_doc(), _EXIT_CODE[outcome.status], f"word: {note}")


@cli.command("conservativity")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--size-bound", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--depth", type=click.IntRange(min=0), default=6, show_default=True)
@click.option("--max-context", type=click.IntRange(min=0), default=None)
@_slack
@_node_budget
def cmd_conservativity(input_file, size_bound, depth, max_context, slack, node_budget):
    """Probe an interpretation (.itp file, or .wp file for the built-in one)
    for conservativity failures up to a source-term size bound."""
    path = Path(input_file)
    if path.suffix == ".wp":
        interp = seed_interpretation(_load_wp(input_file))
    else:
        interp = load_interpretation(path)
    report = probe_conservativity(
        interp,
        term_size_bound=size_bound,
        depth=depth,
        max_context=max_context,
        slack=slack,
        node_budget=node_budget,
    )
    if report.confirmed:
        code, note = 0, f"{len(report.confirmed)} confirmed failure(s): not conservative"
    elif report.candidates:
        code, note = 2, f"{len(report.candidates)} unconfirmed candidate(s)"
    elif not report.targets_complete:
        code, note = 2, "no failures found, but some target closure was cut short"
    else:
        code, note = 1, "no failures found at these bounds"
    return _emit(report.to_doc(), code, f"conservativity: {note}")


@cli.command("census")
@click.argument("theory_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("derivation_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("symbol")
def cmd_census(theory_file, derivation_file, symbol):
    """Count SYMBOL occurrences along a derivation JSON document."""
    th = load_theory(theory_file)
    d = _load_derivation(derivation_file, th)
    if not th.has_symbol(symbol):
        raise click.UsageError(f"theory declares no symbol named {symbol!r}")
    counts = symbol_census(d, th, symbol)
    result = {
        "symbol": symbol,
        "counts": counts,
        "constant": len(set(counts)) <= 1,
    }
    return _emit(result, 0, f"census: {symbol} counts {counts}")


def main() -> None:
    try:
        rv = cli.main(standalone_mode=False)
    except click.ClickException as e:
        e.show()
        sys.exit(3)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        sys.exit(3)
    except (ParseError, ValueError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(3)
    except RecursionError:
        click.echo("error: term too deep: its nesting exceeds the recursion limit", err=True)
        sys.exit(3)
    except Exception as e:
        traceback.print_exc()
        click.echo(f"internal error: {type(e).__name__}: {e}", err=True)
        sys.exit(3)
    sys.exit(rv if isinstance(rv, int) else 0)


if __name__ == "__main__":
    main()
