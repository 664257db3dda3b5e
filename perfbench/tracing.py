"""The traced run: spans around calls into rigidlab's public functions.

The benchmark wraps the functions below wherever a module of the package
(or the workloads module) holds a reference to them, since `from .rewrite
import bounded_closure` gives every importing module a name of its own.  A
span holds a name, a start, an end and its parent; spans stay in memory and
are written out when the run ends.  Counts come from the results the
program returns.  The kernel's own calls (App, Var, hash, ==) are not
wrapped: the `terms` numbers come from timing them over a sample of terms
the workload produced, after the traced rounds.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from statistics import median
from time import perf_counter, perf_counter_ns

SPANNED = [
    ("rigidlab.rewrite", "bounded_closure"),
    ("rigidlab.rewrite", "prove_bounded"),
    ("rigidlab.rewrite", "replay"),
    ("rigidlab.rigidity", "verify_report"),
    ("rigidlab.rigidity", "search_flabby"),
    ("rigidlab.interp", "extend"),
    ("rigidlab.interp", "probe_conservativity"),
    ("rigidlab.reduction", "word_bfs"),
    ("rigidlab.reduction", "word_semidecide"),
    ("rigidlab.reduction", "compile_reduction"),
    ("rigidlab.normalizer", "hat"),
    ("rigidlab.normalizer", "is_special"),
    ("workloads", "render"),
]
GENERATORS = [("rigidlab.rigidity", "enumerate_linear_regular")]
SAMPLE = 2000  # terms kept for the kernel timings
ENTRIES_PER_CLOSURE = 8  # plus one in a hundred of a large closure's entries
REPEATS = 5
NODES_PER_PASS = 200_000  # the sample is walked as often as it takes to cover this

PER_LAYER = {
    "terms.build_ns_per_node": "ns",
    "terms.hash_ns_per_node": "ns",
    "terms.eq_ns_per_node": "ns",
    "terms.size_ns_per_node": "ns",
    "rewrite.closure_s": "s",
    "rewrite.closure_calls": "count",
    "rewrite.prove_s": "s",
    "rewrite.prove_calls": "count",
    "rewrite.expanded": "count",
    "rewrite.expansions_per_s": "1/s",
    "rewrite.visited": "count",
    "rewrite.max_visited": "count",
    "rewrite.replay_s": "s",
    "rigidity.enumerate_s": "s",
    "rigidity.terms_enumerated": "count",
    "rigidity.perm_images": "count",
    "rigidity.search_self_s": "s",
    "interp.extend_s": "s",
    "interp.extend_calls": "count",
    "interp.probe_self_s": "s",
    "interp.pairs_per_s": "1/s",
    "reduction.word_bfs_s": "s",
    "reduction.word_bfs_expanded": "count",
    "reduction.compile_s": "s",
    "reduction.compile_calls": "count",
    "reduction.semidecide_self_s": "s",
    "normalizer.hat_s": "s",
    "normalizer.hat_calls": "count",
    "normalizer.is_special_s": "s",
    "normalizer.oracle_queries": "count",
    "normalizer.oracle_searches": "count",
    "normalizer.oracle_hit_ratio": "ratio",
    "cli.render_s": "s",
    "cli.doc_bytes": "bytes",
    "trace.spans": "count",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self, rng):
        self.rng = rng
        self.spans: list = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.in_search = 0
        self.sample: list = []
        self.offered = 0
        self.active = False
        self._restore: list = []

    # ---- installing and removing the wrappers ----

    def install(self) -> None:
        for module, attr in SPANNED:
            orig = getattr(sys.modules[module], attr)
            self._replace(orig, self._spanned(attr, orig, OBSERVERS.get(attr)))
        for module, attr in GENERATORS:
            orig = getattr(sys.modules[module], attr)
            self._replace(orig, self._generator(attr, orig))
        terms = sys.modules["rigidlab.terms"]
        self._replace(terms.substitute_simple, self._counted(terms.substitute_simple))
        oracle = sys.modules["rigidlab.normalizer"].WordOracle
        equiv = oracle.equiv
        self._restore.append((oracle, "equiv", equiv))
        oracle.equiv = self._equiv(equiv)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _replace(self, orig, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "workloads" or name.split(".")[0] == "rigidlab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._restore.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    # ---- wrappers ----

    def _open(self, name):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _close(self, rec) -> None:
        rec[2] = perf_counter_ns()
        self.stack.pop()

    def _spanned(self, name, fn, observe):
        tracer = self
        searching = name == "search_flabby"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.in_search += searching
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                tracer.in_search -= searching
            if observe is not None:
                observe(tracer, result)
            return result

        return wrapper

    def _generator(self, name, fn):
        tracer = self

        def timed(it):
            while True:
                rec = tracer._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(rec)
                tracer.counts[name] += 1
                yield item

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            return timed(it) if tracer.active else it

        return wrapper

    def _counted(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active and tracer.in_search:
                tracer.counts["perm_images"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _equiv(self, fn):
        tracer = self

        def equiv(oracle, w1, w2):
            if not tracer.active:
                return fn(oracle, w1, w2)
            before = oracle.searches
            rec = tracer._open("equiv")
            try:
                return fn(oracle, w1, w2)
            finally:
                tracer._close(rec)
                tracer.counts["oracle_queries"] += 1
                tracer.counts["oracle_searches"] += oracle.searches - before

        return equiv

    # ---- the term sample, a reservoir over terms the workload produced ----

    def offer(self, t) -> None:
        self.offered += 1
        if len(self.sample) < SAMPLE:
            self.sample.append(t)
        else:
            k = self.rng.randrange(self.offered)
            if k < SAMPLE:
                self.sample[k] = t

    # ---- the numbers ----

    def metrics(self) -> dict:
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        children = [0] * len(spans)
        for k, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                children[parent] += dur[k]

        def inclusive(*names) -> float:
            """Seconds inside spans of these names, nested ones counted once."""
            total = 0
            for k, (name, _, _, parent) in enumerate(spans):
                if name not in names:
                    continue
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    total += dur[k]
            return total / 1e9

        def self_time(name) -> float:
            return sum(dur[k] - children[k] for k, s in enumerate(spans) if s[0] == name) / 1e9

        def calls(name) -> int:
            return sum(1 for s in spans if s[0] == name)

        c = self.counts
        search_s = inclusive("bounded_closure", "prove_bounded")
        probe_s = inclusive("probe_conservativity")
        return {
            "rewrite.closure_s": inclusive("bounded_closure"),
            "rewrite.closure_calls": calls("bounded_closure"),
            "rewrite.prove_s": inclusive("prove_bounded"),
            "rewrite.prove_calls": calls("prove_bounded"),
            "rewrite.expanded": c["expanded"],
            "rewrite.expansions_per_s": c["expanded"] / search_s if search_s else 0.0,
            "rewrite.visited": c["visited"],
            "rewrite.max_visited": c["max_visited"],
            "rewrite.replay_s": inclusive("replay", "verify_report"),
            "rigidity.enumerate_s": inclusive("enumerate_linear_regular"),
            "rigidity.terms_enumerated": c["enumerate_linear_regular"],
            "rigidity.perm_images": c["perm_images"],
            "rigidity.search_self_s": self_time("search_flabby"),
            "interp.extend_s": inclusive("extend"),
            "interp.extend_calls": calls("extend"),
            "interp.probe_self_s": self_time("probe_conservativity"),
            "interp.pairs_per_s": c["pairs_checked"] / probe_s if probe_s else 0.0,
            "reduction.word_bfs_s": inclusive("word_bfs"),
            "reduction.word_bfs_expanded": c["word_bfs_expanded"],
            "reduction.compile_s": inclusive("compile_reduction"),
            "reduction.compile_calls": calls("compile_reduction"),
            "reduction.semidecide_self_s": self_time("word_semidecide"),
            "normalizer.hat_s": inclusive("hat"),
            "normalizer.hat_calls": calls("hat"),
            "normalizer.is_special_s": inclusive("is_special"),
            "normalizer.oracle_queries": c["oracle_queries"],
            "normalizer.oracle_searches": c["oracle_searches"],
            "normalizer.oracle_hit_ratio": (
                (c["oracle_queries"] - c["oracle_searches"]) / c["oracle_queries"] if c["oracle_queries"] else 0.0
            ),
            "cli.render_s": inclusive("render"),
            "cli.doc_bytes": c["doc_bytes"],
            "trace.spans": len(spans),
        }


# ---- what each wrapped call's result adds to the counts and the sample ----

def _closure(tr: Tracer, cl) -> None:
    tr.counts["expanded"] += cl.expanded
    tr.counts["visited"] += len(cl.entries)
    tr.counts["max_visited"] = max(tr.counts["max_visited"], len(cl.entries))
    entries = list(cl.entries)
    for t in tr.rng.sample(entries, min(ENTRIES_PER_CLOSURE + len(entries) // 100, len(entries))):
        tr.offer(t)


def _proof(tr: Tracer, out) -> None:
    st = out.stats
    tr.counts["expanded"] += st.expanded
    tr.counts["visited"] += st.visited_left + st.visited_right
    tr.counts["max_visited"] = max(tr.counts["max_visited"], st.visited_left, st.visited_right)
    if out.derivation is not None:
        tr.offer(out.derivation.start)
        tr.offer(out.derivation.end)


def _probe(tr: Tracer, rep) -> None:
    tr.counts["pairs_checked"] += rep.pairs_checked


def _word_bfs(tr: Tracer, out) -> None:
    tr.counts["word_bfs_expanded"] += out.expanded


def _term(tr: Tracer, t) -> None:
    tr.offer(t)


def _hat(tr: Tracer, res) -> None:
    tr.offer(res.term)


def _render(tr: Tracer, nbytes) -> None:
    tr.counts["doc_bytes"] += nbytes


OBSERVERS = {
    "bounded_closure": _closure,
    "prove_bounded": _proof,
    "probe_conservativity": _probe,
    "word_bfs": _word_bfs,
    "extend": _term,
    "hat": _hat,
    "render": _render,
}


# ---- the kernel, timed over the sampled terms ----

def kernel_metrics(sample: list) -> dict:
    """Nanoseconds per node to build, hash, compare and measure the sampled
    terms; the median of REPEATS passes, each covering NODES_PER_PASS nodes."""
    terms = sys.modules["rigidlab.terms"]
    App, Var, TermInContext, term_size = terms.App, terms.Var, terms.TermInContext, terms.term_size

    def rebuild(term):
        if isinstance(term, Var):
            return Var(term.index)
        return App(term.sym, tuple(rebuild(a) for a in term.args))

    def build():
        for t in sample:
            TermInContext(rebuild(t.term), t.context_len)

    copies = [TermInContext(rebuild(t.term), t.context_len) for t in sample]

    def hashes():
        for t in sample:
            hash(t)

    def equal():
        for t, c in zip(sample, copies):
            if not t == c:
                raise AssertionError("a rebuilt term differs from its original")

    def sizes():
        for t in sample:
            term_size(t.term)

    nodes = sum(term_size(t.term) for t in sample)
    laps = -(-NODES_PER_PASS // nodes)
    out = {}
    for name, fn in (("build", build), ("hash", hashes), ("eq", equal), ("size", sizes)):
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            for _ in range(laps):
                fn()
            times.append(perf_counter() - t0)
        out[f"terms.{name}_ns_per_node"] = median(times) * 1e9 / (nodes * laps)
    return out


def write_spans(path, rounds: list) -> None:
    """Spans of every traced round as [name index, start ns, end ns, parent]."""
    names: dict = {}
    doc = {"names": [], "rounds": []}
    for spans in rounds:
        rows = []
        for name, start, end, parent in spans:
            if name not in names:
                names[name] = len(names)
                doc["names"].append(name)
            rows.append([names[name], start, end, parent])
        doc["rounds"].append(rows)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
