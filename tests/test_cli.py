import json
import os
import subprocess
import sys

import pytest

from rigidlab.cli import main
from rigidlab.reduction import compile_reduction, parse_wp
from rigidlab.theory import load_theory

SEED_THY = """\
symbol l 2
symbol r 2
symbol m 2
axiom [2] l(x1,x2) = r(x2,x1)
"""

YES_WP = "alphabet a b\nrel ab = ba\ngoal ab = ba\n"
NO_WP = "alphabet a b\nrel ab = ba\ngoal a = b\n"
# a = aa makes every word class infinite, so no search on it completes.
IDEM_WP = "alphabet a b\nrel a = aa\ngoal a = b\n"


def run(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rigidlab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def out_doc(proc):
    return json.loads(proc.stdout)


def run_main(monkeypatch, capsys, *args):
    """The console script's main() on args in this process: its exit code,
    stdout and stderr."""
    monkeypatch.setattr(sys, "argv", ["rigidlab", *args])
    with pytest.raises(SystemExit) as exit_info:
        main()
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


@pytest.fixture
def seed_thy(tmp_path):
    p = tmp_path / "seed.thy"
    p.write_text(SEED_THY)
    return str(p)


@pytest.fixture
def yes_wp(tmp_path):
    p = tmp_path / "yes.wp"
    p.write_text(YES_WP)
    return str(p)


@pytest.fixture
def no_wp(tmp_path):
    p = tmp_path / "no.wp"
    p.write_text(NO_WP)
    return str(p)


@pytest.fixture
def idem_wp(tmp_path):
    p = tmp_path / "idem.wp"
    p.write_text(IDEM_WP)
    return str(p)


class TestProve:
    def test_provable_exits_zero(self, seed_thy):
        proc = run("prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)")
        assert proc.returncode == 0
        doc = out_doc(proc)
        assert doc["status"] == "found"
        assert len(doc["derivation"]["steps"]) == 1

    def test_refuted_exits_one(self, seed_thy):
        proc = run("prove", seed_thy, "[2] l(x1,x2) = r(x1,x2)")
        assert proc.returncode == 1
        assert out_doc(proc)["status"] == "exhausted"

    def test_bounds_exit_two(self, seed_thy, tmp_path):
        p = tmp_path / "loop.thy"
        p.write_text("symbol a 1\nsymbol b 1\naxiom [1] a(x1) = b(x1)\n")
        proc = run(
            "prove", str(p), "[1] a(a(x1)) = b(b(x1))",
            "--node-budget", "1",
        )
        assert proc.returncode == 2
        assert out_doc(proc)["status"] == "bounds"

    def test_malformed_equation_exits_three(self, seed_thy):
        proc = run("prove", seed_thy, "l(x1,x2) := r(x2,x1)")
        assert proc.returncode == 3

    def test_node_budget_env_var(self, seed_thy):
        # The node budget is set by --node-budget alone; the environment
        # variable that once duplicated it is gone.
        proc = run(
            "prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)", "--node-budget", "12345",
            env_extra={"RIGIDLAB_NODE_BUDGET": "lots"},
        )
        assert proc.returncode == 0
        assert out_doc(proc)["bounds"]["node_budget"] == 12345
        proc = run(
            "prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)",
            env_extra={"RIGIDLAB_NODE_BUDGET": "12345"},
        )
        assert out_doc(proc)["bounds"]["node_budget"] == 1_000_000

    def test_slack_sets_size_cap(self, seed_thy):
        # Both goal sides have size 3, so --slack 3 caps terms at size 6.
        proc = run("prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)", "--slack", "3")
        assert proc.returncode == 0
        assert out_doc(proc)["bounds"]["size_cap"] == 6


class TestReplay:
    def test_valid_and_tampered(self, seed_thy, tmp_path):
        proc = run("prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)")
        d = out_doc(proc)["derivation"]
        good = tmp_path / "good.json"
        good.write_text(json.dumps(d))
        assert run("replay", seed_thy, str(good)).returncode == 0

        d["end"] = d["start"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert run("replay", seed_thy, str(bad)).returncode == 1

    def test_short_substitution_exits_one(self, seed_thy, tmp_path):
        # The seed's axiom binds two variables; the step gives one term.
        d = out_doc(run("prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)"))["derivation"]
        d["steps"][0]["subst"] = d["steps"][0]["subst"][:1]
        dfile = tmp_path / "short.json"
        dfile.write_text(json.dumps(d))
        proc = run("replay", seed_thy, str(dfile))
        assert proc.returncode == 1
        assert out_doc(proc) == {"valid": False, "steps": 1}

    def test_proof_outcome_is_not_a_derivation(self, seed_thy, tmp_path):
        out = tmp_path / "out.json"
        out.write_text(run("prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)").stdout)
        proc = run("replay", seed_thy, str(out))
        assert proc.returncode == 3
        assert "not a derivation" in proc.stderr and "'context_len'" in proc.stderr
        assert "Traceback" not in proc.stderr


MALFORMED_DERIVATIONS = {
    "position_not_a_list": {
        "context_len": 2,
        "start": "l(x1,x2)",
        "end": "r(x2,x1)",
        "steps": [{"axiom": 0, "direction": "LR", "position": "0", "subst": ["x1", "x2"]}],
    },
    "context_len_null": {"context_len": None, "start": "l(x1,x2)", "end": "l(x1,x2)", "steps": []},
    "subst_not_terms": {
        "context_len": 2,
        "start": "l(x1,x2)",
        "end": "r(x2,x1)",
        "steps": [{"axiom": 0, "direction": "LR", "position": [], "subst": [1, 2]}],
    },
}


@pytest.mark.parametrize("command", ["replay", "census"])
@pytest.mark.parametrize("case", sorted(MALFORMED_DERIVATIONS))
def test_malformed_derivation_is_a_usage_error(command, case, seed_thy, tmp_path):
    dfile = tmp_path / "d.json"
    dfile.write_text(json.dumps(MALFORMED_DERIVATIONS[case]))
    extra = ["l"] if command == "census" else []
    proc = run(command, seed_thy, str(dfile), *extra)
    assert proc.returncode == 3
    assert "error: the document is not a derivation" in proc.stderr
    assert "Traceback" not in proc.stderr


class TestReduce:
    def test_writes_files_and_roundtrips(self, yes_wp, tmp_path):
        out = tmp_path / "build"
        proc = run("reduce", yes_wp, "--out-dir", str(out))
        assert proc.returncode == 0
        doc = out_doc(proc)
        assert doc["target_axioms"] == 2 and doc["target_symbols"] == 4

        written = load_theory(doc["target"])
        assert written == compile_reduction(parse_wp(YES_WP))
        assert (out / "yes_source.thy").exists()
        assert (out / "yes.itp").exists()

    def test_interpretation_file_loads(self, yes_wp, tmp_path):
        from rigidlab.interp import load_interpretation

        out = tmp_path / "build"
        doc = out_doc(run("reduce", yes_wp, "--out-dir", str(out)))
        i = load_interpretation(doc["interpretation"])
        assert i.target == compile_reduction(parse_wp(YES_WP))


class TestRigiditySearch:
    def test_witness_exits_zero(self, yes_wp, tmp_path):
        out = tmp_path / "build"
        doc = out_doc(run("reduce", yes_wp, "--out-dir", str(out)))
        proc = run(
            "rigidity", "search", doc["target"],
            "--max-size", "8", "--max-context", "3", "--depth", "6",
        )
        assert proc.returncode == 0
        report = out_doc(proc)
        assert report["status"] == "found"
        assert report["report"]["term"] == "m(a(b(alpha(x1))),x2)"

    def test_depth_one_witness_replays(self, yes_wp, tmp_path):
        # At depth 1 the witness joins two closure paths, and replays as a
        # derivation of two steps.
        out = tmp_path / "build"
        target = out_doc(run("reduce", yes_wp, "--out-dir", str(out)))["target"]
        proc = run(
            "rigidity", "search", target,
            "--max-size", "8", "--max-context", "3", "--depth", "1",
        )
        assert proc.returncode == 0
        report = out_doc(proc)
        assert report["status"] == "found"
        assert report["report"]["term"] == "m(a(b(alpha(x1))),x2)"
        assert report["report"]["permutation"] == [2, 1]
        derivation = report["report"]["derivation"]
        assert len(derivation["steps"]) == 2
        dfile = tmp_path / "witness.json"
        dfile.write_text(json.dumps(derivation))
        assert run("replay", target, str(dfile)).returncode == 0

    def test_rigid_fragment_exits_one(self, seed_thy):
        proc = run(
            "rigidity", "search", seed_thy,
            "--max-size", "5", "--max-context", "3", "--depth", "6",
        )
        assert proc.returncode == 1
        assert out_doc(proc)["status"] == "exhausted"

    def test_bounds_exit_two(self, idem_wp, tmp_path, monkeypatch, capsys):
        _, out, _ = run_main(monkeypatch, capsys, "reduce", idem_wp, "--out-dir", str(tmp_path / "build"))
        target = json.loads(out)["target"]
        code, out, err = run_main(
            monkeypatch, capsys, "rigidity", "search", target,
            "--max-size", "5", "--max-context", "2", "--depth", "2",
        )
        assert code == 2
        assert json.loads(out)["status"] == "bounds"
        assert "some bound was hit" in err


class TestHat:
    def test_normalizes(self, yes_wp):
        proc = run("hat", yes_wp, "m(b(a(alpha(x1))),x2)")
        assert proc.returncode == 0
        doc = out_doc(proc)
        assert doc["input"] == "m(b(a(alpha(x1))),x2)"
        assert doc["term"] == "m(a(b(alpha(x1))),x2)"
        assert doc["special"] is True
        assert doc["preimage"] == "l(x1,x2)"
        assert doc["warnings"] == []
        assert doc["decisions"]

    def test_context_prefix(self, yes_wp):
        proc = run("hat", yes_wp, "[3] m(b(a(alpha(x1))),x2)")
        assert proc.returncode == 0
        doc = out_doc(proc)
        assert doc["input"] == "m(b(a(alpha(x1))),x2)" and doc["context_len"] == 3

    @pytest.mark.parametrize(
        "term, message",
        [
            ("[1] m(b(a(alpha(x1))),x2)", "term uses variables beyond its context of length 1"),
            ("[2 m(x1,x2)", "unclosed context prefix"),
            ("[x] m(x1,x2)", "bad context length 'x'"),
            ("[-1] x1", "context length must be non-negative"),
        ],
    )
    def test_bad_context_prefix_exits_three(self, yes_wp, term, message):
        proc = run("hat", yes_wp, term)
        assert proc.returncode == 3
        assert message in proc.stderr

    def test_uncertain_exits_two(self, tmp_path):
        p = tmp_path / "hard.wp"
        p.write_text("alphabet a b\nrel ab = ba\nrel a = aa\ngoal a = b\n")
        proc = run("hat", str(p), "m(b(alpha(x1)),x2)", "--oracle-depth", "3")
        assert proc.returncode == 2
        assert out_doc(proc)["warnings"]


class TestWord:
    def test_capped_side_does_not_stop_the_search(self, tmp_path):
        # The side of "a" empties only because the size cap pruned it; the
        # side of the empty word must still be expanded to certify.
        p = tmp_path / "idem.wp"
        p.write_text("alphabet a\nrel a = aa\ngoal a = aa\n")
        proc = run("word", str(p), "a", "eps", "--depth", "10")
        assert proc.returncode == 1
        assert out_doc(proc)["certified"] is True

    def test_equal_words_exit_zero(self, yes_wp):
        proc = run("word", yes_wp, "ab", "ba")
        assert proc.returncode == 0
        doc = out_doc(proc)
        assert doc["status"] == "found"
        assert len(doc["derivation"]["steps"]) == 1

    def test_distinct_words_exit_one(self, no_wp):
        proc = run("word", no_wp, "a", "b")
        assert proc.returncode == 1
        assert out_doc(proc)["certified"] is True

    def test_slack_sets_length_cap(self, yes_wp):
        proc = run("word", yes_wp, "ab", "ba", "--slack", "2")
        assert proc.returncode == 0
        assert out_doc(proc)["bounds"]["length_cap"] == 4

    def test_eps_accepted(self, yes_wp):
        proc = run("word", yes_wp, "eps", "eps")
        assert proc.returncode == 0

    def test_indeterminate_exits_two(self, idem_wp, monkeypatch, capsys):
        code, out, err = run_main(monkeypatch, capsys, "word", idem_wp, "a", "b", "--depth", "2")
        assert code == 2
        doc = json.loads(out)
        assert (doc["status"], doc["reason"], doc["certified"]) == ("bounds", "depth", False)
        assert "indeterminate" in err

    def test_empty_word_argument_exits_three(self, yes_wp):
        proc = run("word", yes_wp, "ab", "")
        assert proc.returncode == 3
        assert "eps" in proc.stderr and proc.stdout == ""


class TestConservativity:
    def test_yes_instance_confirmed(self, yes_wp):
        proc = run("conservativity", yes_wp, "--size-bound", "3", "--depth", "6")
        assert proc.returncode == 0
        doc = out_doc(proc)
        assert doc["confirmed"]

    def test_no_instance_clean(self, no_wp):
        proc = run("conservativity", no_wp, "--size-bound", "4", "--depth", "6")
        assert proc.returncode == 1
        doc = out_doc(proc)
        assert doc["confirmed"] == [] and doc["candidates"] == []
        assert doc["targets_complete"] is True

    def test_clean_probe_with_cut_target_closures_exits_two(self, no_wp):
        proc = run("conservativity", no_wp, "--size-bound", "4", "--depth", "1")
        assert proc.returncode == 2
        doc = out_doc(proc)
        assert doc["confirmed"] == [] and doc["candidates"] == []
        assert doc["targets_complete"] is False

    def test_candidates_only_exit_two(self, yes_wp, monkeypatch, capsys):
        # At depth 1 the one failure found has a source closure cut short,
        # so it stays an unconfirmed candidate.
        code, out, err = run_main(monkeypatch, capsys, "conservativity", yes_wp, "--size-bound", "3", "--depth", "1")
        assert code == 2
        doc = json.loads(out)
        assert (len(doc["confirmed"]), len(doc["candidates"])) == (0, 1)
        assert "1 unconfirmed candidate(s)" in err

    def test_resolved_finding_replays(self, yes_wp, tmp_path):
        # A finding lists its steps as indices into the document's step
        # table; resolved, it is a derivation document that replay accepts
        # in the theory reduce writes.
        reduced = out_doc(run("reduce", yes_wp, "--out-dir", str(tmp_path / "build")))
        doc = out_doc(run("conservativity", yes_wp, "--size-bound", "3", "--depth", "6"))
        d = doc["confirmed"][0]["target_derivation"]
        assert all(isinstance(i, int) for i in d["steps"])
        d = {**d, "steps": [doc["steps"][i] for i in d["steps"]]}
        dfile = tmp_path / "finding.json"
        dfile.write_text(json.dumps(d))
        proc = run("replay", reduced["target"], str(dfile))
        assert proc.returncode == 0, proc.stderr

    def test_itp_input(self, yes_wp, tmp_path):
        out = tmp_path / "build"
        doc = out_doc(run("reduce", yes_wp, "--out-dir", str(out)))
        proc = run(
            "conservativity", doc["interpretation"],
            "--size-bound", "3", "--depth", "6",
        )
        assert proc.returncode == 0


class TestCensus:
    def test_constant_symbol(self, yes_wp, tmp_path):
        out = tmp_path / "build"
        doc = out_doc(run("reduce", yes_wp, "--out-dir", str(out)))
        proc = run(
            "word", yes_wp, "ab", "ba",
        )
        word_doc = out_doc(proc)

        # Build a term-level derivation for the same fact and census it.
        prove = run(
            "prove", doc["target"], "[1] a(b(x1)) = b(a(x1))",
        )
        d = out_doc(prove)["derivation"]
        dfile = tmp_path / "d.json"
        dfile.write_text(json.dumps(d))
        census = run("census", doc["target"], str(dfile), "alpha")
        assert census.returncode == 0
        cdoc = out_doc(census)
        assert cdoc["constant"] is True
        assert cdoc["counts"] == [0, 0]
        assert word_doc["status"] == "found"

    def test_unknown_symbol_exits_three(self, yes_wp, tmp_path):
        out = tmp_path / "build"
        doc = out_doc(run("reduce", yes_wp, "--out-dir", str(out)))
        prove = run("prove", doc["target"], "[1] a(b(x1)) = b(a(x1))")
        dfile = tmp_path / "d.json"
        dfile.write_text(json.dumps(out_doc(prove)["derivation"]))
        assert run("census", doc["target"], str(dfile), "zz").returncode == 3

    def test_proof_outcome_is_not_a_derivation(self, seed_thy, tmp_path):
        out = tmp_path / "out.json"
        out.write_text(run("prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)").stdout)
        proc = run("census", seed_thy, str(out), "l")
        assert proc.returncode == 3
        assert "not a derivation" in proc.stderr and "'context_len'" in proc.stderr
        assert "Traceback" not in proc.stderr


# A locale whose preferred encoding is ASCII: a reader that falls back on
# the locale's encoding cannot decode a non-ASCII byte.
C_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


class TestUtf8Files:
    """.thy, .itp and .wp files are read as UTF-8 whatever the locale."""

    def test_thy_under_c_locale(self, tmp_path):
        p = tmp_path / "seed.thy"
        p.write_text("# café\n" + SEED_THY, encoding="utf-8")
        proc = run("prove", str(p), "[2] l(x1,x2) = r(x2,x1)", env_extra=C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert out_doc(proc)["status"] == "found"

    def test_itp_under_c_locale(self, yes_wp, tmp_path):
        doc = out_doc(run("reduce", yes_wp, "--out-dir", str(tmp_path / "build")))
        itp = tmp_path / "build" / "yes.itp"
        itp.write_text("# café\n" + itp.read_text(encoding="utf-8"), encoding="utf-8")
        assert doc["interpretation"] == str(itp)
        proc = run("conservativity", str(itp), "--size-bound", "3", "--depth", "6", env_extra=C_LOCALE)
        assert proc.returncode == 0, proc.stderr

    def test_wp_under_c_locale(self, tmp_path):
        p = tmp_path / "yes.wp"
        p.write_text("# café\n" + YES_WP, encoding="utf-8")
        proc = run("word", str(p), "ab", "ba", env_extra=C_LOCALE)
        assert proc.returncode == 0, proc.stderr


class TestUsageErrors:
    def test_unknown_command(self):
        assert run("frobnicate").returncode == 3

    def test_missing_file(self):
        assert run("prove", "/nonexistent.thy", "[1] x1 = x1").returncode == 3

    def test_malformed_wp(self, tmp_path):
        p = tmp_path / "bad.wp"
        p.write_text("goal a = b\n")
        assert run("word", str(p), "a", "b").returncode == 3

    def test_jobs_option_rejected(self, seed_thy):
        proc = run("prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)", "--jobs", "4")
        assert proc.returncode == 3
        assert "--jobs" in proc.stderr

    @pytest.mark.parametrize(
        "command, option",
        [("prove", "--size-cap"), ("word", "--length-cap"), ("hat", "--length-cap")],
    )
    def test_absolute_cap_option_rejected(self, seed_thy, yes_wp, command, option):
        # --slack is each search's one size bound; no absolute cap repeats it.
        args = {
            "prove": (seed_thy, "[2] l(x1,x2) = r(x2,x1)"),
            "word": (yes_wp, "ab", "ba"),
            "hat": (yes_wp, "m(b(a(alpha(x1))),x2)"),
        }[command]
        proc = run(command, *args, option, "6")
        assert proc.returncode == 3
        assert option in proc.stderr

    def test_stdout_is_json_stderr_is_log(self, seed_thy):
        proc = run("prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)")
        json.loads(proc.stdout)
        assert proc.stderr.strip()


class TestInternalErrors:
    def test_deep_term_exits_three(self, tmp_path):
        p = tmp_path / "unary.thy"
        p.write_text("symbol u 1\naxiom [1] u(x1) = x1\n")
        deep = "u(" * 1200 + "x1" + ")" * 1200
        proc = run("prove", str(p), f"[1] {deep} = x1")
        assert proc.returncode == 3
        assert "too deep" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["prove", "hat"])
    def test_3000_deep_term_exits_three(self, command, yes_wp, tmp_path, monkeypatch, capsys):
        # Nesting past the recursion limit ends in the documented message,
        # not in a traceback.
        if command == "prove":
            p = tmp_path / "unary.thy"
            p.write_text("symbol f 1\naxiom [1] f(x1) = x1\n")
            args = (str(p), "[1] " + "f(" * 3000 + "x1" + ")" * 3000 + " = x1")
        else:
            args = (yes_wp, "[1] " + "a(" * 3000 + "alpha(x1)" + ")" * 3000)
        code, out, err = run_main(monkeypatch, capsys, command, *args)
        assert code == 3
        assert err.startswith("error: term too deep")
        assert "Traceback" not in err and out == ""

    def test_unexpected_exception_exits_three(self, seed_thy, monkeypatch, capsys):
        from rigidlab import cli as cli_module

        def boom(**kwargs):
            raise RuntimeError("planted failure")

        monkeypatch.setattr(cli_module.cli.commands["prove"], "callback", boom)
        code, _, err = run_main(monkeypatch, capsys, "prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)")
        assert code == 3
        assert "planted failure" in err
