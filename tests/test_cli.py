import json
import os
import subprocess
import sys

import pytest

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

    def test_eps_accepted(self, yes_wp):
        proc = run("word", yes_wp, "eps", "eps")
        assert proc.returncode == 0


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

    def test_unexpected_exception_exits_three(self, seed_thy, monkeypatch, capsys):
        from rigidlab import cli as cli_module

        def boom(**kwargs):
            raise RuntimeError("planted failure")

        monkeypatch.setattr(cli_module.cli.commands["prove"], "callback", boom)
        monkeypatch.setattr(sys, "argv", ["rigidlab", "prove", seed_thy, "[2] l(x1,x2) = r(x2,x1)"])
        with pytest.raises(SystemExit) as exit_info:
            cli_module.main()
        assert exit_info.value.code == 3
        assert "planted failure" in capsys.readouterr().err
