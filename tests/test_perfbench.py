"""The benchmark's own checks, run as tests.

perfbench/selftest.py shows that every output check rejects a planted wrong
answer; one short round each of the flabby, probe, closure and words_hat
workloads must then pass every check with no failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(script, *args):
    return subprocess.run(
        [sys.executable, str(PERFBENCH / script), *args],
        capture_output=True,
        text=True,
        cwd=PERFBENCH.parent,
    )


def test_selftest_rejects_planted_errors():
    proc = run("selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["flabby", "probe", "closure", "words_hat"])
def test_one_round_is_correct(workload):
    proc = run("run.py", "--workload", workload, "--seconds", "1", "--trace", "0", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
