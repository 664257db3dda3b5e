"""The README's Library example and CLI block run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src"


def _fence(section, lang=""):
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = _fence(text.split("## Library", 1)[1], "python")[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("found ")


def test_cli_block_runs(tmp_path):
    text = README.read_text(encoding="utf-8")
    formats = text.split("## File formats", 1)[1]
    seed_thy, demo_wp = _fence(formats)[:2]
    (tmp_path / "seed.thy").write_text(seed_thy, encoding="utf-8")
    (tmp_path / "demo.wp").write_text(demo_wp, encoding="utf-8")
    block = _fence(text.split("## CLI", 1)[1], "sh")[0]
    joined = block.replace("\\\n", "").splitlines()
    lines = [line for line in joined if line and not line.startswith("#")]
    python = shlex.quote(sys.executable)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    codes = []
    for line in lines:
        command = re.sub(r"(^|\| )rigidlab ", rf"\1{python} -m rigidlab.cli ", line)
        command = re.sub(r"(^|\| )python3 ", rf"\1{python} ", command)
        proc = subprocess.run(
            ["bash", "-o", "pipefail", "-c", command],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        codes.append(proc.returncode)
    # Every command of the example is a definite positive, exit 0 in the
    # README's table: a proof, a valid replay, a witness, a confirmed failure.
    assert codes == [0] * len(lines), list(zip(lines, codes))
    census = json.loads(proc.stdout)
    assert census["symbol"] == "alpha" and census["counts"] == [1, 1, 1]
