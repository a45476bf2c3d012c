"""The runtime path needs numpy alone: every command runs with scipy blocked.

scipy stays a development dependency (a test oracle for the assignment
solver), so nothing under src/ may import it, not even lazily.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from lidartrack.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# argv[1] is "blocked" or "open"; argv[2] a JSON list of argv lists for
# lidartrack's main. The last stdout line is a JSON object with the exit
# codes and every scipy module that ended up imported.
RUNNER = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

if sys.argv[1] == "blocked":
    sys.meta_path.insert(0, NoScipy())
import lidartrack.config, lidartrack.evaluation, lidartrack.pipeline, lidartrack.synth
from lidartrack.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2])]
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def run(mode: str, commands: list[list[str]]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, mode, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_command_runs_with_scipy_blocked(tmp_path, capsys):
    seq = str(tmp_path / "seq")
    serial, threaded = str(tmp_path / "t1.jsonl"), str(tmp_path / "t2.jsonl")
    commands = [
        ["synth", seq, "--cars", "2", "--frames", "8"],
        ["track", seq, "--output", serial],
        ["track", seq, "--workers", "2", "--output", threaded],
        ["eval", seq, serial],
        ["plot", seq, serial, "--max-frames", "2", "--output", str(tmp_path / "plots")],
        ["bench", seq, "--max-frames", "2"],
        ["track", "--print-config"],
    ]
    out = run("blocked", commands)
    assert out == {"codes": [0] * len(commands), "scipy": []}

    unblocked = tmp_path / "unblocked.jsonl"
    assert main(["track", seq, "--output", str(unblocked)]) == 0
    capsys.readouterr()
    assert Path(serial).read_bytes() == unblocked.read_bytes()
    assert Path(threaded).read_bytes() == unblocked.read_bytes()


def test_importing_the_package_loads_no_scipy():
    assert run("open", [["track", "--print-config"]]) == {"codes": [0], "scipy": []}
