"""The runtime path needs numpy alone: every command runs with scipy blocked,
and every command but synth with numpy.random and numpy.ma blocked.

scipy stays a development dependency (a test oracle for the assignment
solver), so nothing under src/ may import it, not even lazily. numpy.random
loads secrets, hashlib and OpenSSL on first use; the ground fit draws from
the package's own stream instead, so only synth may import it. numpy.ma
takes some 1.7 MiB on import, and np.unique is one numpy call that loads
it. bench imports hashlib only to hash the source, after it reads the peak
memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from lidartrack.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# argv[1] is "blocked" or "open"; argv[2] a JSON list of module names;
# argv[3] a JSON list of argv lists for lidartrack's main. "blocked" makes
# importing a named module, or one under it, an ImportError. The last
# stdout line is a JSON object with the exit codes and every module under
# a named one that ended up imported.
RUNNER = """
import json, sys

NAMES = json.loads(sys.argv[2])

def named(module):
    return any(module == name or module.startswith(name + ".") for name in NAMES)

class Blocker:
    def find_spec(self, module, path=None, target=None):
        if named(module):
            raise ImportError(f"{module} is blocked")
        return None

if sys.argv[1] == "blocked":
    sys.meta_path.insert(0, Blocker())
import lidartrack.bench, lidartrack.config, lidartrack.evaluation, lidartrack.pipeline
import lidartrack.synth
from lidartrack.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[3])]
loaded = sorted(m for m in sys.modules if named(m))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def run(mode: str, names: list[str], commands: list[list[str]]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, mode, json.dumps(names), json.dumps(commands)],
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
    out = run("blocked", ["scipy"], commands)
    assert out == {"codes": [0] * len(commands), "loaded": []}

    unblocked = tmp_path / "unblocked.jsonl"
    assert main(["track", seq, "--output", str(unblocked)]) == 0
    capsys.readouterr()
    assert Path(serial).read_bytes() == unblocked.read_bytes()
    assert Path(threaded).read_bytes() == unblocked.read_bytes()


def test_every_command_but_synth_runs_with_numpy_random_blocked(tmp_path, capsys):
    blocked = ["numpy.random", "numpy.ma"]
    seq = str(tmp_path / "seq")
    assert main(["synth", seq, "--cars", "2", "--frames", "8"]) == 0
    capsys.readouterr()
    serial, threaded = str(tmp_path / "t1.jsonl"), str(tmp_path / "t2.jsonl")
    commands = [
        ["track", seq, "--output", serial],
        ["track", seq, "--workers", "2", "--output", threaded],
        ["eval", seq, serial],
        ["plot", seq, serial, "--max-frames", "2", "--output", str(tmp_path / "plots")],
        ["bench", seq, "--max-frames", "2"],
    ]
    out = run("blocked", blocked, commands)
    assert out == {"codes": [0] * len(commands), "loaded": []}

    # Unblocked, a track run still leaves both unloaded.
    unblocked = tmp_path / "unblocked.jsonl"
    out = run("open", blocked, [["track", seq, "--output", str(unblocked)]])
    assert out == {"codes": [0], "loaded": []}
    assert Path(serial).read_bytes() == unblocked.read_bytes()
    assert Path(threaded).read_bytes() == unblocked.read_bytes()


def test_importing_the_package_loads_no_scipy():
    out = run("open", ["scipy"], [["track", "--print-config"]])
    assert out == {"codes": [0], "loaded": []}


def test_importing_bench_loads_no_hashlib():
    # hashlib loads OpenSSL, which bench's peak_rss would count.
    out = run("open", ["hashlib"], [["track", "--print-config"]])
    assert out == {"codes": [0], "loaded": []}
