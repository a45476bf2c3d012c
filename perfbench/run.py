"""lidartrack benchmark: synthetic workloads through the public tracking path.

    python3 perfbench/run.py --workload golden --seed 0 --seconds 30 --trace 0

Run from the root of a lidartrack checkout; the package is imported from the
checkout's src/ exactly as it is (no extension is built or forced), and the
kernel backend in use is recorded. Each step runs in a fresh interpreter
(child.py):

1. set-up, SETUP_REPEATS times: import lidartrack, generate the workload's
   sequence from --seed with lidartrack.synth and write it (`setup_s` is the
   median);
2. tracking runs until --seconds is used up (at least MIN_RUNS):
   load_sequence -> run_tracking -> write_tracks, then the tracks file is
   scored against gt.jsonl.

With --trace 0 every run is untraced and the end-to-end metrics are
printed. With --trace 1 untraced and traced runs alternate and the
per-layer metrics (tracer.py) are printed, with `trace.overhead_ratio`
comparing the two.

A run fails if it raises, if its tracks.jsonl differs from the first
untraced run's (sha256), or if it breaks the workload's quality floor.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; lines before it carry run metadata and the tracks
digest (information only: an accepted output change is not blocked by it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench"
SETUP_REPEATS = 3
MIN_RUNS = 2
# A whole invocation must finish within 180 s; leave room for set-up
# overruns and interpreter start-up.
RUN_LIMIT_S = 165.0

# name -> unit; BENCHMARK.json lists the same names under end_to_end.
END_TO_END = {
    "track_s": "s",
    "mota": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
OVERHEAD = "trace.overhead_ratio"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class StepFailed(Exception):
    """A child step raised, timed out or printed no result."""


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "lidartrack" / "__init__.py").is_file():
        raise BenchError(
            f"no lidartrack sources at {root / 'src' / 'lidartrack'}; "
            "run from the root of a lidartrack checkout"
        )
    return root


def run_step(root: Path, args: list[str], timeout: float) -> dict:
    """Run child.py in a fresh interpreter that imports the checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{args[0]} timed out after {timeout:.0f} s") from None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise StepFailed(f"{args[0]} exited {proc.returncode}: {tail[0]}")
    out = json.loads(lines[-1])
    src = root / "src"
    if not Path(out["module"]).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"lidartrack was imported from {out['module']}, not from {src}")
    return out


def check_run(run: dict, reference_digest: str | None, floor: dict | None) -> str | None:
    """Why a completed tracking run counts as failed, or None."""
    if reference_digest is not None and run["digest"] != reference_digest:
        kind = "traced" if run.get("traced") else "untraced"
        return f"{kind} tracks.jsonl sha256 {run['digest'][:12]} != {reference_digest[:12]}"
    if floor is not None:
        if run["mota"] < floor["min_mota"]:
            return f"mota {run['mota']:.4f} below the floor {floor['min_mota']}"
        if run["id_switches"] > floor["max_id_switches"]:
            return f"{run['id_switches']} id switches above the floor {floor['max_id_switches']}"
    return None


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _median_metrics(per_run: list[dict]) -> tuple[dict, set]:
    """Median of each metric present in every run; the rest are missing."""
    names = set().union(*per_run)
    present = [n for n in names if all(n in m for m in per_run)]
    out = {
        n: {
            "value": statistics.median(m[n]["value"] for m in per_run),
            "unit": per_run[0][n]["unit"],
        }
        for n in sorted(present)
    }
    return out, names - set(present)


def run_workload(root: Path, name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    base = root / WORK_DIR
    work = base / f"{name}-{seed}-{os.getpid()}"
    seq_dir = work / "seq"
    spec_json = json.dumps(spec)
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(seq_dir, ignore_errors=True)
            left = started + RUN_LIMIT_S - time.monotonic()
            try:
                setups.append(run_step(root, ["setup", spec_json, str(seed), str(seq_dir)], left))
            except StepFailed as exc:
                raise BenchError(f"set-up failed: {exc}") from None

        runs, failures = [], []
        measure_start = time.monotonic()
        longest = 0.0
        while True:
            i = len(runs)
            traced = trace and i % 2 == 1
            args = ["track", spec_json, str(seq_dir), str(work / f"tracks-{i}.jsonl")]
            if traced:
                args.append(str(base / f"trace-{name}-{seed}.json"))
            t0 = time.monotonic()
            left = started + RUN_LIMIT_S - t0
            try:
                run = run_step(root, args, left)
                run["traced"] = traced
            except StepFailed as exc:
                run = {"traced": traced, "error": str(exc)}
            runs.append(run)
            now = time.monotonic()
            longest = max(longest, now - t0)
            if now + longest > started + RUN_LIMIT_S:
                break
            if len(runs) >= MIN_RUNS and now + longest > measure_start + seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [r for r in runs if "error" not in r]
    if not done:
        raise BenchError(f"every tracking run failed: {runs[0]['error']}")
    reference = next((r["digest"] for r in done if not r["traced"]), None)
    for i, run in enumerate(runs):
        why = run.get("error") or check_run(run, reference, spec["floor"])
        if why is not None:
            failures.append(f"run {i}: {why}")
    return {
        "setups": setups,
        "runs": done,
        "attempted": len(runs),
        "failures": failures,
        "reference_digest": reference,
    }


def end_to_end_metrics(res: dict) -> dict:
    untraced = [r for r in res["runs"] if not r["traced"]]
    ok = 1.0 - len(res["failures"]) / res["attempted"]
    values = {
        "track_s": statistics.median(r["track_s"] for r in untraced),
        "mota": statistics.median(r["mota"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "setup_s": statistics.median(s["setup_s"] for s in res["setups"]),
        "ok_frac": ok,
    }
    return {n: {"value": values[n], "unit": END_TO_END[n]} for n in END_TO_END}


def layer_metrics(res: dict) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced runs) and missing ones by reason."""
    traced = [r for r in res["runs"] if r["traced"]]
    untraced = [r for r in res["runs"] if not r["traced"]]
    if not traced:
        return {}, {OVERHEAD: "no traced run completed"}
    metrics, partial = _median_metrics([r["layers"] for r in traced])
    missing = {}
    for r in traced:
        missing.update(r["missing"])
    for n in partial:
        missing.setdefault(n, "missing in some traced runs")
    if untraced:
        ratio = statistics.median(r["track_s"] for r in traced) / statistics.median(
            r["track_s"] for r in untraced
        )
        metrics[OVERHEAD] = {"value": ratio - 1.0, "unit": "ratio"}
    else:
        missing[OVERHEAD] = "no untraced run completed"
    return metrics, missing


def metadata(root: Path, name: str, spec: dict, seed: int, res: dict) -> dict:
    first = res["runs"][0]
    return {
        "workload": name,
        "seed": seed,
        "backend": first["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "git_commit": git_commit(root),
        "workers": spec["workers"],
        "synth_config": res["setups"][0]["synth_config"],
        "pipeline_config": first["pipeline_config"],
        "setup_runs": len(res["setups"]),
        "tracking_runs": res["attempted"],
        "traced_runs": sum(r["traced"] for r in res["runs"]),
        "track_s_runs": [round(r["track_s"], 4) for r in res["runs"]],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child step instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        root = checkout_root()
        res = run_workload(root, args.workload, spec, args.seed, args.seconds, bool(args.trace))
        meta = metadata(root, args.workload, spec, args.seed, res)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(json.dumps({"perfbench_meta": meta}))
    first = res["runs"][0]
    print(
        f"perfbench: {args.workload} seed {args.seed}: tracks sha256 {res['reference_digest']}; "
        f"mota {first['mota']:.4f} ({first['false_negatives']} FN, "
        f"{first['false_positives']} FP, {first['id_switches']} IDSW)"
    )
    for failure in res["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    if args.trace:
        metrics, missing = layer_metrics(res)
        for n, why in sorted(missing.items()):
            print(f"perfbench: MISSING per-layer metric {n}: {why}", file=sys.stderr)
        ratios = [r["detect_tree_ratio"] for r in res["runs"] if "detect_tree_ratio" in r]
        if ratios:
            print(f"perfbench: detect subtree self time / detect span = {min(ratios):.4f}")
    else:
        metrics = end_to_end_metrics(res)
    print(
        json.dumps(
            {
                "correct": not res["failures"],
                "attempted": res["attempted"],
                "failed": len(res["failures"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
