"""Self-test of the benchmark on tiny workloads (about 30 s).

    python3 perfbench/selftest.py

Run from the root of a lidartrack checkout. Checks that BENCHMARK.json and
the code name the same metrics with the same units, that a tiny serial and a
tiny threaded workload print every named metric with its unit, that a
perturbed tracks file trips the output check, that a vanished boundary or one
never called is reported missing by name (never as 0), and that the
benchmark refuses to run without the lidartrack sources. Exits 0 when every
check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer as tracing
from workloads import WORKLOADS

# 12 frames of 13k raw points: about a second of tracking per run. The
# first 4 frames precede track confirmation, so MOTA tops out at 2/3.
TINY_SYNTH = {"n_cars": 2, "n_frames": 12, "ground_density": 2.0, "clutter_points": 20}
TINY_FLOOR = {"min_mota": 0.6, "max_id_switches": 0}
TINY = {
    "tiny-serial": {"synth": TINY_SYNTH, "pipeline": {}, "workers": 1, "floor": TINY_FLOOR},
    "tiny-threaded": {"synth": TINY_SYNTH, "pipeline": {}, "workers": 2, "floor": TINY_FLOOR},
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def check_printed(metrics: dict, declared: dict, what: str) -> None:
    names_ok = set(metrics) == set(declared)
    check(names_ok, f"{what}: every declared metric printed (missing {set(declared) - set(metrics)})")
    for name, m in metrics.items():
        ok = m["unit"] == declared.get(name) and math.isfinite(m["value"])
        check(ok, f"{what}: {name} = {m['value']:.6g} {m['unit']}")


def test_declaration(bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    layers = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    layers[run.OVERHEAD] = "ratio"
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(declared == layers, "BENCHMARK.json per_layer matches tracer.LAYER_METRICS")
    check(
        [w["name"] for w in bench["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads match workloads.WORKLOADS",
    )


def test_tiny_runs(root: Path, bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, spec in TINY.items():
        for trace in (False, True):
            res = run.run_workload(root, name, spec, seed=3, seconds=0, trace=trace)
            check(not res["failures"], f"{name} trace={int(trace)}: no failed run {res['failures']}")
            if trace:
                metrics, missing = run.layer_metrics(res)
                check(not missing, f"{name}: no per-layer metric missing {missing}")
                check_printed(metrics, layers, name)
                ratios = [r["detect_tree_ratio"] for r in res["runs"] if r["traced"]]
                check(
                    all(abs(r - 1.0) <= 0.02 for r in ratios),
                    f"{name}: self times under detection.detect add up to the span {ratios}",
                )
                check(
                    metrics["pipeline.workers"]["value"] == spec["workers"],
                    f"{name}: pipeline.workers is {spec['workers']}",
                )
            else:
                check_printed(run.end_to_end_metrics(res), e2e, name)


def test_perturbed_tracks(root: Path) -> None:
    import child

    work = root / run.WORK_DIR / "selftest-perturb"
    shutil.rmtree(work, ignore_errors=True)
    spec = json.dumps(TINY["tiny-serial"])
    seq, tracks = work / "seq", work / "tracks.jsonl"
    run.run_step(root, ["setup", spec, "3", str(seq)], 120)
    good = run.run_step(root, ["track", spec, str(seq), str(tracks)], 120)
    floor = TINY_FLOOR
    check(run.check_run(good, good["digest"], floor) is None, "unchanged tracks pass the check")

    lines = tracks.read_text().splitlines()
    shifted = [lines[0]]
    for line in lines[1:]:
        rec = json.loads(line)
        rec["x"] += 5.0
        shifted.append(json.dumps(rec))
    bad_path = work / "perturbed.jsonl"
    bad_path.write_text("\n".join(shifted) + "\n")
    bad = child.score(seq, bad_path, 2.0)
    why = run.check_run(bad, good["digest"], floor)
    check(why is not None and "sha256" in why, f"perturbed tracks trip the digest check: {why}")
    why = run.check_run(bad, None, floor)
    check(why is not None and "mota" in why, f"perturbed tracks trip the quality floor: {why}")
    shutil.rmtree(work, ignore_errors=True)


def test_missing_boundaries() -> None:
    from lidartrack import detection

    fit_box = detection.fit_box
    del detection.fit_box
    try:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    finally:
        detection.fit_box = fit_box
    check("detection.fit_box" in tracer.errors, f"vanished boundary recorded: {tracer.errors}")
    metrics, missing = tracing.layer_metrics(tracer)
    check(
        "detection.boxes" in missing and "detection.fit_box" in missing["detection.boxes"],
        f"detection.boxes missing by name: {missing.get('detection.boxes')}",
    )
    check(not metrics, f"a run with no calls reports no metric as 0: {sorted(metrics)}")
    check(
        all(n in missing for n in tracing.LAYER_METRICS),
        "every per-layer metric of a run with no calls is reported missing",
    )


def test_refuses_without_sources(root: Path) -> None:
    bare = root / run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        f"no lidartrack sources: exit {proc.returncode}, no result printed",
    )


def main() -> int:
    root = run.checkout_root()
    sys.path.insert(0, str(root / "src"))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    test_declaration(bench)
    test_perturbed_tracks(root)
    test_refuses_without_sources(root)
    test_tiny_runs(root, bench)
    test_missing_boundaries()  # last: it leaves this process's lidartrack wrapped
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
