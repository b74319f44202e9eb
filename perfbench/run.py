"""oodlab benchmark: end-to-end timings, per-layer trace, correctness gate.

    python3 perfbench/run.py --workload train_ice --seed 7 --seconds 36 --trace 0

Run from the root of a checkout (``src/`` and ``configs/`` present). Each
pass of the workload runs in a fresh worker process (see worker.py) and is
gated (see gate.py) before its numbers count. Passes repeat until
``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
the untraced passes, eval latency from a fixed number of repetitions, and
set-up time as the median over fresh processes; the eval repetitions and the
set-up probes are spread over the run. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: medians of
self times over the traced passes, exact counts (which must repeat across
traced passes), and the tracing overhead from adjacent pass pairs.

Human-readable lines and a JSON report (machine, result quality, failures)
come first; the last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

MIN_PASSES = 4
# Untraced runs take the eval-latency samples and the set-up probes in ten
# slices due at even times through the run; each pass takes the slices due
# when it starts.
SAMPLE_SLOTS = 10
EVAL_WARMUP = 3
# Fixed sample counts, so the tail percentile (the highest with at least ten
# samples beyond it) is the same one on every run.
EVAL_REPS = {"train_ice": 100, "train_plain": 100, "shift": 100}
WORKER_TIMEOUT_S = 150

# Per-layer figures that are exact counts: identical on every traced pass of one seed.
COUNT_SUFFIXES = ("calls", "rows", "calls_per_row", "steps", "eval_forward_rows_per_row", "bytes", "spans")

NO_WAIT_NOTE = (
    "no layer has a time-waited metric: the work is one process and one Python thread, "
    "so no layer ever waits on another (BLAS helper threads show in cpu_s instead)"
)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_checkout() -> str | None:
    """Why this directory cannot be benchmarked, or None when it can."""
    for rel in ("src/oodlab/cli.py", "configs/default.ini", "configs/train_plain.ini", "configs/shift_ice.ini", "configs/shift_oe.ini"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            return f"{rel} is missing: run from a checkout of the oodlab repository"
    return None


def run_pass(spec: dict) -> dict:
    """Run one pass in a fresh worker process; returns its JSON result."""
    spec = dict(spec, result=os.path.join(spec["work"], "pass-result.json"))
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "pass", json.dumps(spec)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        raise RuntimeError(f"pass worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    with open(spec["result"]) as fh:
        return json.load(fh)


def probe_setup(spec: dict) -> float:
    """Seconds from starting a fresh interpreter until the workload's data is ready."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "setup", json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        raise ValueError(f"need at least 11 latency samples for a tail, got {len(samples)}")
    ordered = sorted(samples)
    idx = len(ordered) - 11
    return 100.0 * (idx + 1) / len(ordered), ordered[idx]


def run_passes(spec: dict, seconds: float, gate, trace: bool) -> tuple[list[dict], list[float]]:
    """Gated passes until ``seconds`` have elapsed; returns them and the set-up probe times.

    Untraced runs spread the eval-latency samples and the set-up probes over
    the whole run (see SAMPLE_SLOTS), so that a slow spell of the machine
    cannot hold all of them. Traced runs alternate untraced and traced passes.
    """
    import gate as gates
    from workloads import make

    wl = make(spec["workload"], spec["root"], spec["work"], spec["seed"])
    check = gates.check_shift if wl.name == "shift" else gates.check_train
    pattern = (False, True) if trace else (False,)
    passes: list[dict] = []
    setups: list[float] = []
    reference = None
    start = time.perf_counter()
    deadline = start + seconds
    slots = [] if trace else [start + i * seconds / SAMPLE_SLOTS for i in range(SAMPLE_SLOTS)]
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline or slots:
        due = sum(1 for t in slots if t <= time.perf_counter())
        del slots[:due]
        job = dict(spec, trace=pattern[len(passes) % len(pattern)], eval_warmup=EVAL_WARMUP)
        job["eval_reps"] = due * EVAL_REPS[wl.name] // SAMPLE_SLOTS
        result = run_pass(job)
        result["traced"] = job["trace"]
        for name, code in zip(result["commands"], result["exit_codes"]):
            gate.record(f"{name} exits 0", code == 0, f"exit {code}")
        result["quality"] = check(gate, wl)
        if result.get("eval_report"):
            on_disk = gates.read_metrics_csv(os.path.join(wl.out("train"), "metrics.csv"))
            same = all(result["eval_report"][k] == on_disk[k] for k in result["eval_report"])
            gate.record("trainer.evaluate on the checkpoint equals metrics.csv", same, f"{result['eval_report']} vs {on_disk}")
        fingerprint = gates.digest(wl.out_dirs())
        if reference is None:
            reference = fingerprint
            gate.record("pass writes deterministic outputs", bool(fingerprint))
        else:
            changed = sorted(set(reference) ^ set(fingerprint) | {p for p in reference if reference[p] != fingerprint.get(p)})
            gate.record("outputs byte-identical to the first pass", not changed, ", ".join(os.path.relpath(p, wl.work) for p in changed))
        setups += [probe_setup(spec) for _ in range(due)]
        passes.append(result)
    # The first probe byte-compiles the package, as an install would; it is discarded.
    return passes, setups[1:]


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics and the report details that explain them."""
    samples = [ms for p in passes for ms in p.get("eval_ms", [])]
    tail_pct, tail_ms = tail(samples)

    def rate(index: int) -> float:
        return statistics.median(sum(c[index] for c in p["core"]) / sum(c[0] for c in p["core"]) for p in passes if p["core"])

    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "train_rows_per_s": rate(2),
        "shift_steps_per_s": rate(1),
        "eval_ms_p50": statistics.median(samples),
        "eval_ms_tail": tail_ms,
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_probes_s": setups,
        "eval_samples": len(samples),
        "eval_tail_percentile": tail_pct,
        "core_steps_per_pass": sum(c[1] for c in passes[0]["core"]),
        "core_rows_per_pass": sum(c[2] for c in passes[0]["core"]),
    }
    return metrics, details


def per_layer(spec: dict, passes: list[dict], gate) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, plus the tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for key in traced[0]["layers"]:
        values = [p["layers"][key] for p in traced]
        if key.endswith(COUNT_SUFFIXES):
            gate.record(f"{key} repeats exactly across traced passes", len(set(values)) == 1, str(values))
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    bytes_written = [p["bytes_written"] for p in traced]
    gate.record("cli.bytes_written repeats exactly across traced passes", len(set(bytes_written)) == 1, str(bytes_written))
    metrics["cli.bytes_written"] = float(bytes_written[0])
    # SGD steps of the trainer.train calls; the shift workload runs no trainer.
    metrics["trainer.steps"] = float(sum(c[1] for c in traced[0]["core"])) if spec["workload"] != "shift" else 0.0
    # Each traced pass against the untraced pass just before it, so that a
    # slow spell of the machine lands on both sides of a difference.
    metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced))
    details = {
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "traced_wall_s": [p["wall_s"] for p in traced],
        "untraced_wall_s": [p["wall_s"] for p in plain],
    }
    return metrics, details


def render(declared: list[dict], metrics: dict, gate, report: dict) -> list[str]:
    """Output lines: one per metric with its unit, the report, and last the result object."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    failed_frac = gate.failed / gate.attempted
    lines = [f"{m['name']:40s} {metrics[m['name']]!r} {m['unit']}" for m in declared]
    lines.append(f"{'failed_frac':40s} {failed_frac!r} 1 ({gate.failed} of {gate.attempted} operations failed)")
    lines.append(f"quality (recorded, not gated): {json.dumps(report['quality'])}")
    lines.append(f"note: {NO_WAIT_NOTE}")
    lines.append("report: " + json.dumps(dict(report, failed_frac=failed_frac, note=NO_WAIT_NOTE)))
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    lines.append(json.dumps(result))
    return lines


def main(argv: list[str] | None = None) -> int:
    from workloads import NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the passes are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from gate import Gate
    from machine import machine_info
    from workloads import make

    bench = load_benchmark()
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    wl = make(args.workload, ROOT, work, args.seed)
    wl.prepare()
    spec = {"root": ROOT, "work": work, "workload": args.workload, "seed": args.seed}

    gate = Gate()
    passes, setups = run_passes(spec, args.seconds, gate, bool(args.trace))
    metrics, details = per_layer(spec, passes, gate) if args.trace else end_to_end(passes, setups)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "quality": passes[0]["quality"],
        "failures": gate.failures,
        "details": details,
    }
    print("\n".join(render(declared, metrics, gate, report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
