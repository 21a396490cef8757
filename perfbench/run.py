"""zonocount benchmark: one seeded workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload exact_sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Run it from the repository root.  It measures set-up time in fresh
interpreters, then runs the workload's request list in fresh worker
processes (worker.py).  ``--trace 0`` runs the list once, in one untraced
worker on the whole time budget.  ``--trace 1`` runs a list a third as long
in two traced workers and one untraced one, reports the per-layer metrics,
and fails unless both traced workers count the same work.  Every worker
must print the same outputs.  The last line of stdout is the JSON result;
the full record, with the environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 11
SETUP_CODE = """\
import sys, time
sys.path.insert(0, "perfbench")
from speed import probe
before = probe()
start = time.perf_counter()
import zonocount, zonocount.cli
zonocount.special.first_zero()
elapsed = time.perf_counter() - start
after = probe()
import numpy
print(elapsed, (before + after) / 2, numpy.__version__)
"""


class BenchError(RuntimeError):
    pass


def run_seconds() -> float:
    """The budget BENCHMARK.json runs the benchmark at; reference.json is recorded at it."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def deadline_s(seconds: float) -> float:
    """Time a whole run may take: 170 s at the default budget, so a run ends
    inside the 180 s it is allowed, and six times a larger budget."""
    return max(170.0, 6.0 * seconds)


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    env.pop("ZONOCOUNT_MEMORY_BUDGET", None)
    return env


def run_child(argv: list[str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(argv[1:3]))
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=pinned_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(argv)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(deadline: float) -> tuple[float, float, str]:
    """Median time to import zonocount and its CLI and pay the lazy first-zero
    set-up: scaled to the reference speed, and raw."""
    scaled, raw, numpy_version = [], [], ""
    for _ in range(SETUP_RUNS):
        elapsed, probe_s, numpy_version = run_child(["-c", SETUP_CODE], deadline).split()
        raw.append(float(elapsed))
        scaled.append(float(elapsed) * speed.scale(float(probe_s)))
    return statistics.median(scaled), statistics.median(raw), numpy_version


def run_worker(workload: str, seed: int, budget: float, tag: str, traced: bool,
               deadline: float) -> dict:
    out = OUT / f"worker-{workload}-{tag}.json"
    argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--budget", repr(budget), "--out", str(out)]
    if traced:
        argv += ["--spans", str(OUT / f"spans-{workload}-{tag}.tsv")]
    run_child(argv, deadline)
    return json.loads(out.read_text())


def environment(numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = pinned_env()
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            **{k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "ZONOCOUNT_MEMORY_BUDGET": "unset"}


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten requests beyond it, and its value."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return 100.0 * k / len(ordered), ordered[k]


def count_key(workload: str, budget: float) -> str:
    return f"{workload}@{budget:g}"


def reference_gaps(reference: dict, worker: dict, budget: float, traced: bool,
                   seconds: float) -> list[str]:
    """For the reference seed: say so when reference.json pins none of this run's
    outputs or holds no work counts for its budget, so those checks compared nothing.
    At BENCHMARK.json's budget that means the reference is stale: a failure.
    At another budget it is expected: a warning on stderr."""
    gaps = []
    if worker["pinned_checked"] == 0:
        gaps.append(f"reference.json pins none of the {worker['requests']} outputs")
    if traced and count_key(worker["workload"], budget) not in reference["counts"]:
        gaps.append(f"reference.json holds no work counts for budget {budget:g} s")
    if seconds == run_seconds():
        return [g + "; regenerate it with make_reference.py" for g in gaps]
    for g in gaps:
        print(f"warning: {g} (recorded at --seconds {run_seconds():g}); "
              "those checks are skipped", file=sys.stderr)
    return []


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """A fresh worker runs the list: one untraced on the whole time budget, or two
    traced and one untraced, each on a third of it."""
    deadline = time.monotonic() + deadline_s(seconds)
    OUT.mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    setup_s, raw_setup_s, numpy_version = measure_setup(deadline)
    tags = ["traced-a", "traced-b", "plain"] if traced else ["plain"]
    budget = seconds / len(tags)
    workers = [run_worker(workload, seed, budget, tag, tag.startswith("traced"),
                          deadline) for tag in tags]
    base, problems = workers[-1], []
    for w in workers:
        w["failed"] = sorted(set(w["failed"]) | {i for i, (x, y) in enumerate(
            zip(w["hashes"], base["hashes"])) if x != y})
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
            "requests": base["requests"], "environment": environment(numpy_version)}
    if seed == reference["seed"]:
        problems += reference_gaps(reference, base, budget, traced, seconds)
    if not traced:
        latencies, raw = base["scaled_latencies_ms"], base["latencies_ms"]
        pct, tail_ms = tail(latencies)
        metrics = {"wall_s": sum(latencies) / 1e3, "req_p50_ms": statistics.median(latencies),
                   "req_tail_ms": tail_ms, "max_rss_mb": base["max_rss_mb"], "setup_s": setup_s}
        info.update(tail_percentile=pct, worker_wall_s=base["wall_s"],
                    raw={"wall_s": sum(raw) / 1e3, "req_p50_ms": statistics.median(raw),
                         "req_tail_ms": tail(raw)[1], "setup_s": raw_setup_s})
    else:
        a, b = workers[:2]
        if a["counts"] != b["counts"]:
            problems.append(f"work counts differ between traced runs: {a['counts']} vs {b['counts']}")
        want = (reference["counts"].get(count_key(workload, budget))
                if seed == reference["seed"] else None)
        if want is not None and want != a["counts"]:
            problems.append(f"work counts {a['counts']} differ from the reference {want}")
        metrics = {k: (a["layers"][k] + b["layers"][k]) / 2 for k in a["layers"]}
        metrics["asympt.assembly_diff_max"] = a["assembly_diff_max"]
        metrics["cli.out_bytes"] = a["out_bytes"]
        scaled_wall = [sum(w["scaled_latencies_ms"]) for w in workers]
        metrics["trace.overhead_ratio"] = (scaled_wall[0] + scaled_wall[1]) / 2 / scaled_wall[2]
        info.update(counts=a["counts"])
    attempted = sum(w["requests"] for w in workers)
    failed = sum(len(w["failed"]) for w in workers)
    messages = [m for w in workers for m in w["failure_messages"]] + problems
    info.update(fail_ratio=failed / attempted, failures=messages[:40])
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def report(result: dict) -> dict:
    """Print the human-readable lines; return the contract's JSON object.

    The metrics and their units are the ones BENCHMARK.json lists for the mode."""
    info = result["info"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if info["trace"] else "end_to_end"]}
    missing = set(units) - set(result["metrics"])
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: result["metrics"][name] for name in units}
    print(f"# {info['workload']}  seed {info['seed']}  trace {info['trace']}  "
          f"requests {info['requests']}"
          + (f"  tail = p{info['tail_percentile']:.1f}" if "tail_percentile" in info else ""))
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    print(f"{'fail_ratio':28s} {info['fail_ratio']:14.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for message in info["failures"]:
        print("FAIL", message)
    env = info["environment"]
    print("# env:", ", ".join(f"{k}={v}" for k, v in env.items()))
    out = OUT / f"result-{info['workload']}-seed{info['seed']}-trace{info['trace']}.json"
    out.write_text(json.dumps(result, indent=1))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="time budget (default: BENCHMARK.json's)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "zonocount" / "__init__.py").is_file():
        print(f"error: no zonocount sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    seconds = run_seconds() if args.seconds is None else args.seconds
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        docs = {name: report(run_one(name, args.seed, seconds, bool(args.trace)))
                for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(docs) == 1:
        print(json.dumps(docs[names[0]]))
    else:
        print(json.dumps({
            "correct": all(d["correct"] for d in docs.values()),
            "attempted": sum(d["attempted"] for d in docs.values()),
            "failed": sum(d["failed"] for d in docs.values()),
            "metrics": {f"{w}.{k}": v for w, d in docs.items() for k, v in d["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
