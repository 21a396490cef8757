"""Run one workload's request list in this fresh process; write the result as JSON.

    python3 perfbench/worker.py --workload W --seed S --budget SECONDS --out FILE
                                [--spans FILE]

One closed-loop client, no extra threads: each request starts when the
previous one has returned.  A speed probe (speed.py) runs between requests,
at most PROBE_GAP_S apart, outside the timed requests.  With ``--spans`` the run is traced (see
tracing.py) and the spans are written to that file at the end.  Checks that
need extra work (brute force, cross-source) run after the timed loop.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A request is scaled by probes at most this far apart (see speed.py).
PROBE_GAP_S = 0.1
COUNTS = ("primitives.vectors", "exact.class_passes", "exact.cell_updates",
          "exact.max_cell_bits", "sampler.classes")


def run_request(zc, req: dict):
    """Returns (exit code, stdout, stderr, SampleStats or None, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    stats = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if req["kind"] == "cli":
                rc = zc.cli.main(req["argv"])
            else:
                stats = zc.sample_stats(req["dim"], zc.theta_tilde(req["dim"], req["n"]), 1e-12,
                                        req["samples"], req["seed"],
                                        tracked=[(tuple(c), j) for c, j in req["track"]])
                rc = 0
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing request is a failed request, not a failed run
        rc, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - start
    text = checks.stats_text(stats) if stats is not None else out.getvalue()
    return rc, text, err.getvalue(), stats, elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    import zonocount as zc
    import zonocount.cli  # noqa: F401  (the CLI is not imported by the package)

    requests = workloads.build(args.workload, args.seed, args.budget)
    keys = [workloads.request_key(r) for r in requests]
    reference = json.loads((HERE / "reference.json").read_text())
    zeros = HERE.parent / workloads.ZEROS_FILE
    zeros.parent.mkdir(exist_ok=True)
    zeros.write_text("\n".join(workloads.ZERO_ORDINATES) + "\n")
    checker = checks.Checker(reference, args.seed, zc)
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    latencies, hashes, out_bytes = [], [], 0
    probes, probe_before, last_probe = [], [], float("-inf")
    start = perf_counter()
    for i, req in enumerate(requests):
        if perf_counter() - last_probe >= PROBE_GAP_S:
            probes.append(speed.probe())
            last_probe = perf_counter()
        probe_before.append(len(probes) - 1)
        if tracer is not None:
            tracer.request = i
        rc, text, err, stats, elapsed = run_request(zc, req)
        latencies.append(elapsed * 1e3)
        if req["kind"] == "cli":
            out_bytes += len(text.encode())
        hashes.append(checks.sha256(text))
        checker.check(i, keys[i], req, rc, text, err, stats)
    wall = perf_counter() - start
    probes.append(speed.probe())
    scaled = [lat * speed.scale((probes[k] + probes[k + 1]) / 2)
              for lat, k in zip(latencies, probe_before)]
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Aggregate before the checks below, whose brute-force calls are traced too
    # (their spans carry request -1).
    layers = None
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        tracer.request = -1

    failures = checker.finish()
    result = {
        "workload": args.workload, "seed": args.seed, "budget": args.budget,
        "traced": tracer is not None, "requests": len(requests), "wall_s": wall,
        "latencies_ms": latencies, "scaled_latencies_ms": scaled, "max_rss_mb": max_rss_mb, "out_bytes": out_bytes,
        "keys": keys, "hashes": hashes,
        "failed": sorted(failures),
        "failure_messages": [f"request {i} ({keys[i]}): {m}"
                             for i in sorted(failures)[:20] for m in failures[i][:2]],
        "assembly_diff_max": checker.assembly_diff_max,
        "pinned_checked": checker.pinned_checked,
    }
    if tracer is not None:
        result["layers"] = layers
        result["counts"] = {k: layers[k] for k in COUNTS}
        tracer.write(args.spans)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
