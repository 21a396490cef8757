"""Regenerate perfbench/reference.json from the current code.

    python3 perfbench/make_reference.py

Records, from the code as it stands:
* z_d(n) and the cumulative counts for every box the workloads draw
  (d=2 n<=96, d=3 n<=16, d=4 n<=6), read from one table per dimension;
* the SHA-256 of every byte-stable output (counts, moments, samples,
  self-test, sample_stats moments) of the reference seed's lists at the
  untraced and the traced budget of BENCHMARK.json's run_seconds;
* the work counts of the reference seed's traced runs.

Run it only on code whose outputs are known to be right (the brute-force
and cross-source checks still run on every benchmark run); a change that
claims a gain must not regenerate it.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import run
from checks import PINNED

sys.path.insert(0, str(run.ROOT / "src"))

REFERENCE_SEED = 0
Z_BOUNDS = {2: 96, 3: 16, 4: 6}


def z_tables() -> tuple[dict, dict]:
    from zonocount import exact

    plain, cumulative = {}, {}
    for dim, top in Z_BOUNDS.items():
        table = exact.build_table(dim, top)
        plain[str(dim)] = [str(table.coefficient(n)) for n in range(top + 1)]
        cumulative[str(dim)] = [
            str(sum(table.coefficient(e) for e in itertools.product(range(n + 1), repeat=dim)))
            for n in range(top + 1)]
    return plain, cumulative


def main() -> int:
    seconds = run.run_seconds()
    run.OUT.mkdir(exist_ok=True)
    plain, cumulative = z_tables()
    shas, counts = {}, {}
    deadline = time.monotonic() + 3600
    for workload in run.workloads.WORKLOADS:
        for budget, traced in ((seconds, False), (seconds / 3, True)):
            res = run.run_worker(workload, REFERENCE_SEED, budget, "reference", traced, deadline)
            shas.update((k, h) for k, h in zip(res["keys"], res["hashes"]) if k.startswith(PINNED))
            if traced:
                counts[run.count_key(workload, budget)] = res["counts"]
    doc = {"seed": REFERENCE_SEED, "z": plain, "z_cumulative": cumulative,
           "counts": counts, "stdout_sha256": dict(sorted(shas.items()))}
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=0) + "\n")
    print(f"recorded {len(shas)} output hashes and {len(counts)} count sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
