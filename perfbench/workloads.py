"""Seeded request lists for the three benchmark workloads.

A list is made of rounds.  Every round holds the same slots in the same
order; a slot is one request kind with a parameter band.  Round r of R
takes each slot's parameter from the r-th of R equal sub-bands; the point
sits at the same offset in every sub-band, and the offset differs between
slots, so two slots on one band never repeat an input.  The sizes, and so
the work and the memory a run needs, are therefore the same for every seed;
the seed draws everything else (range starts, v0, sample seeds, zero
counts, the small-request sample pool).  R follows from the time budget and
the nominal round time below, so a given (seed, budget) always yields the
same list.

A request is a dict: ``{"kind": "cli", "argv": [...]}`` for a
``zonocount.cli.main`` call, or ``{"kind": "stats", ...}`` for a
``zonocount.sample_stats`` call.
"""

from __future__ import annotations

import random

# Nominal seconds per round: a run's R is its budget over this, rounded.
# They only size the list, which never depends on the machine it runs on.
# At the default 20 s budget the seed code needs about 18.5 s (exact_sweep),
# 22 s (sample_saddle) and 12 s (small_mixed) at the reference speed.
ROUND_SECONDS = {"exact_sweep": 7.0, "sample_saddle": 5.0, "small_mixed": 0.15}

WORKLOADS = tuple(ROUND_SECONDS)

ZEROS_FILE = "perfbench/out/zeros.txt"
# The first three non-trivial zeta zero ordinates (Odlyzko's tables).
ZERO_ORDINATES = ("14.134725141734693", "21.022039638771555", "25.010857580145688")

_V0 = {
    2: ["1,0", "0,1", "1,1", "1,2", "2,1", "1,3", "3,2"],
    3: ["1,0,0", "0,0,1", "1,1,0", "1,1,1", "1,2,1", "0,1,2"],
}


def _int_in(u: float, lo: int, hi: int) -> int:
    return min(hi, lo + int(u * (hi - lo + 1)))


def _log_in(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


# --- exact_sweep -------------------------------------------------------------
# Boxes from the narrow bands d=2 n in [32,96], d=3 n in [8,16], d=4 n in [4,6].
# count --n-range starts at a small n so brute force can check its first rows.

def _exact_slots():
    def count(dim, lo, hi):
        return lambda u, r: _cli("count", "--dim", dim, "--n", _int_in(u, lo, hi))

    def cumulative(dim, lo, hi):
        return lambda u, r: _cli("count", "--dim", dim, "--n", _int_in(u, lo, hi),
                                 "--cumulative")

    def sweep(dim, first, lo, hi):
        return lambda u, r: _cli("count", "--dim", dim, "--n-range",
                                 f"{r.randint(*first)}:{_int_in(u, lo, hi)}")

    def compare(dim, lo, hi):
        def make(u, r):
            top = _int_in(u, lo, hi)
            return _cli("compare", "--dim", dim, "--n-range", f"{top - r.randint(0, 6)}:{top}")
        return make

    def diameter(dim, lo, hi):
        return lambda u, r: _cli("moments", "--dim", dim, "--n", _int_in(u, lo, hi),
                                 "--param", "diameter")

    def occurrence(dim, lo, hi):
        return lambda u, r: _cli("moments", "--dim", dim, "--n", _int_in(u, lo, hi),
                                 "--param", "occurrence", "--v0", r.choice(_V0[dim]))

    return [
        count(2, 32, 48), sweep(2, (2, 6), 40, 56), cumulative(2, 32, 44),
        compare(2, 44, 56), diameter(2, 32, 40), occurrence(2, 40, 56),
        count(2, 64, 96),
        sweep(3, (1, 2), 8, 10), compare(3, 8, 10), diameter(3, 8, 9),
        occurrence(3, 8, 10), cumulative(3, 10, 16),
        sweep(4, (1, 1), 4, 6), diameter(4, 4, 5),
    ]


# --- sample_saddle -----------------------------------------------------------
# Larger n comes with fewer samples.  Every n is distinct, so every request
# builds its class system cold, as a fresh CLI process does.  Up to four
# rounds (the default budget), a clear of the nine-entry class-system cache
# falls between any two of the large d=3 builds, so only one d=3 system is
# alive at a time.

def _sample_slots():
    def sample(dim, n_lo, n_hi, s_lo, s_hi, track):
        def make(u, r):
            return _cli("sample", "--dim", dim, "--n", f"{_log_in(u, n_lo, n_hi):.3f}",
                        "--samples", _int_in(1 - u, s_lo, s_hi), "--seed", r.randrange(10 ** 6),
                        *[a for t in track for a in ("--track", t)])
        return make

    def stats(u, r):
        return {"kind": "stats", "dim": 2, "n": round(_log_in(u, 5e3, 2e4), 3),
                "samples": _int_in(1 - u, 100, 200), "seed": r.randrange(10 ** 6),
                "track": [[[1, 1], 0], [[1, 2], 1]]}

    d2 = sample(2, 5e3, 2e4, 100, 200, ["1,1:0", "1,0:0"])
    d3 = sample(3, 5e2, 2e3, 10, 20, ["1,1,1:0", "1,0,0:0"])
    return [d2, stats, d2, d3, d2, stats, d2, d2]


# --- small_mixed -------------------------------------------------------------
# Thousands of tiny requests.  Sample requests share a pool of six class
# systems, so after six cold builds every one is a cache hit.

def _small_slots(pool):
    def asy(cmd, dim, zeros):
        def make(u, r):
            argv = [cmd, "--dim", dim, "--n", f"{_log_in(u, 1e3, 1e12):.6g}"]
            if zeros:
                argv += ["--zeros", ZEROS_FILE, "--m", r.randint(1, 3)]
            return _cli(*argv)
        return make

    def count(dim, hi, cumulative=False):
        extra = ["--cumulative"] if cumulative else []
        return lambda u, r: _cli("count", "--dim", dim, "--n", _int_in(u, 1, hi), *extra)

    def moments(dim, hi, param):
        def make(u, r):
            n = _int_in(u, 1, hi)
            argv = ["moments", "--dim", dim, "--n", n, "--param", param]
            if param == "occurrence":
                fits = [v for v in _V0[dim] if max(map(int, v.split(","))) <= n]
                argv += ["--v0", r.choice(fits)]
            return _cli(*argv)
        return make

    def sample(u, r):
        dim, n, cutoff = pool[r.randrange(len(pool))]
        return _cli("sample", "--dim", dim, "--n", n, "--cutoff", cutoff,
                    "--samples", r.randint(1, 5), "--seed", r.randrange(20))

    slots = [asy(c, d, z) for c in ("asympt", "icrit") for d in (2, 3, 4) for z in (False, True)]
    slots += [count(2, 12), count(2, 12, True), count(3, 5), count(3, 5, True),
              moments(2, 8, "diameter"), moments(2, 8, "occurrence"),
              moments(3, 4, "diameter"), moments(3, 4, "occurrence")]
    slots += [sample] * 12
    slots += [lambda u, r: _cli("--self-test")]
    return slots


def _sample_pool(rng: random.Random) -> list[tuple]:
    """Six (dim, n, cutoff) keys, one from each narrow band."""
    bands = [(2, 1e3, 2e3, 1e-2), (2, 3e3, 5e3, 1e-3), (2, 5e3, 1e4, 1e-2),
             (3, 1e3, 2e3, 1e-2), (3, 3e3, 5e3, 1e-2), (3, 5e3, 1e4, 1e-1)]
    return [(d, f"{_log_in(rng.random(), lo, hi):.1f}", f"{cut:g}") for d, lo, hi, cut in bands]


def rounds_for(workload: str, budget_s: float) -> int:
    return max(1, round(budget_s / ROUND_SECONDS[workload]))


def build(workload: str, seed: int, budget_s: float) -> list[dict]:
    """The request list of one run: deterministic in (workload, seed, budget)."""
    if workload not in ROUND_SECONDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact_sweep":
        slots = _exact_slots()
    elif workload == "sample_saddle":
        slots = _sample_slots()
    else:
        slots = _small_slots(_sample_pool(rng))
    n_rounds = rounds_for(workload, budget_s)
    requests = []
    for r in range(n_rounds):
        for j, slot in enumerate(slots):
            requests.append(slot((r + (j + 0.5) / len(slots)) / n_rounds, rng))
    return requests


def request_key(req: dict) -> str:
    """Stable text key of a request, used for references and hashing."""
    if req["kind"] == "cli":
        return "cli " + " ".join(req["argv"])
    track = ";".join(f"{','.join(map(str, c))}:{j}" for c, j in req["track"])
    return f"stats dim={req['dim']} n={req['n']} samples={req['samples']} seed={req['seed']} track={track}"

