"""Output checks.  Every failed check marks the request it read as failed.

* exact counts against the reference table of z_d(n) (plain and cumulative)
  for every box the workloads can draw, and against brute force on boxes
  within the oracle's node budget (computed after the timed loop);
* the same z_d(n) from a sweep table (``--n-range``), from its own table
  (``--n``), from a diameter count and as ``compare``'s ln z;
* ``assembly_diff`` below 1e-9 (relative once ln z > 1) and the estimate equal to its parts;
* each ``sample`` stdout well formed, the same for a repeated request, and
  for the reference seed equal by SHA-256 to the recorded stream; likewise
  counts, moments, self-test output and ``sample_stats`` moments;
* ``sample_stats`` means within six standard errors of their exact
  truncated-sum values.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# The two assembly routes must agree to 1e-9, relative to ln z once ln z > 1:
# at n = 1e12 ln z reaches 1e9, where one double rounding step exceeds 1e-7.
ASSEMBLY_LIMIT = 1e-9
# Largest n per dimension whose cube brute force enumerates in well under 1 s.
BRUTE_MAX_N = {2: 6, 3: 2, 4: 1}
# Request kinds whose output is byte-identical by contract (no floats of the
# asymptotic layer in it), so a SHA-256 can pin it.
PINNED = ("cli count", "cli moments", "cli sample", "cli --self-test", "stats")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ln15(z: int) -> float:
    """ln z as the CLI prints it (15 significant digits)."""
    return float(f"{math.log(z):.15g}")


def stats_text(stats) -> str:
    """Canonical text of the stream-determined parts of a SampleStats."""
    doc = {"n_samples": stats.n_samples, "direction_mean": f"{stats.direction_mean:.12g}",
           "endpoint_mean": [f"{x:.12g}" for x in stats.endpoint_mean],
           "tracked": {f"{c}:{j}": f"{t.mean:.12g}" for (c, j), t in stats.tracked.items()}}
    return json.dumps(doc, sort_keys=True)


def _finite(row: dict, keys) -> list[str]:
    return [f"{k} = {row[k]!r} is not finite" for k in keys
            if not isinstance(row[k], (int, float)) or not math.isfinite(row[k])]


def _parts_differ(row: dict) -> bool:
    """ln_z_hat must equal ln_alpha + beta ln n + Q + I_crit (the AsympEstimate invariant)."""
    parts = row["ln_alpha"] + row["beta_ln_n"] + row["q_value"] + row["icrit"]
    return abs(parts - row["ln_z_hat"]) > 1e-9 * max(1.0, abs(parts))


def _argv_value(argv: list[str], flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


class Checker:
    """Checks the outputs of one request list; ``finish`` runs the cross checks."""

    def __init__(self, reference: dict, seed: int, zonocount):
        self.z_ref = {(kind, int(d)): [int(v) for v in vals]
                      for kind in ("z", "z_cumulative")
                      for d, vals in reference[kind].items()}
        self.pinned = reference["stdout_sha256"] if seed == reference["seed"] else {}
        self.zc = zonocount
        self.todo: list[tuple] = []            # (request id, brute-force comparison)
        self.z_seen: dict[tuple, dict] = {}    # (dim, n) -> {z: [request ids]}
        self.ln_seen: dict[tuple, dict] = {}   # (dim, n) -> {ln z: [request ids]}
        self.sha_seen: dict[str, tuple] = {}   # key -> (sha, first request id)
        self.failures: dict[int, list[str]] = {}
        self.assembly_diff_max = 0.0
        self.pinned_checked = 0                # outputs compared with a recorded SHA-256

    def _fail(self, i: int, message: str) -> None:
        self.failures.setdefault(i, []).append(message)

    def _fail_all(self, i: int, messages) -> None:
        for m in messages:
            self._fail(i, m)

    def check(self, i: int, key: str, req: dict, rc, text: str, err: str, stats=None) -> None:
        """Check one request; ``stats`` is the SampleStats of a stats request."""
        if rc != 0:
            self._fail(i, f"exit code {rc}: {err.strip()[-300:]}")
            return
        if key.startswith(PINNED):
            sha = sha256(text)
            want = self.pinned.get(key)
            if want is not None:
                self.pinned_checked += 1
                if want != sha:
                    self._fail(i, "output differs from the recorded reference")
            first = self.sha_seen.setdefault(key, (sha, i))
            if first[0] != sha:
                self._fail(i, f"output differs from request {first[1]} with the same input")
        try:
            if req["kind"] == "stats":
                self._check_stats(i, stats)
                return
            argv = req["argv"]
            if argv[0] == "--self-test":
                if not text.endswith("self-test: PASS\n"):
                    self._fail(i, "self-test did not pass")
                return
            if argv[0] == "sample":
                self._check_sample(i, argv, text)
                return
            getattr(self, f"_check_{argv[0]}")(i, argv, json.loads(text)["rows"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            self._fail(i, f"malformed output: {exc!r}")

    # --- exact -----------------------------------------------------------------

    def _reference_z(self, i: int, kind: str, dim: int, n: int, z: int) -> None:
        table = self.z_ref.get((kind, dim))
        if table is not None and n < len(table) and table[n] != z:
            self._fail(i, f"{kind}_{dim}({n}) = {z}, reference {table[n]}")

    def _against_brute_force(self, i: int, dim: int, n: int, item: tuple) -> None:
        if n <= BRUTE_MAX_N.get(dim, -1):
            self.todo.append((i, (dim, n) + item))

    def _check_count(self, i: int, argv, rows) -> None:
        cumulative = "--cumulative" in argv
        for row in rows:
            dim, n, z = int(row["dim"]), int(row["n"]), int(row["z_exact"])
            if row["ln_z"] != ln15(z):
                self._fail(i, f"ln_z {row['ln_z']} does not match z = {z}")
            self._reference_z(i, "z_cumulative" if cumulative else "z", dim, n, z)
            if not cumulative:
                self.z_seen.setdefault((dim, n), {}).setdefault(z, []).append(i)
                self._against_brute_force(i, dim, n, ("count", z))

    def _check_compare(self, i: int, argv, rows) -> None:
        dim = int(_argv_value(argv, "--dim"))
        for row in rows:
            n = int(row["n"])
            self.ln_seen.setdefault((dim, n), {}).setdefault(row["ln_z_exact"], []).append(i)
            table = self.z_ref.get(("z", dim))
            if table is not None and n < len(table) and row["ln_z_exact"] != ln15(table[n]):
                self._fail(i, f"ln_z_exact at n={n} does not match the reference z")
            if _parts_differ(row):
                self._fail(i, f"ln_z_hat at n={n} is not the sum of its parts")
            self._fail_all(i, _finite(row, ("ln_z_exact", "ln_z_hat", "rel_err")))

    def _check_moments(self, i: int, argv, rows) -> None:
        (row,) = rows
        dim, n = int(row["dim"]), int(row["n"])
        mean = Fraction(row["mean"])
        if row["param"] == "diameter":
            count = int(row["count"])
            self._reference_z(i, "z", dim, n, count)
            self.z_seen.setdefault((dim, n), {}).setdefault(count, []).append(i)
            self._against_brute_force(i, dim, n, ("diameter", count, mean))
        else:
            v0 = tuple(int(c) for c in row["v0"].split(","))
            self._against_brute_force(i, dim, n, ("occurrence", v0, mean, Fraction(row["variance"])))

    # --- asymptotics -----------------------------------------------------------

    def _check_asympt(self, i: int, argv, rows) -> None:
        (row,) = rows
        self._fail_all(i, _finite(row, ("ln_alpha", "q_value", "icrit", "ln_z_hat",
                                        "ln_z_hat_saddle_form", "assembly_diff")))
        diff = abs(row["assembly_diff"])
        self.assembly_diff_max = max(self.assembly_diff_max, diff)
        limit = ASSEMBLY_LIMIT * max(1.0, abs(row["ln_z_hat"]))
        if not diff < limit:
            self._fail(i, f"assembly_diff {diff:.3e} >= {limit:.3e}")
        if _parts_differ(row):
            self._fail(i, "ln_z_hat is not the sum of its parts")

    def _check_icrit(self, i: int, argv, rows) -> None:
        (row,) = rows
        self._fail_all(i, _finite(row, ("icrit", "amp_cos", "amp_sin", "frequency", "scale")))

    # --- sampler ---------------------------------------------------------------

    def _check_sample(self, i: int, argv, text: str) -> None:
        dim = int(_argv_value(argv, "--dim"))
        samples = int(_argv_value(argv, "--samples") or 1)
        seed = int(_argv_value(argv, "--seed") or 0)
        lines = text.splitlines()
        tracks = [argv[k + 1].replace(",", "_").replace(":", "_c")
                  for k, a in enumerate(argv) if a == "--track"]
        header = (["seed", "direction_count"] + [f"endpoint_{k}" for k in range(dim)]
                  + [f"omega_{t}" for t in tracks])
        if lines[0].split(",") != header:
            self._fail(i, f"sample header {lines[0]!r}")
        rows = [[int(x) for x in line.split(",")] for line in lines[1:]]
        if [r[0] for r in rows] != list(range(seed, seed + samples)):
            self._fail(i, "sample rows do not carry the consecutive seeds")
        if any(x < 0 for r in rows for x in r[1:]):
            self._fail(i, "negative count in a sample row")

    def _check_stats(self, i: int, stats) -> None:
        if abs(stats.direction_mean - stats.expected_directions) > 6 * stats.direction_stderr + 1e-9:
            self._fail(i, "direction mean is more than 6 standard errors from its exact value")
        for cid, tr in stats.tracked.items():
            if abs(tr.mean - tr.q / (1 - tr.q)) > 6 * tr.stderr + 1e-9:
                self._fail(i, f"class {cid} mean is more than 6 standard errors from q/(1-q)")
        if not 0 <= stats.bias_estimate < 1e-3:
            self._fail(i, f"truncation bias estimate {stats.bias_estimate!r}")

    # --- cross checks after the timed loop -------------------------------------

    def finish(self) -> dict[int, list[str]]:
        """Brute-force and cross-source checks; returns failures by request id."""
        oracle = {}
        for i, (dim, n, kind, *got) in self.todo:
            if (dim, n) not in oracle:
                oracle[(dim, n)] = self.zc.exact.brute_force_count(dim, (n,) * dim)
            bf = oracle[(dim, n)]
            if kind == "count":
                want = [bf.count]
            elif kind == "diameter":
                want = [bf.count, Fraction(bf.direction_count_sum, bf.count)]
            else:  # occurrence of sign class 0 of v0: got = [v0, mean, variance]
                s1, s2 = bf.occurrence[(got[0], 0)]
                mean = Fraction(s1, bf.count)
                want = [got[0], mean, Fraction(s2, bf.count) - mean * mean]
            if got != want:
                self._fail(i, f"{kind} at box {n}^{dim}: {got} differs from brute force {want}")
        for (dim, n), by_z in self.z_seen.items():
            by_ln = self.ln_seen.get((dim, n), {})
            ids = [i for group in (*by_z.values(), *by_ln.values()) for i in group]
            if len(by_z) > 1 or any(ln != ln15(z) for ln in by_ln for z in by_z):
                for i in ids:
                    self._fail(i, f"z_{dim}({n}) differs between sweep, own table and compare")
        return self.failures
