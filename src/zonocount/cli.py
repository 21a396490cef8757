"""Command-line surface.

Subcommands wrap the library layers and emit either JSON (schema-versioned
envelope, floats at 15 significant digits, big integers and exact rationals
as strings) or CSV.  `--self-test` runs the embedded golden suite and exits
nonzero on any mismatch.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

from . import asympt, exact, primitives, sampler, special

SCHEMA_VERSION = 1

COMPARE_COLUMNS = ["n", "ln_z_exact", "ln_alpha", "beta_ln_n", "q_value",
                   "icrit", "ln_z_hat", "rel_err"]


def _fmt(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        # big counts do not survive double-precision JSON parsers
        return str(value) if abs(value) >= 2 ** 53 else value
    return value


def _emit(rows: list[dict], command: str, fmt: str, output) -> None:
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):  # not valid JSON
                raise ValueError(f"{key} is not finite: {value}")
    rows = [{k: _fmt(v) for k, v in row.items()} for row in rows]
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": command, "rows": rows}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0].keys())
            writer.writerows(row.values() for row in rows)
        text = buf.getvalue()
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(args) -> list[int]:
    if args.n is not None and args.n_range is not None:
        raise ValueError("give either --n or --n-range, not both")
    if args.n is not None:
        return [args.n]
    if args.n_range is not None:
        lo, _, hi = args.n_range.partition(":")
        try:
            lo_i, hi_i = int(lo), int(hi)  # without a colon hi is "" and fails here
        except ValueError:
            raise ValueError(f"--n-range expects MIN:MAX, got {args.n_range!r}") from None
        if lo_i > hi_i:
            raise ValueError("--n-range expects MIN <= MAX")
        return list(range(lo_i, hi_i + 1))
    raise ValueError("one of --n or --n-range is required")


def _parse_v0(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"--v0 expects V1,...,Vd, got {text!r}") from None


def _parse_class(text: str) -> sampler.ClassId:
    coords, sep, idx = text.partition(":")
    try:
        return (_parse_v0(coords), int(idx) if sep else 0)
    except ValueError:
        raise ValueError(f"--track expects V1,...,Vd[:SIGN], got {text!r}") from None


def _load_zeros(args) -> list[special.ZetaZero]:
    zeros = special.load_zeros_file(args.zeros) if args.zeros else [special.first_zero()]
    if zeros and not 1 <= args.m <= len(zeros):  # asympt refuses an empty list by name
        raise ValueError(f"m = {args.m} outside 1..{len(zeros)}")
    return zeros[:args.m]


def _finite(value, flag: str):
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value}")
    return value


def cmd_count(args) -> list[dict]:
    ns = _parse_range(args)
    table = exact.shared_table(args.dim, (max(ns),) * args.dim)
    rows = []
    for n in ns:
        if args.cumulative:
            z = table.total((n,) * args.dim)
        else:
            z = table.coefficient((n,) * args.dim)
        rows.append({"dim": args.dim, "n": n, "z_exact": z, "ln_z": math.log(z)})
    return rows


def cmd_compare(args) -> list[dict]:
    if args.dim < 2:  # before the table: the estimate needs d >= 2
        raise ValueError("compare requires dim >= 2")
    ns = _parse_range(args)
    zeros = _load_zeros(args)
    table = exact.shared_table(args.dim, (max(ns),) * args.dim)
    rows = []
    for n in ns:
        z = table.coefficient((n,) * args.dim)
        ln_z = math.log(z)
        est = asympt.estimate(args.dim, n, zeros)
        rows.append({
            "n": n,
            "ln_z_exact": ln_z,
            "ln_alpha": est.ln_alpha,
            "beta_ln_n": est.beta_ln_n,
            "q_value": est.q_value,
            "icrit": est.icrit,
            "ln_z_hat": est.ln_z_hat,
            "rel_err": (ln_z - est.ln_z_hat) / ln_z,
        })
    return rows


def cmd_moments(args) -> list[dict]:
    if args.param == "diameter":
        pair = exact.diameter_numerators(args.dim, args.n)
        return [{"dim": args.dim, "n": args.n, "param": "diameter",
                 "count": pair.count, "mean": pair.mean}]
    if not args.v0:
        raise ValueError("--v0 is required for occurrence moments")
    v0 = _parse_v0(args.v0)
    mean, variance = exact.occurrence_moments(args.dim, args.n, v0)
    return [{"dim": args.dim, "n": args.n, "param": "occurrence",
             "v0": ",".join(map(str, v0)), "mean": mean, "variance": variance}]


def cmd_asympt(args) -> list[dict]:
    _finite(args.n, "--n")
    zeros = _load_zeros(args)
    est = asympt.estimate(args.dim, args.n, zeros)
    row = est.to_dict()
    saddle = asympt.estimate_saddle_form(args.dim, args.n, zeros)
    row["ln_z_hat_saddle_form"] = saddle
    row["assembly_diff"] = est.ln_z_hat - saddle
    row["mean_diameter"] = asympt.mean_diameter_asympt(args.dim, args.n)
    return [row]


def cmd_icrit(args) -> list[dict]:
    _finite(args.n, "--n")
    zeros = _load_zeros(args)
    value = asympt.icrit(args.dim, args.n, zeros)
    wave = asympt.icrit_wave_form(args.dim, zeros[0])
    return [{
        "dim": args.dim, "n": args.n, "m": args.m, "icrit": value,
        "amp_cos": wave.amp_cos, "amp_sin": wave.amp_sin,
        "frequency": wave.frequency, "scale": wave.scale,
    }]


def cmd_sample(args) -> list[dict]:
    if (args.theta is None) == (args.n is None):
        raise ValueError("give exactly one of --n (saddle parameter) or --theta")
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.polygon_out and args.dim != 2:
        raise ValueError(f"--polygon-out needs dim 2, got {args.dim}")
    if args.theta is not None:
        theta = _finite(args.theta, "--theta")
    else:
        theta = asympt.theta_tilde(args.dim, _finite(args.n, "--n"))
    tracked = [_parse_class(t) for t in args.track or []]
    for coords, j in tracked:
        if len(coords) != args.dim or not primitives.is_primitive(coords, args.dim):
            raise ValueError(f"--track {coords} is not a primitive vector in dim {args.dim}")
        primitives.signed_representative(coords, j)  # rejects an out-of-range sign index
    values = sampler.sample_rows(args.dim, theta, args.cutoff, args.samples, args.seed, tracked)
    columns = next(values)
    rows = [dict(zip(columns, row)) for row in values]
    if args.polygon_out:
        first = sampler.boltzmann_sample(args.dim, theta, args.cutoff, args.seed)
        sampler.write_polygon_csv(args.polygon_out, first)
    return rows


def run_self_test() -> int:
    """Golden checks of the closed-form constants and small exact counts."""
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        if ok:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}  {detail}")

    p_expected = {
        1: (Fraction(1),),
        2: (Fraction(0), Fraction(2)),
        3: (Fraction(1), Fraction(0), Fraction(2)),
        4: (Fraction(0), Fraction(8, 3), Fraction(0), Fraction(4, 3)),
    }
    for d, coeffs in p_expected.items():
        check(f"P_{d} coefficients", asympt.pd_poly(d).coeffs == coeffs,
              f"got {asympt.pd_poly(d).coeffs}")
    rec_ok = all(
        _poly_recursion_holds(d) for d in range(1, 13)
    )
    check("P_d recursion d=1..12", rec_ok)
    for d, want in ((2, Fraction(-11, 9)), (3, Fraction(-13, 8)), (4, Fraction(-521, 225))):
        check(f"beta_{d} exact", asympt.beta_exact(d) == want, f"got {asympt.beta_exact(d)}")
    z3 = special.zeta_real(3)
    q2_closed = 2 ** (2 / 3) * 3 ** (4 / 3) * z3 ** (1 / 3) / math.pi ** (2 / 3)
    q2 = dict(asympt.q_poly(2))[2]
    check("Q_2 leading coefficient", abs(q2 - q2_closed) <= 1e-12 * q2_closed,
          f"{q2} vs {q2_closed}")
    a2_closed = (math.log(2) / 9 + 13 * math.log(3) / 18 + 2 * math.log(z3) / 9
                 - 4 * special.zeta_deriv_neg_int(1) - math.log(6)
                 - 16 * math.log(math.pi) / 9)
    check("ln alpha_2 closed form", abs(asympt.alpha_ln(2) - a2_closed) < 1e-9,
          f"{asympt.alpha_ln(2)} vs {a2_closed}")
    check("zeta(2) Basel", abs(special.zeta_real(2) - math.pi ** 2 / 6) < 1e-14)
    for dim, n, want in ((2, 1, 3), (2, 2, 10), (3, 1, 11)):
        got = exact.zon_coefficient(dim, n)
        check(f"z_{dim}({n}) = {want}", got == want, f"got {got}")
    check("diameter mean (2,1) = 4/3", exact.diameter_moment(2, 1) == Fraction(4, 3))
    diff = abs(asympt.estimate(2, 10 ** 4).ln_z_hat - asympt.estimate_saddle_form(2, 10 ** 4))
    check("dual assembly at d=2, n=1e4", diff < 1e-6, f"diff {diff:.3e}")
    print("self-test:", "PASS" if failures == 0 else f"{failures} FAILURE(S)")
    return 0 if failures == 0 else 1


def _poly_recursion_holds(d: int) -> bool:
    pd, pd1, pd2 = (asympt.pd_poly(k).coeffs for k in (d, d + 1, d + 2))
    rhs = [Fraction(0)] * (d + 2)
    for i, c in enumerate(pd1):
        rhs[i + 1] += Fraction(2, d + 1) * c
    for i, c in enumerate(pd):
        rhs[i] += c
    return tuple(rhs) == pd2


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonocount",
        description="Exact counts, asymptotic estimates, and random sampling of "
                    "lattice zonotopes inscribed in [0,n]^d.",
        epilog="Environment: ZONOCOUNT_MEMORY_BUDGET overrides the ~2 GB memory guard (bytes).",
    )
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded golden suite and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p, with_range=False, with_zeros=False):
        p.add_argument("--dim", type=int, required=True, help="ambient dimension d")
        if with_range:
            p.add_argument("--n", type=int, help="single box size")
            p.add_argument("--n-range", help="inclusive box-size range MIN:MAX")
        if with_zeros:
            p.add_argument("--zeros", help="zeros file (one ordinate per line, # comments)")
            p.add_argument("--m", type=int, default=1, help="number of zeros to sum (default 1)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="write to file instead of stdout")

    p = sub.add_parser("count", help="exact zonotope counts")
    common(p, with_range=True)
    p.add_argument("--cumulative", action="store_true",
                   help="count boxes fitting inside [0,n]^d instead of exact bounding box")

    p = sub.add_parser("compare", help="exact vs closed-form estimate, side by side")
    common(p, with_range=True, with_zeros=True)

    p = sub.add_parser("moments", help="exact diameter / occurrence moments")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", choices=("diameter", "occurrence"), required=True)
    p.add_argument("--v0", help="sign-class vector for occurrence, e.g. 1,1")

    p = sub.add_parser("asympt", help="decomposed closed-form estimate")
    common(p, with_zeros=True)
    p.add_argument("--n", type=float, required=True)

    p = sub.add_parser("icrit", help="oscillatory zero-sum correction")
    common(p, with_zeros=True)
    p.add_argument("--n", type=float, required=True)

    p = sub.add_parser("sample", help="Boltzmann samples at the saddle parameter")
    common(p)
    p.add_argument("--n", type=float, help="box size; theta = (kappa_d/n)^(1/(d+1))")
    p.add_argument("--theta", type=float, help="explicit Boltzmann parameter")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cutoff", type=float, default=1e-12,
                   help="drop classes with q_v below this (default 1e-12)")
    p.add_argument("--track", action="append",
                   help="sign class to record, e.g. 1,1:0 (repeatable)")
    p.add_argument("--polygon-out", help="write the first sample's polygon CSV (dim 2)")
    p.set_defaults(format="csv")
    return parser


_HANDLERS = {
    "count": cmd_count,
    "compare": cmd_compare,
    "moments": cmd_moments,
    "asympt": cmd_asympt,
    "icrit": cmd_icrit,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.self_test:
        if args.command is not None:
            parser.error("--self-test does not take a subcommand")
        return run_self_test()
    if args.command is None:
        parser.error("a subcommand is required (or --self-test)")
    try:
        rows = _HANDLERS[args.command](args)
        _emit(rows, args.command, args.format, args.output)
    except (ValueError, KeyError, OSError, exact.MemoryBudgetError,
            exact.EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
