"""Command-line surface.

Subcommands wrap the library layers and emit either JSON (schema-versioned
envelope, floats at 15 significant digits, big integers and exact rationals
as strings) or CSV.  `--self-test` runs the embedded golden suite and exits
nonzero on any mismatch.

A plain request, each option spelled out in full and its value in the next
argument, is parsed in one pass over its parser's own argparse actions,
calling each as argparse would.  argparse parses every other form
(--opt=value, abbreviations, --, help, a value starting with "-", unknown
flags and every error), so usage, help and error text are all its own: when
the first argument names a subcommand, main parses the rest with that
subcommand's parser alone, which is what the top-level parser would hand
them to.  The JSON text is written directly, scalar by scalar with the json
module's C string encoder; its bytes are those of json.dumps(envelope,
indent=2) plus a newline, which with an indent would take json's pure-Python
encoder.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import asympt, exact, sampler, special
from .primitives import _check_dim

SCHEMA_VERSION = 1


def _fmt(value):
    if isinstance(value, float):
        rounded = float(f"{value:.15g}")
        # within rounding of the largest double the 15 digits overflow
        return value if math.isinf(rounded) else rounded
    if isinstance(value, int):
        # big counts do not survive double-precision JSON parsers
        return str(value) if abs(value) >= 2 ** 53 else value
    if isinstance(value, Fraction):  # after int: an ABC check, the slower one
        return f"{value.numerator}/{value.denominator}"
    return value


def _cell(key: str, value):
    """_fmt(value); ValueError for a float that is not finite (not valid JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} is not finite: {value}")
    return _fmt(value)


def _json(value) -> str:
    """A value _fmt returns, as json.dumps writes it."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_envelope(command: str, rows: list[dict]) -> str:
    """json.dumps of the envelope with indent=2, and a newline."""
    items = []
    for row in rows:
        fields = ",\n      ".join([f"{_json_str(k)}: {_json(_cell(k, v))}" for k, v in row.items()])
        items.append("{\n      " + fields + "\n    }" if fields else "{}")
    listing = "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"
    return (f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "command": {_json_str(command)},'
            f'\n  "rows": {listing}\n}}\n')


def _emit(rows: list[dict], command: str, fmt: str, output) -> None:
    if fmt == "json":
        text = _json_envelope(command, rows)
    else:
        table = [[_cell(k, v) for k, v in row.items()] for row in rows]
        buf = io.StringIO()
        if rows:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0].keys())
            writer.writerows(table)
        text = buf.getvalue()
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(args) -> range:
    """The box sizes of --n or --n-range, as a range: a huge one is refused by
    the table's plan, not by the memory of a list."""
    if args.n is not None and args.n_range is not None:
        raise ValueError("give either --n or --n-range, not both")
    if args.n is not None:
        return range(args.n, args.n + 1)
    if args.n_range is not None:
        lo, _, hi = args.n_range.partition(":")
        try:
            lo_i, hi_i = int(lo), int(hi)  # without a colon hi is "" and fails here
        except ValueError:
            raise ValueError(f"--n-range expects MIN:MAX, got {args.n_range!r}") from None
        if lo_i > hi_i:
            raise ValueError("--n-range expects MIN <= MAX")
        return range(lo_i, hi_i + 1)
    raise ValueError("one of --n or --n-range is required")


def _parse_v0(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"--v0 expects V1,...,Vd, got {text!r}") from None


def _parse_class(text: str, dim: int) -> sampler.ClassId:
    coords, sep, idx = text.partition(":")
    try:
        class_id = (_parse_v0(coords), int(idx) if sep else 0)
    except ValueError:
        raise ValueError(f"--track expects V1,...,Vd[:SIGN], got {text!r}") from None
    try:
        return sampler._class_id(dim, class_id)
    except ValueError as exc:
        raise ValueError(f"--track {text}: {exc}") from None


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
    table = exact.shared_table(args.dim, ns[-1])
    rows = []
    for n in ns:
        if args.cumulative:
            z = table.total(n)
        else:
            z = table.coefficient(n)
        rows.append({"dim": args.dim, "n": n, "z_exact": z, "ln_z": math.log(z)})
    return rows


def cmd_compare(args) -> list[dict]:
    ns = _parse_range(args)
    zeros = _load_zeros(args)
    # refused before the table: a d it cannot hold, then d < 2 or n < 1
    _check_dim(args.dim)
    asympt.estimate(args.dim, ns[0], zeros)
    table = exact.shared_table(args.dim, ns[-1])
    rows = []
    for n in ns:
        z = table.coefficient(n)
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
        if args.v0 is not None:
            raise ValueError("--v0 applies to --param occurrence only")
        pair = exact.diameter_numerators(args.dim, args.n)
        return [{"dim": args.dim, "n": args.n, "param": "diameter",
                 "count": pair.count, "mean": pair.mean}]
    if not args.v0:
        raise ValueError("--v0 is required for occurrence moments")
    v0 = _parse_v0(args.v0)
    pair = exact.occurrence_numerators(args.dim, args.n, v0)
    return [{"dim": args.dim, "n": args.n, "param": "occurrence",
             "v0": ",".join(map(str, v0)), "mean": pair.mean, "variance": pair.variance}]


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
    tracked = [_parse_class(t, args.dim) for t in args.track or []]
    values = sampler.sample_rows(args.dim, theta, args.cutoff, args.samples, args.seed, tracked)
    columns = next(values)
    # every row is held until the output is written: charged before the first draw
    sampler._charge_rows(args.samples, columns)
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
        check(f"P_{d} coefficients", asympt.pd_poly(d) == coeffs, f"got {asympt.pd_poly(d)}")
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
    check("diameter mean (2,1) = 4/3", exact.diameter_numerators(2, 1).mean == Fraction(4, 3))
    diff = abs(asympt.estimate(2, 10 ** 4).ln_z_hat - asympt.estimate_saddle_form(2, 10 ** 4))
    check("dual assembly at d=2, n=1e4", diff < 1e-6, f"diff {diff:.3e}")
    print("self-test:", "PASS" if failures == 0 else f"{failures} FAILURE(S)")
    return 0 if failures == 0 else 1


@functools.lru_cache(maxsize=None)
def _poly_recursion_holds(d: int) -> bool:
    pd, pd1, pd2 = (asympt.pd_poly(k) for k in (d, d + 1, d + 2))
    rhs = [Fraction(0)] * (d + 2)
    for i, c in enumerate(pd1):
        rhs[i + 1] += Fraction(2, d + 1) * c
    for i, c in enumerate(pd):
        rhs[i] += c
    return tuple(rhs) == pd2


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser],
                        dict[argparse.ArgumentParser, dict[str, argparse.Action]]]:
    """The top-level parser, each subcommand's parser by name, and for each of
    these parsers its actions by option string, as add_argument returned them."""
    options = {}

    def add(p, *flags, **kwargs):
        action = p.add_argument(*flags, **kwargs)
        options.setdefault(p, {}).update(dict.fromkeys(action.option_strings, action))

    parser = argparse.ArgumentParser(
        prog="zonocount",
        description="Exact counts, asymptotic estimates, and random sampling of "
                    "lattice zonotopes inscribed in [0,n]^d.",
        epilog="Environment: ZONOCOUNT_MEMORY_BUDGET overrides the ~2 GB memory guard (bytes).",
    )
    add(parser, "--self-test", action="store_true",
        help="run the embedded golden suite and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p, with_range=False, with_zeros=False):
        add(p, "--dim", type=int, required=True, help="ambient dimension d")
        if with_range:
            add(p, "--n", type=int, help="single box size")
            add(p, "--n-range", help="inclusive box-size range MIN:MAX")
        if with_zeros:
            add(p, "--zeros", help="zeros file (one ordinate per line, # comments)")
            add(p, "--m", type=int, default=1, help="number of zeros to sum (default 1)")
        add(p, "--format", choices=("json", "csv"), default="json")
        add(p, "--output", help="write to file instead of stdout")

    p = sub.add_parser("count", help="exact zonotope counts")
    common(p, with_range=True)
    add(p, "--cumulative", action="store_true",
        help="count boxes fitting inside [0,n]^d instead of exact bounding box")

    p = sub.add_parser("compare", help="exact vs closed-form estimate, side by side")
    common(p, with_range=True, with_zeros=True)

    p = sub.add_parser("moments", help="exact diameter / occurrence moments")
    common(p)
    add(p, "--n", type=int, required=True)
    add(p, "--param", choices=("diameter", "occurrence"), required=True)
    add(p, "--v0", help="sign-class vector for occurrence, e.g. 1,1")

    p = sub.add_parser("asympt", help="decomposed closed-form estimate")
    common(p, with_zeros=True)
    add(p, "--n", type=float, required=True)

    p = sub.add_parser("icrit", help="oscillatory zero-sum correction")
    common(p, with_zeros=True)
    add(p, "--n", type=float, required=True)

    p = sub.add_parser("sample", help="Boltzmann samples at the saddle parameter")
    common(p)
    add(p, "--n", type=float, help="box size; theta = (kappa_d/n)^(1/(d+1))")
    add(p, "--theta", type=float, help="explicit Boltzmann parameter")
    add(p, "--samples", type=int, default=1)
    add(p, "--seed", type=int, default=0)
    add(p, "--cutoff", type=float, default=1e-12,
        help="drop classes with q_v below this (default 1e-12)")
    add(p, "--track", action="append",
        help="sign class to record, e.g. 1,1:0 (repeatable)")
    add(p, "--polygon-out", help="write the first sample's polygon CSV (dim 2)")
    p.set_defaults(format="csv")
    return parser, sub.choices, options


_HANDLERS = {
    "count": cmd_count,
    "compare": cmd_compare,
    "moments": cmd_moments,
    "asympt": cmd_asympt,
    "icrit": cmd_icrit,
    "sample": cmd_sample,
}


def _plain_args(parser, actions, tokens, command):
    """The Namespace one top-level parse gives command and tokens, made in
    one pass that calls the actions of parser (command's own parser, or the
    top-level one); None for a form left to argparse: a token that is not
    an exact option string, a value missing or starting with "-", a value
    its type or choices refuse, or a required option left out."""
    args = argparse.Namespace(self_test=False, command=command)
    for action in actions.values():
        setattr(args, action.dest, action.default)
    seen = set()
    tokens = iter(tokens)
    for option in tokens:
        action = actions.get(option)
        if action is None:
            return None
        value = []  # what argparse hands a zero-nargs action
        if action.nargs != 0:
            text = next(tokens, "-")  # a missing value declines as a "-" one
            if text.startswith("-"):
                return None
            try:
                value = action.type(text) if action.type else text
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        action(parser, args, value, option)
        seen.add(action)
    if any(action.required and action not in seen for action in actions.values()):
        return None
    return args


def main(argv=None) -> int:
    parser, subcommands, options = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in subcommands else None
    own = subcommands[command] if command else parser
    args = _plain_args(own, options[own], argv[1:] if command else argv, command)
    if args is None and command:
        # what parser.parse_args does, without its own pass over the arguments
        args, extra = own.parse_known_args(
            argv[1:], argparse.Namespace(self_test=False, command=command))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    elif args is None:
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
