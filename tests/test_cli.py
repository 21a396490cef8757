import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import zonocount.cli as cli
from zonocount import asympt, exact, sampler, special
from zonocount.cli import _fmt, main, run_self_test


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_json(capsys):
    code, out, err = run_cli(capsys, "count", "--dim", "2", "--n-range", "0:3")
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert [r["z_exact"] for r in doc["rows"]] == [1, 3, 10, 34]
    # emitted JSON round-trips
    assert json.loads(json.dumps(doc)) == doc


def test_count_cumulative_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--dim", "2", "--n", "1",
                           "--cumulative", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dim,n,z_exact,ln_z"
    assert lines[1].startswith("2,1,6,")


def test_count_validation(capsys):
    code, _, err = run_cli(capsys, "count", "--dim", "2")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "count", "--dim", "2", "--n", "1", "--n-range", "1:2")
    assert code == 2
    code, _, err = run_cli(capsys, "count", "--dim", "2", "--n-range", "5:1")
    assert code == 2


def test_compare_header_schema_golden(capsys):
    code, out, _ = run_cli(capsys, "compare", "--dim", "2", "--n-range", "8:10",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,ln_z_exact,ln_alpha,beta_ln_n,q_value,icrit,ln_z_hat,rel_err"
    assert len(lines) == 4
    rel_errs = [abs(float(line.split(",")[-1])) for line in lines[1:]]
    assert all(r < 0.05 for r in rel_errs)


def test_compare_dim_guard(capsys, monkeypatch):
    # any d >= 2: at d = 4 the exact column is ln of count's z
    code, out, _ = run_cli(capsys, "compare", "--dim", "4", "--n-range", "1:3")
    assert code == 0
    ln_z = [row["ln_z_exact"] for row in json.loads(out)["rows"]]
    code, out, _ = run_cli(capsys, "count", "--dim", "4", "--n-range", "1:3")
    assert code == 0
    assert ln_z == [_fmt(math.log(int(row["z_exact"]))) for row in json.loads(out)["rows"]]
    # the table's memory budget and the estimate's d >= 2 still bound it
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", "1000")
    code, out, err = run_cli(capsys, "compare", "--dim", "4", "--n-range", "1:3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET")
    # refused before the table is built, which here would take seconds
    code, _, err = run_cli(capsys, "compare", "--dim", "1", "--n-range", "1:2000000")
    assert code == 2 and err.startswith("error:") and "d >= 2" in err


@pytest.mark.parametrize("argv", [("--n-range=0:300",), ("--n", "0")])
def test_compare_refuses_n_0_before_the_table(capsys, monkeypatch, argv):
    # the estimate needs n >= 1: refused before the largest box is planned
    # or built, where the table of 0:300 takes a second to build
    def refuse(*args):
        raise AssertionError("a refused compare did work")

    monkeypatch.setattr(exact, "_SHARED", {})
    for name in ("_plan", "_extend", "primitive_rows"):
        monkeypatch.setattr(exact, name, refuse)
    code, out, err = run_cli(capsys, "compare", "--dim", "2", *argv)
    assert (code, out, err) == (2, "", "error: n must be >= 1\n")


def test_moments_diameter(capsys):
    code, out, _ = run_cli(capsys, "moments", "--dim", "2", "--n", "1",
                           "--param", "diameter")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["mean"] == "4/3"
    assert row["count"] == 3


def test_moments_occurrence(capsys):
    code, out, _ = run_cli(capsys, "moments", "--dim", "2", "--n", "2",
                           "--param", "occurrence", "--v0", "1,1")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["mean"] == "2/5" and row["variance"] == "11/25"
    code, _, err = run_cli(capsys, "moments", "--dim", "2", "--n", "2",
                           "--param", "occurrence")
    assert code == 2 and "--v0" in err


@pytest.mark.parametrize("v0", ["1,1", ""])
def test_moments_diameter_refuses_v0(capsys, v0):
    code, out, err = run_cli(capsys, "moments", "--dim", "2", "--n", "2",
                             "--param", "diameter", "--v0", v0)
    assert code == 2 and out == ""
    assert err == "error: --v0 applies to --param occurrence only\n"


def test_asympt_includes_both_assembly_routes(capsys):
    code, out, _ = run_cli(capsys, "asympt", "--dim", "2", "--n", "10000")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["assembly_diff"]) < 1e-6
    assert row["beta"] == "-11/9"
    total = row["ln_alpha"] + row["beta_ln_n"] + row["q_value"] + row["icrit"]
    assert abs(total - row["ln_z_hat"]) < 1e-8


def test_icrit_with_zeros_file(capsys, tmp_path):
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("14.134725141734693790\n21.022039638771555\n")
    code, out, _ = run_cli(capsys, "icrit", "--dim", "2", "--n", "1e6",
                           "--zeros", str(zeros), "--m", "2")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["m"] == 2
    assert abs(row["icrit"]) > 0
    assert abs(row["frequency"] - 4.7115750472) < 1e-6


def test_icrit_bad_zeros_file(capsys, tmp_path):
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("10.0\n")
    code, _, err = run_cli(capsys, "icrit", "--dim", "2", "--n", "1e6",
                           "--zeros", str(zeros))
    assert code == 2 and "zeta" in err


def test_sample_csv_deterministic(capsys):
    args = ("sample", "--dim", "2", "--n", "100", "--samples", "5", "--seed", "9",
            "--track", "1,1:0")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "seed,direction_count,endpoint_0,endpoint_1,omega_1_1_c0"
    assert len(lines) == 6


def test_sample_tracks_a_class_beyond_every_integer_type(capsys):
    # 2^70 fits no numpy integer type: the class is beyond the cutoff, so its
    # column is 0, with no traceback
    code, out, err = run_cli(capsys, "sample", "--dim", "2", "--n", "100", "--samples", "1",
                             "--track", "1180591620717411303424,1")
    assert code == 0 and err == ""
    header, row = out.strip().splitlines()
    assert header.endswith(",omega_1180591620717411303424_1_c0") and row.split(",")[-1] == "0"


def test_sample_polygon_out(capsys, tmp_path):
    # the polygon is the first row's sample: its bounding box is that row's
    # endpoint (at these seeds the second row's differs)
    poly = tmp_path / "poly.csv"
    for seed in ("4", "11"):
        code, out, _ = run_cli(capsys, "sample", "--dim", "2", "--n", "50", "--samples", "3",
                               "--seed", seed, "--polygon-out", str(poly))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert poly.read_text().startswith("x,y")
        with open(poly, newline="") as fh:
            xs, ys = zip(*[map(int, vertex) for vertex in list(csv.reader(fh))[1:]])
        box = [str(max(xs) - min(xs)), str(max(ys) - min(ys))]
        assert box == [rows[0]["endpoint_0"], rows[0]["endpoint_1"]]
        assert box != [rows[1]["endpoint_0"], rows[1]["endpoint_1"]]


def test_sample_polygon_out_needs_dim_2(capsys, tmp_path):
    poly = tmp_path / "poly.csv"
    code, out, err = run_cli(capsys, "sample", "--dim", "3", "--n", "2000", "--samples", "20",
                             "--polygon-out", str(poly))
    assert code == 2 and out == ""
    assert err == "error: --polygon-out needs dim 2, got 3\n"
    assert not poly.exists()


def test_sample_theta_xor_n(capsys):
    code, _, err = run_cli(capsys, "sample", "--dim", "2", "--samples", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "sample", "--dim", "2", "--n", "10",
                           "--theta", "0.5")
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (("--samples", "0", "--polygon-out", "poly.csv"), "--samples"),
    (("--samples", "-3"), "--samples"),
    (("--dim", "3", "--track", "1,1:5"), "--track"),
    (("--track", "2,2:0"), "--track"),
    (("--track", "1,1:1", "--track", "1,1:2"), "sign index"),
    (("--track", "1,x:0"), "--track expects V1,...,Vd[:SIGN], got '1,x:0'"),
    (("--track", "1,1:x"), "--track expects V1,...,Vd[:SIGN], got '1,1:x'"),
    (("--track", ",1"), "--track expects V1,...,Vd[:SIGN], got ',1'"),
])
def test_sample_rejects_bad_samples_and_track(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    dims = () if "--dim" in argv else ("--dim", "2")
    code, out, err = run_cli(capsys, "sample", *dims, "--n", "50", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err and len(err.splitlines()) == 1
    assert not (tmp_path / "poly.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (("moments", "--dim", "2", "--n", "2", "--param", "occurrence", "--v0", "1,x"),
     "--v0 expects V1,...,Vd, got '1,x'"),
    (("count", "--dim", "2", "--n-range", "a:3"), "--n-range expects MIN:MAX, got 'a:3'"),
    (("count", "--dim", "2", "--n-range", "5"), "--n-range expects MIN:MAX, got '5'"),
])
def test_malformed_integer_lists_name_the_flag(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", [
    ("asympt", "--n"), ("icrit", "--n"), ("sample", "--n"), ("sample", "--theta"),
])
def test_float_inputs_must_be_finite(capsys, command, flag, value):
    code, out, err = run_cli(capsys, command, "--dim", "2", f"{flag}={value}")
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be finite, got {float(value)}\n"


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "rows.json"
    code, out, _ = run_cli(capsys, "count", "--dim", "1", "--n", "7",
                           "--output", str(out_path))
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["rows"][0]["z_exact"] == 1


@pytest.mark.parametrize("name", ["missing/rows.json", ""])
def test_unwritable_output_is_error(capsys, tmp_path, name):
    # a missing parent directory, then a directory as the target
    code, out, err = run_cli(capsys, "count", "--dim", "2", "--n", "3",
                             "--output", str(tmp_path / name))
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno") and len(err.splitlines()) == 1


def test_memory_guard_surfaces_as_error(capsys, monkeypatch):
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", "1000")
    code, _, err = run_cli(capsys, "count", "--dim", "2", "--n", "50")
    assert code == 2 and "budget" in err


def test_class_budget_surfaces_as_error(capsys):
    # the radius is rounded like the sizes: at theta 1e-160 it has 162 digits
    for theta, radius in (("1e-9", "2.76e+10"), ("1e-160", "2.76e+161")):
        code, out, err = run_cli(capsys, "sample", "--dim", "2", "--theta", theta)
        assert code == 2 and out == ""
        assert err.startswith(f"error: class system of 1-norm radius {radius} in dim 2")
        assert "exceeds budget" in err and len(err.splitlines()) == 1
        assert not re.search(r"\d{21}", err)


@pytest.mark.parametrize("dim, theta", [(2, "1e-160"), (3, "1e-110")])
def test_class_budget_past_float_range_is_error(capsys, dim, theta):
    # the class system needs more than 1e308 bytes: the message still formats
    code, out, err = run_cli(capsys, "sample", "--dim", str(dim), "--theta", theta)
    assert code == 2 and out == ""
    assert err.startswith("error: class system of 1-norm radius") and "exceeds budget" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("count", "--dim", "40", "--n", "1000000000"),
    ("count", "--dim", "31", "--n", "1000000000"),
    ("count", "--dim", "33", "--n", "1"),
    ("moments", "--dim", "40", "--n", "1", "--param", "diameter"),
    # a range stays a range: the plan refuses its largest box before a list
    # of the sizes is made (10^21 ints do not fit one, 4e8 take gigabytes)
    ("count", "--dim", "2", "--n-range", "1:1000000000000000000000"),
    ("compare", "--dim", "2", "--n-range", "1:1000000000000000000000"),
    ("compare", "--dim", "2", "--n", "1000000000000000000000"),
])
def test_oversized_table_names_the_budget(capsys, monkeypatch, argv):
    # sizes past the float range still format, and no cell count is printed in full
    monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceeds budget" in err
    assert len(err.splitlines()) == 1 and not re.search(r"\d{21}", err)


def test_width_refusal_is_an_error(capsys, monkeypatch):
    # under a budget that admits its cells, a box whose kernel rows sum past
    # what float64 products hold exactly is refused by name, with no traceback
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(10 ** 30))
    code, out, err = run_cli(capsys, "count", "--dim", "2", "--n", "67108864")
    assert code == 2 and out == ""
    assert err == ("error: box (67108864, 67108864) in dim 2: its kernel rows sum past what "
                   "float64 products hold exactly\n")


@pytest.mark.parametrize("argv, message", [
    (("asympt", "--dim", "2", "--n", "1e4", "--m", "2"), "m = 2 outside 1..1"),
    (("asympt", "--dim", "2", "--n", "1e4", "--m", "0"), "m = 0 outside 1..1"),
    (("asympt", "--dim", "2", "--n", "1e4", "--m", "4", "--zeros", "zeros.txt"),
     "m = 4 outside 1..3"),
    (("sample", "--dim", "2", "--n", "0"), "n must be positive"),
    (("asympt", "--dim", "2", "--n", "0.5"), "n must be >= 1"),
])
def test_out_of_range_numbers_are_refused(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zeros.txt").write_text("14.134725141734693\n21.022039638771555\n"
                                        "25.010857580145688\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_icrit_gamma_overflow_is_error(capsys):
    code, out, err = run_cli(capsys, "icrit", "--dim", "173", "--n", "1e6")
    assert code == 2 and out == ""
    assert err.startswith("error: gamma overflows") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    *((cmd, "--dim", d, "--n", "1e6") for cmd in ("icrit", "asympt")
      for d in ("180", "1100", "2000")),
    ("sample", "--dim", "1100", "--n", "10"),
])
def test_large_dim_is_refused_fast(capsys, argv):
    # refused before pd_poly's O(d^2) rational work and kappa's 2^(d-1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith(f"error: gamma overflows for d = {argv[2]}:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("dim, samples", [(30, 1), (40, 2)])
def test_empty_high_dim_system_is_served(capsys, dim, samples):
    # at theta = 30 the 1-norm ball has radius 0 and holds no class: the
    # charge counts the ball's classes, not 2^(d - 1) per lattice point, so
    # the sample is served with all-zero rows
    code, out, err = run_cli(capsys, "sample", "--dim", str(dim), "--theta", "30",
                             "--samples", str(samples))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1 + samples
    assert [line.split(",") for line in lines[1:]] == [
        [str(seed)] + ["0"] * (1 + dim) for seed in range(samples)]
    # a ball too large for the budget is still refused
    with pytest.raises(exact.MemoryBudgetError):
        sampler.ClassSystem(2, 1e-9, 1e-12)
    code, out, err = run_cli(capsys, "sample", "--dim", "2", "--theta", "1e-300")
    assert code == 2 and out == ""
    assert err.startswith("error: class system of 1-norm radius") and len(err.splitlines()) == 1


HUGE_DIM = "1000000000000000000000000000000"


@pytest.mark.parametrize("argv", [
    ("count", "--dim", HUGE_DIM, "--n", "6"),
    ("compare", "--dim", HUGE_DIM, "--n", "6"),
    ("moments", "--dim", HUGE_DIM, "--n", "6", "--param", "diameter"),
    ("count", "--dim", "1000000", "--n", "1"),
    ("sample", "--dim", HUGE_DIM, "--theta", "1"),
], ids=" ".join)
def test_huge_dim_is_refused_by_name(argv):
    # in a fresh process, as a user runs it: refused before a d-tuple, a
    # d-axis table or a charge like 2^(d - 1) is made, so neither a
    # traceback nor a hang
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "zonocount.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"error: dimension {argv[2]} exceeds the largest supported, 63\n"


def test_asympt_factorial_overflow_is_error(capsys):
    # I_crit still has a value at d = 172, the estimate's (d - 1)! does not
    code, out, err = run_cli(capsys, "asympt", "--dim", "172", "--n", "1e6")
    assert code == 2 and out == ""
    assert err.startswith("error: (d - 1)! leaves the float range for d = 172:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 65, 100])
@pytest.mark.parametrize("n", ["5e307", "1e308", "1.7e308", "1.7976931348623157e308"])
def test_asympt_finite_near_float_max(capsys, dim, n):
    # d n theta must not overflow where n theta = O(n^(d/(d+1))) is finite;
    # nor may n, echoed at 15 digits, round past the largest double
    code, out, err = run_cli(capsys, "asympt", "--dim", str(dim), "--n", n)
    assert code == 0 and not err
    row = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the output"))["rows"][0]
    assert all(math.isfinite(v) for v in row.values() if isinstance(v, float))
    assert abs(row["assembly_diff"]) < 1e-9 * abs(row["ln_z_hat"])


@pytest.mark.parametrize("dim", [140, 160, 171])
def test_asympt_non_finite_output_is_error(capsys, tmp_path, dim):
    # q_value overflows at these d: Infinity and NaN are not JSON, so nothing is written
    target = tmp_path / "out.json"
    for extra in ((), ("--output", str(target))):
        code, out, err = run_cli(capsys, "asympt", "--dim", str(dim), "--n", "1e308", *extra)
        assert code == 2 and out == ""
        assert err == "error: q_value is not finite: inf\n"
    assert not target.exists()


def test_negative_seed_is_error(capsys):
    code, out, err = run_cli(capsys, "sample", "--dim", "2", "--n", "100", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: seed must be a nonnegative integer\n"


def test_diameter_memory_guard_fails_fast(capsys):
    # the table guard refuses before the box of primitive vectors is built
    code, out, err = run_cli(capsys, "moments", "--dim", "2", "--n", "100000",
                             "--param", "diameter")
    assert code == 2 and out == ""
    assert err.startswith("error: table of") and "exceeds budget" in err


@pytest.mark.parametrize("flags", [("--theta", "1e-320"), ("--theta", "1e-310")])
def test_infinite_class_radius_is_error(capsys, flags):
    # -ln cutoff / theta overflows; a subnormal cutoff alone does not (below)
    code, out, err = run_cli(capsys, "sample", "--dim", "2", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: cutoff") and "not finite" in err
    assert len(err.splitlines()) == 1


def test_subnormal_cutoff_is_served(capsys):
    # 1 / 1e-320 overflows, but the radius -ln(1e-320) / 3 is 245.6
    code, out, err = run_cli(capsys, "sample", "--dim", "2", "--theta", "3",
                             "--cutoff", "1e-320", "--samples", "2")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("budget, samples, charged", [(str(10 ** 7), "100000", "1e+05"),
                                                      (None, "100000000000", "1e+11")])
def test_held_sample_rows_are_charged(capsys, monkeypatch, budget, samples, charged):
    # the command holds every row until it writes them: rows beyond the
    # budget are refused by name before the first draw
    def refuse(*args):
        raise AssertionError("a refused request drew")

    monkeypatch.setattr(sampler, "_draw", refuse)
    if budget is None:
        monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET", raising=False)
    else:
        monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", budget)
    code, out, err = run_cli(capsys, "sample", "--dim", "1", "--theta", "5", "--samples", samples)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {charged} sample rows of 3 columns") and "exceeds budget" in err
    assert len(err.splitlines()) == 1


def test_unknown_flag_is_hard_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--dim", "2", "--n", "1", "--frobnicate"])
    assert exc.value.code == 2


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


class _Parsed(Exception):
    """Raised in place of a handler or the self-test, with what main parsed."""


# every subcommand, --flag=value forms, a missing required flag, unknown and
# leftover arguments after a subcommand, a bad choice, a bad int, help, the
# argv lists that go to the top-level parser, and the forms main's one pass
# over a parser's actions must decline or parse as argparse does: negative
# values, a repeated option, an empty value, a value that names an option, an
# abbreviation, an option left without its value and help after plain options
ARGV_CORPUS = [
    ["count", "--dim", "2", "--n", "3"],
    ["count", "--dim=2", "--n-range=1:4", "--cumulative", "--format=csv"],
    ["count", "--dim", "2", "--n", "3", "--cum"],
    ["compare", "--dim", "3", "--n-range", "3:5", "--zeros", "zeros.txt", "--m", "2"],
    ["moments", "--dim", "2", "--n", "4", "--param", "occurrence", "--v0", "1,1"],
    ["moments", "--dim=3", "--n=2", "--param=diameter", "--output=out.json"],
    ["asympt", "--dim", "3", "--n", "1e6"],
    ["icrit", "--dim", "2", "--n", "1e5", "--m", "1", "--format", "csv"],
    ["sample", "--dim", "2", "--n", "1000", "--track", "1,1:0", "--track", "1,0", "--seed=4"],
    ["sample", "--dim", "2", "--theta", "0.5", "--format", "json", "--polygon-out", "p.csv"],
    ["count", "--n", "3"],
    ["moments", "--dim", "2", "--n", "4"],
    ["count", "--dim", "2", "--n", "3", "--bogus"],
    ["count", "--dim", "2", "--n", "3", "--bogus=1", "extra", "words"],
    ["asympt", "--dim", "2", "--n", "1e4", "--", "--m", "2"],
    ["count", "--self-test"],
    ["count", "--dim", "2", "--n", "3", "--self-test"],
    ["sample", "-h"],
    ["icrit", "--help"],
    ["moments", "--dim", "2", "--n", "4", "--param", "mean"],
    ["count", "--dim", "2", "--n", "3", "--format", "xml"],
    ["count", "--dim", "2.5", "--n", "3"],
    ["asympt", "--dim", "2", "--n", "lots"],
    ["--self-test"],
    ["--self-test", "count", "--dim", "2", "--n", "3"],
    ["-h"],
    [],
    ["frobnicate", "--dim", "2"],
    ["--dim", "2", "count"],
    ["asympt", "--dim", "2", "--n", "-5"],
    ["sample", "--dim", "2", "--n", "1000", "--samples", "2", "--seed", "-1"],
    ["count", "--dim", "2", "--dim", "3", "--n", "3"],
    ["count", "--dim", "2", "--n", "3", "--output", ""],
    ["compare", "--dim", "2", "--n", "3", "--zeros", "--m", "2"],
    ["sample", "--dim", "2", "--n", "1000", "--samp", "3"],
    ["count", "--dim", "2", "--n"],
    ["moments", "--dim", "2", "--n", "4", "--param", "diameter", "--help"],
]


def _assert_main_parses_as_the_top_level_parser(capsys, monkeypatch, argv):
    # main parses plain arguments in one pass over a parser's actions, and
    # others with the subcommand's parser alone: it must hand on the
    # Namespace, print the text and exit with the code that one pass of the
    # top-level parser gives
    try:
        want, want_code = cli._parsers()[0].parse_args(argv), None
    except SystemExit as exc:
        want, want_code = None, exc.code
    want_out = capsys.readouterr()

    def parsed(args=None):
        raise _Parsed(args)

    for name in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, name, parsed)
    monkeypatch.setattr(cli, "run_self_test", parsed)
    got, code = None, None
    try:
        main(argv)
    except _Parsed as exc:
        got = exc.args[0]
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    if want is None:
        assert (code, out.out, out.err) == (want_code, want_out.out, want_out.err)
        assert got is None
    elif want.self_test:  # main's own checks of the top-level parse
        assert code == (2 if want.command else None) and got is None
        assert ("does not take a subcommand" in out.err) == (code == 2)
    elif want.command is None:
        assert code == 2 and "a subcommand is required" in out.err
    else:
        assert got == want and (code, out.out, out.err) == (None, "", "")


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
def test_main_parses_as_the_top_level_parser(capsys, monkeypatch, argv):
    _assert_main_parses_as_the_top_level_parser(capsys, monkeypatch, argv)


# values argparse refuses or parses alone: a bad choice or number, negatives
# (it takes "-1e3" for an option), "-" forms, an empty string, an option's
# name and a stray subcommand
_BAD_VALUES = ["xml", "mean", "2.5", "x", "3:1", "-1", "-5", "-2.5", "-1e3", "-1,1", "-", "-h",
               "--m", "--", "", "count"]


@st.composite
def _argv_forms(draw):
    """An argv drawn from the parsers' own option strings: its parser's
    required options (most of the time) and a few others, each with a value
    it takes, and at most one form argparse alone parses or refuses: a bad
    value, or an option of any parser as a pair, a --flag=value join, a
    prefix, a bare flag or a stray value."""
    parser, subcommands, options = cli._parsers()
    command = draw(st.sampled_from([None, *sorted(subcommands)]))
    own = options[subcommands[command] if command else parser]
    picked = [flag for flag, action in own.items() if action.required and draw(st.integers(0, 9))]
    picked += draw(st.lists(st.sampled_from(sorted(own)), max_size=6))
    items = [[flag] if own[flag].nargs == 0
             else [flag, draw(st.sampled_from(own[flag].choices or ["2", "3"]))]
             for flag in picked]
    odd = draw(st.sampled_from(["none"] * 4 + ["value"] * 2
                               + ["pair", "=", "prefix", "flag", "stray"]))
    valued = [item for item in items if len(item) == 2]
    if odd == "value" and valued:
        draw(st.sampled_from(valued))[1] = draw(st.sampled_from(_BAD_VALUES))
    elif odd not in ("none", "value"):
        flags = sorted({flag for actions in options.values() for flag in actions})
        flag = draw(st.sampled_from(flags + ["--help", "-h", "--"]))
        value = draw(st.sampled_from(["2", *_BAD_VALUES]))
        items.append({"pair": [flag, value], "=": [f"{flag}={value}"], "flag": [flag],
                      "prefix": [flag[:draw(st.integers(2, len(flag)))], value],
                      "stray": [value]}[odd])
    head = [command] if command else []
    return head + [token for item in draw(st.permutations(items)) for token in item]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv_forms())
@example(argv=["count", "--dim", "2", "--format", "xml"])
@example(argv=["moments", "--dim", "2", "--n", "4"])
@example(argv=["sample", "--dim", "2", "--track", "1,1:0"])
@example(argv=["count", "--dim", "2", "--output", "-1,1"])
@example(argv=["count", "--dim", "2", "--output", "--cumulative"])
def test_main_parses_drawn_argv_as_the_top_level_parser(capsys, monkeypatch, argv):
    # a "--=" token is ambiguous to both parsers, which name different
    # candidates (test_an_ambiguous_option_after_a_subcommand_is_refused)
    assume(not any(token.startswith("--=") for token in argv))
    _assert_main_parses_as_the_top_level_parser(capsys, monkeypatch, argv)


_PLAIN_REQUESTS = [
    ("count", "--dim", "2", "--n-range", "1:6", "--cumulative"),
    ("count", "--dim", "3", "--n", "2", "--format", "csv"),
    ("compare", "--dim", "2", "--n-range", "8:10", "--zeros", "zeros.txt", "--m", "2"),
    ("moments", "--dim", "2", "--n", "3", "--param", "occurrence", "--v0", "1,1"),
    ("moments", "--dim", "2", "--n", "3", "--param", "diameter"),
    ("asympt", "--dim", "3", "--n", "1e6", "--zeros", "zeros.txt", "--m", "2"),
    ("icrit", "--dim", "2", "--n", "1e5"),
    ("sample", "--dim", "2", "--n", "1000", "--cutoff", "1e-3", "--samples", "3",
     "--seed", "5", "--track", "1,1:0", "--track", "1,0"),
    ("--self-test",),
]


def _equals_spelling(argv):
    """argv with each --flag value pair joined as --flag=value."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not token.startswith("--"):
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def test_plain_requests_are_served_without_argparse_parsing(capsys, monkeypatch, tmp_path):
    # every kind of plain request the benchmark's workloads make runs with
    # argparse's parse disabled, and prints what the --flag=value spelling,
    # which argparse parses, prints
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zeros.txt").write_text("14.134725141734693\n21.022039638771555\n")
    want = [run_cli(capsys, *_equals_spelling(argv)) for argv in _PLAIN_REQUESTS]
    assert all(code == 0 and out and not err for code, out, err in want)

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain request")

    for name in ("parse_known_args", "parse_args"):
        monkeypatch.setattr(argparse.ArgumentParser, name, refuse)
    assert [run_cli(capsys, *argv) for argv in _PLAIN_REQUESTS] == want


def test_importing_the_cli_builds_no_parser():
    # the parsers are built by the first request, not at import
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import zonocount.cli as cli; print(cli._parsers.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_main_reads_sys_argv(capsys, monkeypatch):
    argv = ["count", "--dim", "2", "--n", "3"]
    monkeypatch.setattr("sys.argv", ["zonocount", *argv])
    assert main() == 0
    assert capsys.readouterr().out == run_cli(capsys, *argv)[1]


def test_an_ambiguous_option_after_a_subcommand_is_refused(capsys):
    # "--=x" is a prefix of every long option; the subcommand's parser names
    # its own options where one top-level pass named --help and --self-test
    with pytest.raises(SystemExit) as exc:
        main(["count", "--dim", "2", "--=x"])
    assert exc.value.code == 2
    assert "zonocount count: error: ambiguous option: --=x could match" in capsys.readouterr().err


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-2 ** 60, 2 ** 60),
    st.sampled_from([2 ** 53 - 1, 2 ** 53, -2 ** 53, -2 ** 53 + 1, 2 ** 64]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e-320, 5e-324, 1.7976931348623157e308, 1e16, 1e-5, 0.1]),
    st.fractions(),
    st.text(), st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600a')),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.one_of(st.sampled_from(sorted(cli._HANDLERS)), st.text()),
       rows=st.lists(st.dictionaries(st.text(), _JSON_SCALARS, max_size=6), max_size=4))
@example(command="count", rows=[])
@example(command="count", rows=[{}])
@example(command="asympt", rows=[{}, {"n": -0.0, "q": 1.5e300, 'a"\\': "\u00e9\n", "big": 2 ** 53}])
def test_json_bytes_are_those_of_json_dumps(capsys, command, rows):
    cli._emit(rows, command, "json", None)
    doc = {"schema_version": 1, "command": command,
           "rows": [{k: _fmt(v) for k, v in row.items()} for row in rows]}
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_self_test_passes(capsys):
    assert run_self_test() == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_self_test_reports_each_failure(capsys, monkeypatch):
    monkeypatch.setattr(exact, "zon_coefficient", lambda dim, n: 0)
    code, out, _ = run_cli(capsys, "--self-test")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL z_2(1) = 3  got 0" in lines
    assert sum(line.startswith("FAIL ") for line in lines) == 3  # z_2(1), z_2(2), z_3(1)
    assert lines[-1] == "self-test: 3 FAILURE(S)"


def _clear_asymptotic_memos() -> set[str]:
    cleared = set()
    for mod in (asympt, special, cli):
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
                cleared.add(name)
    return cleared


def test_cold_and_warm_memos_print_the_same_bytes(capsys, tmp_path):
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("14.134725141734693\n21.022039638771555\n25.010857580145688\n")
    runs = [("--self-test",)]
    for d in ("2", "3", "4"):
        for zero_args in ((), *(("--zeros", str(zeros), "--m", m) for m in "123")):
            runs += [("asympt", "--dim", d, "--n", "1000", *zero_args),
                     ("icrit", "--dim", d, "--n", "1e6", *zero_args),
                     ("compare", "--dim", d, "--n-range", "3:5", *zero_args)]
    for argv in runs:
        cleared = _clear_asymptotic_memos()
        cold = run_cli(capsys, *argv)
        assert cold[0] == 0 and run_cli(capsys, *argv) == cold, argv
    assert {"kappa", "alpha_ln", "beta_exact", "q_poly", "_zero_weight", "refine_zero",
            "_line_residual", "_poly_recursion_holds"} <= cleared


def test_big_integers_emitted_as_strings(capsys):
    code, out, _ = run_cli(capsys, "count", "--dim", "1", "--n", "2")
    assert code == 0  # small values stay numeric
    assert json.loads(out)["rows"][0]["z_exact"] == 1
    from zonocount.cli import _fmt

    assert _fmt(2 ** 60) == str(2 ** 60)
    assert _fmt(10) == 10
    from fractions import Fraction

    assert _fmt(Fraction(4, 3)) == "4/3"


def _vector(dim, hi):
    return st.tuples(*[st.integers(0, hi)] * dim).filter(lambda v: math.gcd(*v) == 1)


def _joined(v):
    return ",".join(map(str, v))


@st.composite
def _small_runs(draw):
    kind = draw(st.sampled_from(["count", "moments", "sample"]))
    if kind == "count":
        dim = draw(st.integers(1, 3))
        argv = ["count", "--dim", dim, "--n-range", f"1:{draw(st.integers(1, 8 // dim))}"]
        return argv + draw(st.sampled_from([[], ["--cumulative"]]))
    if kind == "moments":
        dim, n = draw(st.integers(2, 3)), draw(st.integers(1, 3))
        argv = ["moments", "--dim", dim, "--n", n]
        if draw(st.booleans()):
            return argv + ["--param", "diameter"]
        return argv + ["--param", "occurrence", "--v0", _joined(draw(_vector(dim, n)))]
    dim = draw(st.integers(1, 3))
    argv = ["sample", "--dim", dim, "--theta", draw(st.sampled_from([0.3, 0.8, 2.0])),
            "--cutoff", "1e-3", "--samples", draw(st.integers(1, 4)),
            "--seed", draw(st.integers(0, 50))]
    for v in draw(st.lists(_vector(dim, 3), min_size=1, max_size=2)):
        argv += ["--track", f"{_joined(v)}:0"]
    return argv


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_small_runs())
@example(argv=["moments", "--dim", 2, "--n", 3, "--param", "occurrence", "--v0", "1,1"])
def test_json_and_csv_rows_agree(capsys, argv):
    argv = [str(a) for a in argv]
    code, out_json, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    code, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    want = [{k: str(v) for k, v in row.items()} for row in json.loads(out_json)["rows"]]
    assert list(csv.DictReader(io.StringIO(out_csv))) == want
