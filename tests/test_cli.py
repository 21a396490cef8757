import csv
import io
import json
import math
import re
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zonocount.cli import COMPARE_COLUMNS, _fmt, main, run_self_test


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
    assert lines[0] == ",".join(COMPARE_COLUMNS)
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
    assert code == 2 and err.startswith("error:") and "dim >= 2" in err


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


def test_sample_polygon_out(capsys, tmp_path):
    poly = tmp_path / "poly.csv"
    code, _, _ = run_cli(capsys, "sample", "--dim", "2", "--n", "50",
                         "--samples", "1", "--seed", "4", "--polygon-out", str(poly))
    assert code == 0
    assert poly.read_text().startswith("x,y")


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
])
def test_oversized_table_names_the_budget(capsys, monkeypatch, argv):
    # sizes past the float range still format, and no cell count is printed in full
    monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceeds budget" in err
    assert len(err.splitlines()) == 1 and not re.search(r"\d{21}", err)


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


def test_asympt_factorial_overflow_is_error(capsys):
    # I_crit still has a value at d = 172, the estimate's (d - 1)! does not
    code, out, err = run_cli(capsys, "asympt", "--dim", "172", "--n", "1e6")
    assert code == 2 and out == ""
    assert err.startswith("error: (d - 1)! leaves the float range for d = 172:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 65, 100])
@pytest.mark.parametrize("n", ["5e307", "1e308", "1.7e308"])
def test_asympt_finite_near_float_max(capsys, dim, n):
    # d n theta must not overflow where n theta = O(n^(d/(d+1))) is finite
    code, out, err = run_cli(capsys, "asympt", "--dim", str(dim), "--n", n)
    assert code == 0 and not err
    row = json.loads(out)["rows"][0]
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


@pytest.mark.parametrize("flags", [("--theta", "0.5", "--cutoff", "1e-320"),
                                   ("--theta", "1e-310")])
def test_infinite_class_radius_is_error(capsys, flags):
    code, out, err = run_cli(capsys, "sample", "--dim", "2", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: cutoff") and "not finite" in err
    assert len(err.splitlines()) == 1


def test_unknown_flag_is_hard_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--dim", "2", "--n", "1", "--frobnicate"])
    assert exc.value.code == 2


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_self_test_passes(capsys):
    assert run_self_test() == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


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
