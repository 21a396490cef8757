import cmath
import math
import random
import re
import sys
from fractions import Fraction

import mpmath
import pytest

import zonocount.special as special
from zonocount import (
    SpecialFunctionError,
    ZeroVerificationError,
    ZetaZero,
    bernoulli,
    first_zero,
    gamma_complex,
    load_zeros_file,
    refine_zero,
    zeta_complex,
    zeta_deriv_neg_int,
    zeta_neg_int,
    zeta_real,
)

# Classical reference values.
ZETA_3 = 1.2020569031595943
ZETA_5 = 1.0369277551433699
ZETA_DERIV_2 = -0.93754825431584375
ZETA_DERIV_NEG1 = -0.16542114370045092  # 1/12 - ln(Glaisher)
RHO1_T = 14.134725141734693790
ZETA_DERIV_RHO1 = 0.78329651186703093 + 0.12469982974817109j
SECOND_ZERO_T = 21.022039638771555
THIRD_ZERO_T = 25.010857580145689


def test_bernoulli_table():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)
    # up to m = 172, what the asymptotic layer's d <= 172 asks of zeta(-k): odd
    # indices vanish, signs alternate, and the denominator of B_2k is the product
    # of the primes p with (p - 1) | 2k (von Staudt-Clausen)
    assert bernoulli(65) == 0
    for k in range(1, 87):
        b = bernoulli(2 * k)
        assert (b > 0) == (k % 2 == 1)
        primes = [p for p in range(2, 2 * k + 2) if all(p % q for q in range(2, p))]
        assert b.denominator == math.prod(p for p in primes if (2 * k) % (p - 1) == 0)
    with pytest.raises(SpecialFunctionError):
        bernoulli(-1)


def test_neg_int_index_is_refused():
    for f in (zeta_neg_int, zeta_deriv_neg_int):
        with pytest.raises(SpecialFunctionError, match="^k must be >= 0$"):
            f(-1)


def test_zeta_neg_int():
    assert zeta_neg_int(0) == Fraction(-1, 2)
    assert zeta_neg_int(1) == Fraction(-1, 12)
    assert zeta_neg_int(2) == 0
    assert zeta_neg_int(3) == Fraction(1, 120)


def test_zeta_real_basel():
    assert abs(zeta_real(2) - math.pi ** 2 / 6) < 1e-14


def test_zeta_real_apery():
    assert abs(zeta_real(3) - ZETA_3) < 1e-14


def test_zeta_real_large_s():
    # leading Dirichlet correction at s = 50
    assert abs(zeta_real(50) - 1 - 2.0 ** -50) < 2e-16


def test_zeta_real_domain():
    with pytest.raises(SpecialFunctionError):
        zeta_real(1.0)
    with pytest.raises(SpecialFunctionError):
        zeta_real(0.5)


def test_zeta_deriv_neg_int_zero():
    assert abs(zeta_deriv_neg_int(0) + 0.5 * math.log(2 * math.pi)) < 1e-15


def test_zeta_deriv_neg_even_closed_form():
    # zeta'(-2k) = (-1)^k (2k)! zeta(2k+1) / (2 (2pi)^(2k))
    want2 = -ZETA_3 / (4 * math.pi ** 2)
    assert abs(zeta_deriv_neg_int(2) - want2) < 1e-12
    want4 = math.factorial(4) * ZETA_5 / (2 * (2 * math.pi) ** 4)
    assert abs(zeta_deriv_neg_int(4) - want4) < 1e-12


def test_zeta_deriv_neg_odd_vs_glaisher():
    assert abs(zeta_deriv_neg_int(1) - ZETA_DERIV_NEG1) < 1e-12


def test_zeta_deriv_neg_odd_vs_finite_difference():
    # independent route: continuation of zeta around s = -1, -3
    for k in (1, 3):
        h = 1e-4
        fd = (zeta_complex(-k + h) - zeta_complex(-k - h)).real / (2 * h)
        assert abs(zeta_deriv_neg_int(k) - fd) < 1e-7


def test_zeta_complex_matches_real_axis(mp):
    s = 1.1
    while s <= 30:
        assert abs(zeta_complex(complex(s, 0)) - float(mp.zeta(s))) < 1e-12, s
        s += 1.3


def test_zeta_complex_continuation_anchor():
    assert abs(zeta_complex(-1) - (-1 / 12)) < 1e-12
    assert abs(zeta_complex(0) - (-1 / 2)) < 1e-12
    # reflection region
    assert abs(zeta_complex(-2.5) - 0.0085169287778503305) < 1e-12


def test_zeta_complex_poles_and_range():
    with pytest.raises(SpecialFunctionError):
        zeta_complex(1)
    with pytest.raises(SpecialFunctionError):
        zeta_complex(complex(0.5, 101))


def test_functional_equation_residual():
    rng = random.Random(20240811)
    checked = 0
    while checked < 50:
        s = complex(rng.uniform(-1, 2), rng.uniform(-30, 30))
        if abs(s - 1) < 0.1 or abs(s) < 0.1:
            continue
        chi = (2 ** s * cmath.exp((s - 1) * math.log(math.pi))
               * cmath.sin(math.pi * s / 2) * gamma_complex(1 - s))
        residual = abs(zeta_complex(s) - chi * zeta_complex(1 - s))
        assert residual < 1e-8, (s, residual)
        checked += 1


def test_conjugate_symmetry():
    for s in (complex(0.5, 14.1), complex(1.5, 7.3), complex(-0.5, 3.2), complex(2.2, 29.0)):
        assert abs(zeta_complex(s.conjugate()) - zeta_complex(s).conjugate()) < 1e-10
        assert abs(gamma_complex(s.conjugate()) - gamma_complex(s).conjugate()) < 1e-10


def _zeta_deriv(s):
    # zeta'(s) from the one Euler-Maclaurin pass behind every zeta' the package uses
    return special._zeta_em(complex(s))[1]


def test_zeta_deriv_complex_at_two():
    assert abs(_zeta_deriv(2) - ZETA_DERIV_2) < 1e-10


def test_zeta_deriv_complex_vs_finite_differences():
    h = 1e-5
    for s in (complex(1.5, 0), complex(0.5, 5.0), complex(2.0, 3.0),
              complex(3.0, 20.0), complex(0.3, 14.0)):
        fd = (zeta_complex(s + h) - zeta_complex(s - h)) / (2 * h)
        assert abs(_zeta_deriv(s) - fd) < 1e-6, s


def test_gamma_classical_values():
    assert abs(gamma_complex(5) - 24) < 1e-12 * 24
    assert abs(gamma_complex(0.5) - math.sqrt(math.pi)) < 1e-13
    # reflection side: Gamma(-3/2) = 4 sqrt(pi) / 3
    assert abs(gamma_complex(-1.5) - 4 * math.sqrt(math.pi) / 3) < 1e-12


def test_gamma_poles():
    for s in (0, -1, -5):
        with pytest.raises(SpecialFunctionError):
            gamma_complex(s)


def test_gamma_overflow_is_named_error(mp):
    # the Lanczos power and e^(-t) are taken as one exp, so Gamma stays finite
    # until its value leaves the float range near s = 171.6, not near Re s = 142
    # where t^(s - 1/2) alone overflowed.  The exponent reaches about 900 in
    # size there, and exp turns its rounding error into a relative one: about
    # 1000 ulps
    for s in (140, 142.21536, 150, complex(150.5, -14.13), complex(170.5, 3),
              complex(171.5, 10)):
        want = complex(mp.gamma(mp.mpc(complex(s).real, complex(s).imag)))
        assert abs(gamma_complex(s) - want) < 1000 * 2 ** -52 * abs(want), s
    # on the reflection side only Gamma itself can overflow, near its poles,
    # and the error names the caller's s
    for s in (172, complex(175, 10), 300, 1e-310, -1e-310):
        with pytest.raises(SpecialFunctionError, match=re.escape(f"overflows at s = {complex(s)}")):
            gamma_complex(s)
    # zeta's functional equation reaches Gamma(1 - s) at Re s <= -1
    s = complex(-149.5, 14.13)
    want = complex(mp.zeta(mp.mpc(s.real, s.imag)))
    assert abs(zeta_complex(s) - want) < 1e-12 * abs(want)


def test_gamma_reflection_in_log_space_vs_mpmath(mp):
    # pi / (sin(pi s) Gamma(1 - s)) taken as one exp: Gamma(1 - s) leaves the
    # float range at Re s < -171 and sin(pi s) at |Im s| > 226, though Gamma(s)
    # does not.  The exponent reaches about 700 in size, so exp turns its
    # rounding error into a relative one of about 1e-13
    for s in (-171.5, complex(0.4, 230), complex(0.4, 300), complex(-3, 250), -150.5,
              complex(-40.3, -80), complex(0.2, 14.13)):
        want = complex(mp.gamma(mp.mpc(complex(s).real, complex(s).imag)))
        assert abs(gamma_complex(s) - want) < 1e-12 * abs(want), s
    # a subnormal value keeps fewer bits
    s = complex(-171.5, 2)
    want = complex(mp.gamma(mp.mpc(s.real, s.imag)))
    assert abs(gamma_complex(s) - want) < 1e-10 * abs(want)
    # below the float range: -0, as mpmath rounds it
    assert complex(mp.gamma(-200.5)).real == gamma_complex(-200.5).real == 0
    assert math.copysign(1, gamma_complex(-200.5).real) == -1


def _stirling_lngamma(s: complex) -> complex:
    out = (s - 0.5) * cmath.log(s) - s + 0.5 * math.log(2 * math.pi)
    out += 1 / (12 * s) - 1 / (360 * s ** 3) + 1 / (1260 * s ** 5)
    return out


def test_gamma_stirling_cross_check_at_first_zero():
    s = complex(0.5, RHO1_T)
    got = gamma_complex(s)
    want = cmath.exp(_stirling_lngamma(s))
    assert abs(got - want) / abs(want) < 1e-6
    # overall scale is e^(-pi t / 2)
    assert abs(math.log(abs(got)) + math.pi * RHO1_T / 2) < 3.0


def test_first_zero_refinement():
    z = first_zero()
    assert abs(z.imag - RHO1_T) < 1e-9
    assert abs(zeta_complex(z.rho)) < 1e-8
    assert abs(z.zeta_deriv - ZETA_DERIV_RHO1) < 1e-9
    assert abs(abs(z.zeta_deriv) - 0.79316043335650612) < 1e-9


def _euler_maclaurin_points(fn) -> list[complex]:
    """The argument s of every Euler-Maclaurin pass special makes while fn runs."""
    points = []

    def profile(frame, event, _arg):
        code = frame.f_code
        if (event == "call" and code.co_filename == special.__file__
                and code.co_name.startswith("_zeta_em")):
            points.append(frame.f_locals["s"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return points


def test_one_euler_maclaurin_pass_per_point():
    # a Newton step and the zero's self-check take zeta and zeta' from one pass
    special.refine_zero.cache_clear()
    points = _euler_maclaurin_points(first_zero)
    assert len(points) >= 2 and len(set(points)) == len(points), points
    assert _euler_maclaurin_points(first_zero) == []  # remembered
    # zeta'(-k) for odd k needs zeta(k+1) and zeta'(k+1): one pass
    for k in (1, 3, 5, 11):
        special.zeta_real.cache_clear()
        assert _euler_maclaurin_points(lambda: zeta_deriv_neg_int(k)) == [complex(k + 1, 0)], k


def test_refine_zero_reuses_a_last_step_of_zero():
    # from these guesses the last Newton step is exactly 0.0, so the zero's
    # check takes zeta and zeta' from that step's pass: 3 passes, not 4
    for guess in (21.02, 25.01):
        special.refine_zero.cache_clear()
        points = _euler_maclaurin_points(lambda: refine_zero(guess))
        assert len(points) == len(set(points)) == 3, (guess, points)
        zero = refine_zero(guess)
        assert points[-1] == zero.rho
        assert abs(zeta_complex(zero.rho)) < 1e-8 and zero.zeta_deriv != 0
        assert ZetaZero(zero.imag) == zero


def test_refine_zero_rejects_non_zero_region(monkeypatch):
    monkeypatch.setattr(special, "_REFINE_STEPS", 3)
    with pytest.raises(ZeroVerificationError):
        refine_zero(3.0)


def test_zeta_zero_checks_itself():
    # made from the ordinate alone: the residual is checked and zeta'(rho)
    # computed once, so a caller cannot attach a wrong derivative
    z = first_zero()
    assert ZetaZero(z.imag) == z
    assert abs(ZetaZero(RHO1_T).zeta_deriv - ZETA_DERIV_RHO1) < 1e-9
    with pytest.raises(TypeError):
        ZetaZero(imag=z.imag, zeta_deriv=1 + 0j)
    with pytest.raises(ZeroVerificationError, match="no zero at t = 10"):
        ZetaZero(10.0)


def test_zeros_file_round_trip(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text(
        "# first three ordinates\n"
        f"{RHO1_T}\n"
        f"{SECOND_ZERO_T}   # second\n"
        f"{THIRD_ZERO_T}\n"
    )
    zeros = load_zeros_file(path)
    assert [round(z.imag, 6) for z in zeros] == [
        round(RHO1_T, 6), round(SECOND_ZERO_T, 6), round(THIRD_ZERO_T, 6)]
    for z in zeros:
        assert abs(zeta_complex(z.rho)) < 1e-8


def test_zeros_file_rejects_bad_entries(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("10.0\n")
    with pytest.raises(ZeroVerificationError):
        load_zeros_file(bad)
    nonnum = tmp_path / "nonnum.txt"
    nonnum.write_text("fourteen\n")
    with pytest.raises(ZeroVerificationError):
        load_zeros_file(nonnum)
    out_of_range = tmp_path / "range.txt"
    out_of_range.write_text("150.0\n")
    with pytest.raises(ZeroVerificationError):
        load_zeros_file(out_of_range)


def test_zeros_file_rejects_a_repeated_zero(tmp_path):
    # two lines that refine to the same zero would count it twice in I_crit
    dup = tmp_path / "dup.txt"
    dup.write_text("14.134725141734693\n# the same zero, fewer digits\n14.13472514173\n"
                   "21.022039638771555\n")
    with pytest.raises(ZeroVerificationError, match=r"dup\.txt:3: .* zero of line 1$"):
        load_zeros_file(dup)


def test_zeros_file_refuses_on_every_load(tmp_path):
    # a failed check is not remembered: the second load fails the same way
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{RHO1_T}\n10.0\n")
    messages = []
    for _ in range(2):
        with pytest.raises(ZeroVerificationError, match=r"bad\.txt:2: \|zeta") as exc:
            load_zeros_file(bad)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_zeros_file_is_read_on_every_load(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text(f"{RHO1_T}\n")
    assert [round(z.imag, 6) for z in load_zeros_file(path)] == [round(RHO1_T, 6)]
    path.write_text(f"{SECOND_ZERO_T}\n{THIRD_ZERO_T}\n")
    assert [round(z.imag, 6) for z in load_zeros_file(path)] == [
        round(SECOND_ZERO_T, 6), round(THIRD_ZERO_T, 6)]
    path.write_text(f"{RHO1_T}\nfourteen\n")
    with pytest.raises(ZeroVerificationError, match=r"zeros\.txt:2: not a number"):
        load_zeros_file(path)


def test_repeated_zero_is_caught_between_remembered_ordinates(tmp_path):
    one = tmp_path / "one.txt"
    for t in ("14.134725141734693", "14.13472514173"):
        one.write_text(t + "\n")
        load_zeros_file(one)
    dup = tmp_path / "dup.txt"
    dup.write_text("14.134725141734693\n14.13472514173\n")
    memos = (special.refine_zero, special._line_residual)
    misses = [memo.cache_info().misses for memo in memos]
    with pytest.raises(ZeroVerificationError, match=r"dup\.txt:2: .* zero of line 1$"):
        load_zeros_file(dup)
    assert [memo.cache_info().misses for memo in memos] == misses


def test_ordinate_memos_are_bounded():
    for k in range(300):
        t = RHO1_T + k * 1e-9
        assert special._line_residual(t) < 1e-6
        refine_zero(t)
    for memo in (special.refine_zero, special._line_residual):
        info = memo.cache_info()
        assert info.maxsize == 256 and info.currsize <= 256


# --- independent oracle: mpmath at 30 digits ----------------------------------


@pytest.fixture
def mp():
    with mpmath.workdps(30):
        yield mpmath.mp


def _sample_points(seed: int, re_lo: float, re_hi: float, count: int = 40) -> list[complex]:
    """Seeded points with re_lo <= Re s < re_hi and |Im s| <= 100, away from s = 1."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        s = complex(rng.uniform(re_lo, re_hi), rng.uniform(-100.0, 100.0))
        if re_lo <= s.real < re_hi and abs(s - 1) > 0.1:
            points.append(s)
    return points


def test_zeta_real_vs_mpmath(mp):
    for s in [*range(2, 14), 1.5, 2.5, 50]:
        want = float(mp.zeta(s))
        assert abs(zeta_real(s) - want) < 1e-14 * want, s


def test_zeta_complex_vs_mpmath_euler_maclaurin_branch(mp):
    # contract on Re s >= -1: absolute error below 1e-10
    for s in _sample_points(101, -1.0, 4.0) + [complex(-1.0, 99.9), complex(0.5, 100.0)]:
        want = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert abs(zeta_complex(s) - want) < 1e-10, s


def test_zeta_complex_vs_mpmath_functional_equation_branch(mp):
    # contract on Re s < -1: relative error below 1e-12 (|zeta| reaches ~1e5 here)
    for s in _sample_points(102, -6.0, -1.0) + [complex(-3.5, 99.9)]:
        want = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert abs(zeta_complex(s) - want) < 1e-12 * abs(want), s


def test_zeta_deriv_complex_vs_mpmath(mp):
    for s in _sample_points(103, 1e-3, 4.0):
        want = complex(mp.zeta(mp.mpc(s.real, s.imag), derivative=1))
        assert abs(_zeta_deriv(s) - want) < 1e-8, s


def test_gamma_complex_vs_mpmath(mp):
    for s in _sample_points(104, -10.0, 10.0):
        want = complex(mp.gamma(mp.mpc(s.real, s.imag)))
        assert abs(gamma_complex(s) - want) < 1e-12 * abs(want), s


def test_zeta_deriv_neg_int_vs_mpmath(mp):
    for k in range(13):
        want = float(mp.zeta(-k, derivative=1))
        assert abs(zeta_deriv_neg_int(k) - want) < 1e-14 * abs(want), k


def test_first_zero_vs_mpmath(mp):
    assert abs(first_zero().imag - float(mp.zetazero(1).imag)) < 1e-12


def test_zeros_2_to_29_refined_from_two_decimals_vs_mpmath(mp):
    # zero 30 (t = 101.3) lies beyond the configured |Im s| <= 100
    for k in range(2, 30):
        rho = mp.zetazero(k)
        zero = refine_zero(round(float(rho.imag), 2))
        assert abs(zero.imag - float(rho.imag)) < 1e-12, k
        want = complex(mp.zeta(rho, derivative=1))
        assert abs(zero.zeta_deriv - want) < 1e-10 * abs(want), k
