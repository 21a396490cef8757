import json
import math
from fractions import Fraction

import mpmath
import pytest

import zonocount.asympt as asympt
from zonocount import (
    ZetaZero,
    ZeroVerificationError,
    alpha_ln,
    beta_exact,
    estimate,
    estimate_saddle_form,
    first_zero,
    icrit,
    icrit_wave_form,
    kappa,
    log_zon_univariate,
    mean_diameter_asympt,
    mean_occurrence_asympt,
    pd_poly,
    pi_d_apply,
    pi_d_zeta_at_zero,
    q_poly,
    q_value,
    theta_tilde,
    zeta_complex,
    zeta_real,
)

# Frozen high-precision references for regression.
KAPPA = {2: 1.461525938802877, 3: 3.6015707105587519, 4: 7.6644589922578793}
ALPHA_LN = {2: -2.2537952017490026, 3: -3.1679976945909236, 4: -3.7459038702643126}
Q_LEAD = {2: 3.4045268521490711, 3: 5.5103981265062218, 4: 7.5139154749985164}
Q4_DEG2 = 0.86288448873155674
ICRIT_1E6 = {2: -7.190988836e-9, 3: -1.155697806e-8, 4: -3.75498769e-8}
WAVE = {
    2: (1.13095763645e-10, -1.7994678584e-9),
    3: (-4.47746229668e-10, -5.34953081168e-9),
    4: (-2.35680397261e-9, -1.06685571157e-8),
}


def test_pd_poly_small_cases():
    assert pd_poly(1) == (Fraction(1),)
    assert pd_poly(2) == (Fraction(0), Fraction(2))
    assert pd_poly(3) == (Fraction(1), Fraction(0), Fraction(2))
    assert pd_poly(4) == (Fraction(0), Fraction(8, 3), Fraction(0), Fraction(4, 3))
    with pytest.raises(ValueError):
        pd_poly(0)


def _pd_binomial_sum(d):
    # the defining sum over delta of C(d, delta) 2^(delta-1) prod_{k<delta} (X - k) / (delta-1)!
    coeffs = [Fraction(0)] * d
    for delta in range(1, d + 1):
        poly = [Fraction(1)]
        for k in range(1, delta):
            nxt = [Fraction(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i + 1] += c
                nxt[i] -= k * c
            poly = nxt
        scale = Fraction(math.comb(d, delta) * 2 ** (delta - 1), math.factorial(delta - 1))
        for i, c in enumerate(poly):
            coeffs[i] += scale * c
    return tuple(coeffs)


def test_pd_poly_matches_binomial_sum():
    # pd_poly runs the recursion; the definition is the independent oracle
    for d in range(1, 13):
        assert pd_poly(d) == _pd_binomial_sum(d), d


def test_pd_poly_recursion():
    for d in range(1, 13):
        pd, pd1, pd2 = pd_poly(d), pd_poly(d + 1), pd_poly(d + 2)
        rhs = [Fraction(0)] * (d + 2)
        for i, c in enumerate(pd1):
            rhs[i + 1] += Fraction(2, d + 1) * c
        for i, c in enumerate(pd):
            rhs[i] += c
        assert tuple(rhs) == pd2, d


def test_pd_poly_structure():
    for d in range(1, 13):
        coeffs = pd_poly(d)
        assert len(coeffs) == d
        assert coeffs[-1] == Fraction(2 ** (d - 1), math.factorial(d - 1))
        for degree, c in enumerate(coeffs):
            if (degree - (d - 1)) % 2:
                assert c == 0, (d, degree)
        if d % 2:
            assert coeffs[0] == 1
        else:
            assert coeffs[0] == 0


def test_pi_d_apply():
    # Pi_2[zeta](0) = 2 zeta(-1) = -1/6, Pi_3[zeta](0) = 2 zeta(-2) + zeta(0) = -1/2
    assert abs(pi_d_apply(2, zeta_complex, 0) - (-1 / 6)) < 1e-12
    assert abs(pi_d_apply(3, zeta_complex, 0) - (-1 / 2)) < 1e-12
    f = lambda s: s ** 2 + 1
    assert pi_d_apply(1, f, 2.5) == f(2.5)


def test_pi_d_zeta_at_zero_exact():
    assert pi_d_zeta_at_zero(2) == Fraction(-1, 6)
    assert pi_d_zeta_at_zero(3) == Fraction(-1, 2)
    assert pi_d_zeta_at_zero(4) == Fraction(-19, 90)


def test_kappa_values():
    for d, want in KAPPA.items():
        assert abs(kappa(d) - want) < 1e-12 * want
    with pytest.raises(ValueError):
        kappa(1)
    assert abs(theta_tilde(2, 1000) - (KAPPA[2] / 1000) ** (1 / 3)) < 1e-15


def test_kappa_root_increases_toward_two():
    roots = [kappa(d) ** (1 / (d + 1)) for d in range(2, 31)]
    assert all(a < b for a, b in zip(roots, roots[1:]))
    assert all(r < 2 for r in roots)
    gaps = [2 - r for r in roots]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_beta_exact_values():
    assert beta_exact(2) == Fraction(-11, 9)
    assert beta_exact(3) == Fraction(-13, 8)
    assert beta_exact(4) == Fraction(-521, 225)


def test_alpha_ln_regression():
    for d, want in ALPHA_LN.items():
        assert abs(alpha_ln(d) - want) < 1e-9


def test_q_poly_values():
    for d, want in Q_LEAD.items():
        terms = q_poly(d)
        assert terms[0][0] == d
        assert abs(terms[0][1] - want) < 1e-12 * want
    q4 = dict(q_poly(4))
    assert set(q4) == {4, 2}
    assert abs(q4[2] - Q4_DEG2) < 1e-12
    assert dict(q_poly(3)).keys() == {3}
    degrees = [deg for deg, _ in q_poly(6)]
    assert degrees == sorted(degrees, reverse=True)


def test_q_poly_is_shared_and_immutable():
    # memoized per d: a caller that changed the result would change every
    # later estimate
    terms = q_poly(4)
    assert q_poly(4) is terms
    assert isinstance(terms, tuple) and all(isinstance(t, tuple) for t in terms)
    with pytest.raises(TypeError):
        terms[0] = (4, 0.0)
    with pytest.raises(AttributeError):
        terms.append((0, 1.0))


def test_constants_refuse_on_every_call():
    # a refused d leaves nothing in a memo for the next call to find
    for _ in range(2):
        for const in (kappa, alpha_ln, beta_exact, q_poly):
            with pytest.raises(ValueError, match="d >= 2"):
                const(1)
            with pytest.raises(ValueError, match="d = 173"):
                const(173)
    for const in (kappa, alpha_ln, beta_exact, q_poly, lambda d: theta_tilde(d, 1e4),
                  lambda d: estimate(d, 1e4), lambda d: icrit(d, 1e6)):
        const(2)
        for d in (2.0, 2.5):  # refused, not answered from the entry of d = 2
            with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
                const(d)


def test_n_and_theta_out_of_range_are_refused():
    for f in (estimate, estimate_saddle_form, mean_diameter_asympt):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            f(2, 0.5)
    for f in (asympt.icrit_theta, log_zon_univariate):
        for theta in (0.0, -1.0):
            with pytest.raises(ValueError, match="^theta must be positive$"):
                f(2, theta)


def test_zero_weight_memo_is_exact_and_bounded():
    for d in (2, 3, 4):
        assert asympt._zero_weight(d, first_zero()) == asympt._zero_weight.__wrapped__(
            d, first_zero())
    # 300 distinct zeros 1e-12 apart in t, each inside ZetaZero's 1e-8 residual check
    base = first_zero().imag
    for k in range(300):
        asympt._zero_weight(2, ZetaZero(base + k * 1e-12))
    info = asympt._zero_weight.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256


def test_q_value_at_one_is_coefficient_sum():
    for d in (2, 3, 4, 5):
        assert abs(q_value(d, 1.0) - sum(c for _, c in q_poly(d))) < 1e-12


def test_q_coefficients_all_positive():
    # hence Q_d(n^(1/(d+1))) > 0 for n >= 1
    for d in range(2, 13):
        assert all(c > 0 for _, c in q_poly(d))
        assert q_value(d, 1.0) > 0


def test_icrit_wave_form():
    t1 = first_zero().imag
    for d, (amp_cos, amp_sin) in WAVE.items():
        wave = icrit_wave_form(d)
        assert abs(wave.amp_cos - amp_cos) < 1e-6 * abs(amp_cos)
        assert abs(wave.amp_sin - amp_sin) < 1e-6 * abs(amp_sin)
        assert abs(wave.frequency - t1 / (d + 1)) < 1e-12
        assert abs(wave.scale - 1 / kappa(d)) < 1e-12
        assert wave.half_power == 0.5 / (d + 1)
        # the printed fields give icrit at m = 1:
        # amp_cos n^half_power cos(frequency ln(scale n)) + amp_sin (...) sin(...)
        for n in (10.0, 1e3, 1e6, 1e8, 1e9):
            phase = wave.frequency * math.log(wave.scale * n)
            value = n ** wave.half_power * (wave.amp_cos * math.cos(phase)
                                            + wave.amp_sin * math.sin(phase))
            assert abs(icrit(d, n) - value) < 1e-12 * max(1e-10, abs(value))


def test_icrit_regression_and_wave_consistency():
    for d, want in ICRIT_1E6.items():
        got = icrit(d, 1e6)
        assert abs(got - want) < 1e-5 * abs(want)
    # consistency with the wave form's fields: test_icrit_wave_form


def test_icrit_envelope_bounded():
    wave = icrit_wave_form(2)
    bound = (abs(wave.amp_cos) + abs(wave.amp_sin)) * 1.000001
    n = 2.0
    while n < 1e12:
        assert abs(icrit(2, n)) <= bound * n ** (1 / 6)
        n *= 7.3


def test_icrit_multiple_zeros_and_validation():
    z1 = first_zero()
    # second term is orders of magnitude below the first
    from zonocount import refine_zero

    z2 = refine_zero(21.022039638771555)
    one = icrit(2, 1e6, [z1])
    two = icrit(2, 1e6, [z1, z2])
    assert abs(two - one) < 1e-3 * abs(one)
    with pytest.raises(ValueError):
        icrit(2, 1e6, [])
    with pytest.raises(ZeroVerificationError):  # a zero checks itself when it is made
        ZetaZero(imag=10.0)


@pytest.mark.parametrize("n", [10, 1e6, 1e300])
def test_estimate_for_every_accepted_dim(n):
    # zeta(-k) takes B_(k+1) for any k, so both routes serve d >= 65; at d = 172
    # (d - 1)! leaves the float range and both refuse d by name
    for d in [*range(2, 172, 13), 64, 65, 171]:
        est = estimate(d, n)
        saddle = estimate_saddle_form(d, n)
        parts = (est.ln_alpha, est.beta_ln_n, est.q_value, est.icrit, est.ln_z_hat, saddle)
        assert all(math.isfinite(x) for x in parts), d
        assert abs(est.ln_z_hat - saddle) < 1e-9 * abs(est.ln_z_hat), d
    for route in (estimate, estimate_saddle_form):
        with pytest.raises(ValueError, match="for d = 172: "):
            route(172, n)


def test_estimate_components():
    est = estimate(2, 1e6)
    assert abs(est.q_value - Q_LEAD[2] * 1e4) < 1e-8 * est.q_value
    assert abs(est.ln_z_hat - (est.ln_alpha + est.beta_ln_n + est.q_value + est.icrit)) < 1e-9
    assert est.beta == Fraction(-11, 9)
    est1 = estimate(2, 1.0)
    assert abs(est1.q_value - sum(c for _, c in q_poly(2))) < 1e-12


def test_estimate_to_dict_round_trips_via_json():
    est = estimate(3, 1e4)
    doc = json.loads(json.dumps(est.to_dict()))
    assert doc["beta"] == "-13/8"
    assert doc["dim"] == 3
    assert abs(doc["ln_z_hat"] - est.ln_z_hat) < 1e-12


def test_dual_assembly_agreement():
    for d, n in ((2, 1e4), (2, 1e6), (3, 1e3), (4, 100.0)):
        closed = estimate(d, n).ln_z_hat
        saddle = estimate_saddle_form(d, n)
        assert abs(closed - saddle) < 1e-6, (d, n, closed - saddle)


def _shell_weights(d, lmax):
    """N_d(l) for l <= lmax: the weights 2^(d(v)-1) of the primitive v in N^d with
    |v|_1 = l, by Moebius inversion of P_d(l) = sum_delta C(d,delta) 2^(delta-1)
    C(l-1,delta-1), the same sum over all nonzero v (P_d = sum over g | l of N_d(l/g))."""
    mu = [0, 1] + [0] * (lmax - 1)
    for g in range(1, lmax + 1):
        for m in range(2 * g, lmax + 1, g):
            mu[m] -= mu[g]
    p_d = [0] + [sum(math.comb(d, k) * 2 ** (k - 1) * math.comb(l - 1, k - 1)
                     for k in range(1, d + 1)) for l in range(1, lmax + 1)]
    n_d = [0] * (lmax + 1)
    for g in range(1, lmax + 1):
        if mu[g]:
            for m in range(g, lmax + 1, g):
                n_d[m] += mu[g] * p_d[m // g]
    return n_d


def test_log_zon_univariate_vs_mpmath_shell_sum():
    # independent oracle for the saddle route: ln Zon_d(e^-theta) as the shell sum
    # sum_l N_d(l) (-ln(1 - e^(-theta l))) at 30 digits, cut at l = 80/theta where a
    # term is below e^-80 l^(d-1).  At d = 2 and 4 the expansion misses no theta
    # term, only terms of order theta^2 (theta^2 ln theta at d = 2); at d = 3 it
    # misses the residue at s = -1, c1_M(3) theta = 2/5 theta.
    with mpmath.workdps(30):
        for theta in (0.2, 0.1, 0.05):
            lmax = math.ceil(80 / theta)
            shells = [-mpmath.log(-mpmath.expm1(-mpmath.mpf(theta) * l))
                      for l in range(1, lmax + 1)]
            for d in (2, 3, 4):
                n_d = _shell_weights(d, lmax)
                exact = mpmath.fsum(n * term for n, term in zip(n_d[1:], shells))
                diff = float(exact - log_zon_univariate(d, theta))
                if d != 3:
                    assert abs(diff) <= theta ** 2 / 4, (d, theta, diff)
                elif theta <= 0.1:
                    assert abs(diff / theta - 0.4) <= 0.005, (theta, diff)


def test_mean_diameter_identity_and_value():
    for d in (2, 3, 4):
        n = 1e4
        lhs = mean_diameter_asympt(d, n)
        th = theta_tilde(d, n)
        rhs = 2 ** (d - 1) / (zeta_real(d) * th ** d)
        assert abs(lhs - rhs) < 1e-9 * rhs
    assert abs(mean_diameter_asympt(2, 1e4) - 438.204818733) < 1e-6


def test_mean_occurrence():
    mean, var = mean_occurrence_asympt(2, 1e4, (1, 1))
    th = theta_tilde(2, 1e4)
    assert abs(mean - 1 / (2 * th)) < 1e-12
    assert var == mean * mean
    # doubling ||v0||_1 halves the mean
    mean2, _ = mean_occurrence_asympt(2, 1e4, (1, 3))
    assert abs(mean2 - mean / 2) < 1e-12
    with pytest.raises(ValueError):
        mean_occurrence_asympt(2, 1e4, (2, 2))
    with pytest.raises(ValueError):  # a class from another dimension
        mean_occurrence_asympt(2, 1e4, (1, 1, 1))
    with pytest.raises(ValueError):
        mean_occurrence_asympt(3, 1e4, (1, 1))
    with pytest.raises(TypeError):  # not truncated to (1, 1)
        mean_occurrence_asympt(2, 1e4, (1.5, 1))
