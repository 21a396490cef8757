"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 5 pins the one-zero oscillation amplitudes to a
reference table computed independently with mpmath from the residue sum
W(rho) = Pi_d[zeta](rho) zeta(rho+1) Gamma(rho) / zeta'(rho).  Criterion 10
checks the tracked occurrence count against the exact Geometric(q) law and
against the leading-order form 1/x, x = theta_n ||v0||_1, with the known
relative gap x/2 - x^2/12 between the two means taken into account.
"""

import cmath
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import zonocount as zc

THETA_1E4 = zc.theta_tilde(2, 1e4)

# Reference table for the one-zero oscillation, per dimension:
# (amp_cos, amp_sin, frequency, scale)
#
# amp_cos/amp_sin are 2 kappa_d^(-1/(2(d+1))) (Re W, -Im W) for
# W(rho_1) = Pi_d[zeta](rho_1) zeta(rho_1+1) Gamma(rho_1) / zeta'(rho_1),
# evaluated with mpmath at mp.dps = 30 (mp.zetazero(1), mp.zeta(s,
# derivative=1), mp.gamma; the Pi_d shift coefficients are the exact rationals
# of pd_poly, pinned by criterion 2) and rounded to 5 significant digits.
# The previous amplitudes were
#   d=2: (-1.3579e-10, -1.4236e-9)
#   d=3: (-1.2325e-10, -1.2921e-9)
#   d=4: (-3.1764e-9, -0.0628e-9)
# For d=2 the ratio (old weight)/(residue-sum weight) is 0.783286+0.12469i,
# i.e. zeta'(rho_1) = 0.783297+0.124700i: the old value left out the
# 1/zeta'(rho) residue factor.  The old d=3 and d=4 values came from an
# unknown source; as (A, B) pairs they match no variant with the Pi_d
# argument shifted by -1, 0 or +1, with or without the residue factor (only
# the old d=4 A alone equals the residue-free value, -3.1764e-9).
# The frequency and scale entries are unchanged.
REFERENCE_WAVE = {
    2: (1.1310e-10, -1.7995e-9, 4.7116, 0.6842),
    3: (-4.4775e-10, -5.3495e-9, 3.5337, 0.2777),
    4: (-2.3568e-9, -1.0669e-8, 2.8269, 0.1305),
}


def _pass(criterion, elapsed, msg):
    print(f"\n[criterion {criterion:>2}] PASS in {elapsed:.3f}s  {msg}")


@pytest.fixture(scope="module")
def brute_all():
    """Brute-force oracle over the full small-box ranges, shared by criteria 6 and 8."""
    results = {}
    for box in itertools.product(range(7), repeat=2):
        results[(2, box)] = zc.brute_force_count(2, box)
    for box in itertools.product(range(4), repeat=3):
        results[(3, box)] = zc.brute_force_count(3, box)
    return results


def test_criterion_01_beta_exactness():
    t0 = time.perf_counter()
    assert zc.beta_exact(2) == Fraction(-11, 9)
    assert zc.beta_exact(3) == Fraction(-13, 8)
    assert zc.beta_exact(4) == Fraction(-521, 225)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, elapsed, "beta_2,3,4 = -11/9, -13/8, -521/225 exactly")


def test_criterion_02_pd_table_and_recursion():
    t0 = time.perf_counter()
    # Reference coefficients.  For P_3 the recursion below, the leading
    # coefficient 2^(d-1)/(d-1)!, and the exact constants beta_3/alpha_3 all
    # pin 2 X^2 + 1 (a circulating variant, 4/3 X^2 + 1, is inconsistent
    # with all of those).
    assert zc.pd_poly(1).coeffs == (Fraction(1),)
    assert zc.pd_poly(2).coeffs == (Fraction(0), Fraction(2))
    assert zc.pd_poly(3).coeffs == (Fraction(1), Fraction(0), Fraction(2))
    assert zc.pd_poly(4).coeffs == (Fraction(0), Fraction(8, 3), Fraction(0), Fraction(4, 3))
    for d in range(1, 13):
        pd, pd1, pd2 = (zc.pd_poly(k).coeffs for k in (d, d + 1, d + 2))
        rhs = [Fraction(0)] * (d + 2)
        for i, c in enumerate(pd1):
            rhs[i + 1] += Fraction(2, d + 1) * c
        for i, c in enumerate(pd):
            rhs[i] += c
        assert tuple(rhs) == pd2, f"recursion fails at d={d}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(2, elapsed, "P_1..P_4 exact and recursion holds for d=1..12")


def test_criterion_03_q2_coefficient():
    t0 = time.perf_counter()
    closed = (2 ** (2 / 3) * 3 ** (4 / 3) * zc.zeta_real(3) ** (1 / 3)
              / math.pi ** (2 / 3))
    got = dict(zc.q_poly(2))[2]
    assert abs(got - closed) < 1e-12 * closed
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(3, elapsed, f"Q_2 coefficient {got:.12f} matches 2^(2/3) 3^(4/3) zeta(3)^(1/3"
                      f")/pi^(2/3) to 1e-12")


def test_criterion_04_alpha_closed_forms():
    t0 = time.perf_counter()
    l2, l3, l5, lpi = (math.log(x) for x in (2, 3, 5, math.pi))
    lz3, lz5 = math.log(zc.zeta_real(3)), math.log(zc.zeta_real(5))
    zp = zc.zeta_deriv_neg_int
    # Closed radical forms of alpha_d; each was verified against the general
    # Pi_d assembly at 30-digit precision before being frozen here.
    closed = {
        2: l2 / 9 + 13 * l3 / 18 + 2 * lz3 / 9 - 4 * zp(1) - math.log(6) - 16 * lpi / 9,
        3: 5 * l2 / 8 + 3 * l3 / 4 + 7 * l5 / 8 - 4 * zp(2) - math.log(120)
           - lz3 / 8 - lpi,
        4: (-261 * l2 + 142 * l3 + 71 * lz5 - 829 * lpi) / 225 - 83 * l5 / 450
           - 8 * zp(3) / 3 - 16 * zp(1) / 3,
    }
    for d, want in closed.items():
        got = zc.alpha_ln(d)
        assert abs(got - want) < 1e-9, (d, got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(4, elapsed, "ln alpha_d matches the closed radical forms to 1e-9 for d=2,3,4")


def test_criterion_05_icrit_frequency_and_scale():
    t0 = time.perf_counter()
    for d, (_, _, freq_ref, scale_ref) in REFERENCE_WAVE.items():
        wave = zc.icrit_wave_form(d)
        assert f"{wave.frequency:.5g}" == f"{freq_ref:.5g}", (d, wave.frequency)
        assert f"{wave.scale:.4g}" == f"{scale_ref:.4g}", (d, wave.scale)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(5, elapsed, "oscillation frequency t1/(d+1) and scale 1/kappa_d match to 4 digits")


def test_criterion_05_icrit_amplitudes_vs_reference():
    # The residue-sum amplitudes must match the mpmath reference table
    # (derivation above) within 1% for d = 2, 3, 4.
    t0 = time.perf_counter()
    failures = []
    for d, (a_ref, b_ref, _, _) in REFERENCE_WAVE.items():
        wave = zc.icrit_wave_form(d)
        rel_a = abs(wave.amp_cos - a_ref) / abs(a_ref)
        rel_b = abs(wave.amp_sin - b_ref) / abs(b_ref)
        if rel_a > 0.01 or rel_b > 0.01:
            failures.append((d, wave.amp_cos, a_ref, wave.amp_sin, b_ref))
    elapsed = time.perf_counter() - t0
    assert not failures, (
        "residue-sum amplitudes differ from the mpmath reference values by "
        "more than 1%: "
        + "; ".join(
            f"d={d}: A={a:.5g} vs reference {ar:.5g}, B={b:.5g} vs reference {br:.5g}"
            for d, a, ar, b, br in failures))
    _pass(5, elapsed, "amplitudes match the mpmath reference table within 1%")


def test_criterion_06_exact_count_oracle(brute_all):
    t0 = time.perf_counter()
    table2 = zc.build_table(2, (6, 6))
    for box in itertools.product(range(7), repeat=2):
        assert brute_all[(2, box)].count == table2.coefficient(box), box
    table3 = zc.build_table(3, (3, 3, 3))
    for box in itertools.product(range(4), repeat=3):
        assert brute_all[(3, box)].count == table3.coefficient(box), box
    assert table2.coefficient((1, 1)) == 3
    assert table2.coefficient((2, 2)) == 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(6, elapsed, "DP equals brute force on every box of the oracle ranges")


def test_criterion_07_convergence_trend():
    t0 = time.perf_counter()
    table = zc.build_table(2, (64, 64))
    rels = []
    for n in (8, 16, 32, 64):
        ln_z = math.log(table.coefficient((n, n)))
        rels.append(abs(ln_z - zc.estimate(2, n).ln_z_hat) / ln_z)
    assert all(a > b for a, b in zip(rels, rels[1:])), rels
    assert rels[-1] < 0.05, rels
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _pass(7, elapsed, "relative ln-error strictly decreasing: "
          + ", ".join(f"{r:.5f}" for r in rels))


def test_criterion_08_diameter_mean_exact(brute_all):
    t0 = time.perf_counter()
    assert zc.diameter_moment(2, 1) == Fraction(4, 3)
    for n in range(1, 7):
        pair = zc.diameter_numerators(2, n)
        ref = brute_all[(2, (n, n))]
        assert (pair.count, pair.weighted) == (ref.count, ref.direction_count_sum), n
    for n in range(1, 4):
        pair = zc.diameter_numerators(3, n)
        ref = brute_all[(3, (n, n, n))]
        assert (pair.count, pair.weighted) == (ref.count, ref.direction_count_sum), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(8, elapsed, "exact diameter numerators match brute force on the oracle range")


def test_criterion_09_diameter_mean_sampler_side():
    t0 = time.perf_counter()
    stats = zc.sample_stats(2, THETA_1E4, 1e-12, 400, base_seed=20260810)
    truncated = stats.expected_directions
    asympt = zc.mean_diameter_asympt(2, 1e4)
    assert abs(truncated - asympt) < 0.03 * asympt, (truncated, asympt)
    assert abs(stats.direction_mean - truncated) < 4 * stats.direction_stderr, (
        stats.direction_mean, truncated, stats.direction_stderr)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass(9, elapsed, f"truncated mean {truncated:.2f} vs asymptotic {asympt:.2f} "
                      f"(0.08%), empirical {stats.direction_mean:.2f} within 4 SE")


@pytest.fixture(scope="module")
def occurrence_run():
    cid = ((1, 1), 0)
    t0 = time.perf_counter()
    stats = zc.sample_stats(2, THETA_1E4, 0.5, 10 ** 5, base_seed=555, tracked=[cid])
    return stats.tracked[cid], time.perf_counter() - t0


def test_criterion_10_occurrence_sampler_vs_geometric(occurrence_run):
    tr, elapsed = occurrence_run
    q = tr.q
    geo_mean = q / (1 - q)
    geo_var = q / (1 - q) ** 2
    assert abs(tr.mean - geo_mean) < 3 * tr.stderr, (tr.mean, geo_mean, tr.stderr)
    # sample variance of a geometric has SD ~ sigma^2 sqrt((kurt+2)/N)
    var_sd = geo_var * math.sqrt(11.0 / 10 ** 5)
    assert abs(tr.variance - geo_var) < 3 * var_sd, (tr.variance, geo_var, var_sd)
    assert elapsed < 120.0
    _pass(10, elapsed, f"omega((1,1)) empirical mean {tr.mean:.4f} and variance "
                       f"{tr.variance:.3f} match Geometric(q) within 3 sigma")


def test_criterion_10_occurrence_variance_vs_leading_form(occurrence_run):
    t0 = time.perf_counter()
    lead_mean, lead_var = zc.mean_occurrence_asympt(2, 1e4, (1, 1))
    tr, _ = occurrence_run
    assert abs(tr.variance - lead_var) < 0.03 * lead_var, (tr.variance, lead_var)
    assert lead_var == lead_mean ** 2
    elapsed = time.perf_counter() - t0
    _pass(10, elapsed, f"empirical variance {tr.variance:.3f} within 3% of "
                       f"leading form {lead_var:.3f}")


def test_criterion_10_occurrence_mean_vs_leading_form(occurrence_run):
    # mean_occurrence_asympt gives the leading form 1/x, x = theta_n ||v0||_1.
    # The sampler's exact geometric mean 1/(e^x - 1) lies a relative
    # x/2 - x^2/12 + O(x^4) below it (~5.2% at n = 1e4).  The measured
    # relative gap must equal that correction within 3 standard errors, which
    # a sampler whose mean sits on 1/x itself misses by ~16 SE.
    t0 = time.perf_counter()
    v0 = (1, 1)
    lead_mean, _ = zc.mean_occurrence_asympt(2, 1e4, v0)
    tr, _ = occurrence_run
    x = THETA_1E4 * sum(v0)
    predicted = x / 2 - x * x / 12
    rel = (lead_mean - tr.mean) / lead_mean
    bound = 3 * tr.stderr / lead_mean
    assert abs(rel - predicted) < bound, (
        f"occurrence mean {tr.mean:.4f} vs leading form {lead_mean:.4f}: "
        f"relative gap {rel:.5f}, predicted x/2 - x^2/12 = {predicted:.5f}, "
        f"allowed 3 SE = {bound:.5f}")
    elapsed = time.perf_counter() - t0
    _pass(10, elapsed, f"mean {tr.mean:.4f} sits {rel:.4f} below leading form "
                       f"{lead_mean:.4f}, predicted {predicted:.4f} within 3 SE")


def test_criterion_11_special_function_invariants():
    t0 = time.perf_counter()
    rng = random.Random(11)
    checked = 0
    while checked < 50:
        s = complex(rng.uniform(-1, 2), rng.uniform(-30, 30))
        if abs(s - 1) < 0.1 or abs(s) < 0.1:
            continue
        chi = (2 ** s * cmath.exp((s - 1) * math.log(math.pi))
               * cmath.sin(math.pi * s / 2) * zc.gamma_complex(1 - s))
        assert abs(zc.zeta_complex(s) - chi * zc.zeta_complex(1 - s)) < 1e-8, s
        checked += 1
    assert abs(zc.zeta_real(2) - math.pi ** 2 / 6) < 1e-14
    closed = -zc.zeta_real(3) / (4 * math.pi ** 2)
    assert abs(zc.zeta_deriv_neg_int(2) - closed) < 1e-12
    assert abs(zc.zeta_complex(zc.first_zero().rho)) < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(11, elapsed, "functional equation, Basel, zeta'(-2), and |zeta(rho_1)| checks")


def test_criterion_12_dual_assembly_identity():
    t0 = time.perf_counter()
    closed = zc.estimate(2, 1e4).ln_z_hat
    saddle = zc.estimate_saddle_form(2, 1e4)
    assert abs(closed - saddle) < 1e-6, closed - saddle
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(12, elapsed, f"closed-form vs saddle-form assembly differ by {closed - saddle:.2e}")
