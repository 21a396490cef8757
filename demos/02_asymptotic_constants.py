#!/usr/bin/env python3
"""Closed-form constants and convergence of the estimate.

Prints the constants (kappa_d, beta_d, ln alpha_d, Q_d) for d = 2..5, then
compares the full estimate against exact counts in dimension 2 and shows the
two independent assembly routes agreeing.
"""

import math

import zonocount as zc

print("== constants of the estimate  z_d(n) ~ alpha n^beta exp(Q(n^(1/(d+1))) + I_crit) ==")
for d in range(2, 6):
    print(f"\nd = {d}")
    print(f"  kappa_{d}      = {zc.kappa(d):.12f}")
    print(f"  beta_{d}       = {zc.beta_exact(d)}")
    print(f"  ln alpha_{d}   = {zc.alpha_ln(d):.12f}")
    for degree, coeff in zc.q_poly(d):
        print(f"  Q_{d}[X^{degree}]     = {coeff:.12f}")

print("\n== kappa_d^(1/(d+1)) climbs toward 2 ==")
for d in (2, 5, 10, 20, 30):
    print(f"  d={d:>2}: {zc.kappa(d) ** (1 / (d + 1)):.6f}")

print("\n== exact vs estimate, d = 2 ==")
table = zc.build_table(2, (64, 64))
print(" n    ln z_exact    ln z_hat     rel err")
for n in (8, 16, 32, 64):
    ln_z = math.log(table.coefficient((n, n)))
    est = zc.estimate(2, n)
    rel = (ln_z - est.ln_z_hat) / ln_z
    print(f"{n:>3}   {ln_z:10.5f}   {est.ln_z_hat:10.5f}   {rel:+.5f}")

print("\n== the two assembly routes are the same function ==")
for d, n in ((2, 1e4), (3, 1e3), (4, 1e2)):
    closed = zc.estimate(d, n).ln_z_hat
    saddle = zc.estimate_saddle_form(d, n)
    print(f"  d={d}, n={n:g}: closed {closed:.9f}, saddle {saddle:.9f}, "
          f"diff {closed - saddle:.2e}")

print("\n== asymptotic moments ==")
for d in (2, 3):
    n = 1e4
    print(f"  d={d}, n=1e4: mean diameter ~ {zc.mean_diameter_asympt(d, n):.2f}, "
          f"mean multiplicity of (1,..,1) ~ {zc.mean_occurrence_asympt(d, n, (1,) * d)[0]:.3f}")
