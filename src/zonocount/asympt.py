"""Asymptotic engine for the zonotope count in [0,n]^d.

Everything is assembled from the polynomial family

    P_d(X) = sum_{delta=1}^{d} C(d,delta) 2^(delta-1) prod_{k=1}^{delta-1}(X-k) / (delta-1)!

and the shift-combination operator Pi_d[f](s) = sum_delta p_{d,delta} f(s-delta).
The main closed-form estimate of ln z_d(n) is

    ln alpha_d + beta_d ln n + Q_d(n^(1/(d+1))) + I_crit(theta_n),

with kappa_d = 2^(d-1) zeta(d+1)/zeta(d), saddle parameter
theta_n = (kappa_d/n)^(1/(d+1)), and the oscillatory term I_crit summed over
non-trivial zeta zeros (residues 1/zeta'(rho) under the simple-zero
hypothesis).  A second, independent assembly route goes through the
univariate expansion of ln Zon_d(e^-theta) and the Gaussian saddle prefactor
exp(d n theta)/sqrt((2 pi)^d det B); the two routes agree identically and are
kept side by side as a regression sentinel.  They share kappa_d, the zeta
values and the constant Pi_d[log(2pi) zeta - zeta'](0), which are checked on
their own (the last through ln alpha_d), so their gap tests the assembly, not
those inputs.  The leading-order moment forms (mean diameter, one sign
class's multiplicity) close the module.

None of kappa_d, ln alpha_d, beta_d, the Q_d coefficients and the zero
weights W(rho) depends on n, so each is computed once per process: the first
four are memoized per d, W(rho) for the last 256 (d, zero) pairs.  A warm
request pays for its own n only; each route still keeps its own formula.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .primitives import _primitive
from .special import (
    ZetaZero,
    first_zero,
    gamma_complex,
    zeta_complex,
    zeta_deriv_neg_int,
    zeta_neg_int,
    zeta_real,
)

LOG_2PI = math.log(2 * math.pi)


@lru_cache(maxsize=None)
def pd_poly(d: int) -> tuple[Fraction, ...]:
    """The exact coefficients of P_d, index = degree; degree d-1, leading
    coefficient 2^(d-1)/(d-1)!.

    Built by the recursion P_{k+1} = (2X/k) P_k + P_{k-1} from P_0 = 0 and
    P_1 = 1, in O(d^2) operations; only terms of parity d-1 occur.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    prev, cur = [Fraction(0)], [Fraction(1)]
    for k in range(1, d):
        nxt = [Fraction(0)] + [Fraction(2, k) * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] += c
        prev, cur = cur, nxt
    return tuple(cur)


def pi_d_apply(d: int, f: Callable[[complex], complex], s: complex) -> complex:
    """Apply Pi_d to f at s: sum over nonzero p_{d,delta} of p_{d,delta} f(s - delta)."""
    acc: complex = 0
    for delta, c in enumerate(pd_poly(d)):
        if c != 0:
            acc += float(c) * f(s - delta)
    return acc


@lru_cache(maxsize=None)
def pi_d_zeta_at_zero(d: int) -> Fraction:
    """Exact Pi_d[zeta](0) = sum p_{d,delta} zeta(-delta)."""
    return sum(
        (c * zeta_neg_int(delta) for delta, c in enumerate(pd_poly(d)) if c != 0),
        Fraction(0),
    )


# I_crit prints a value up to d = 172; from d = 173 on Gamma overflows in
# Pi_d[zeta](rho).  Refusing larger d here also spares the O(d^2) rational
# work of pd_poly and the float overflow of 2^(d-1) in kappa (d >= 1025).
MAX_DIM = 172


# Memo of the n-independent constants, keyed by d: _require_dim admits at most
# MAX_DIM integer d, so every one fits, and the bound caps kappa, which also
# takes a float d.
_per_dim = lru_cache(maxsize=256)


def _require_dim(d: int) -> None:
    if d < 2:
        raise ValueError("asymptotic formulas require d >= 2")
    if d > MAX_DIM:
        raise ValueError(f"gamma overflows for d = {d}: the asymptotic formulas need "
                         f"d <= {MAX_DIM}")


@_per_dim
def kappa(d: int) -> float:
    """kappa_d = 2^(d-1) zeta(d+1)/zeta(d)."""
    _require_dim(d)
    return 2 ** (d - 1) * zeta_real(d + 1) / zeta_real(d)


@_per_dim
def beta_exact(d: int) -> Fraction:
    """Exact power-law exponent beta_d = -(d(d+2) + 4 Pi_d[zeta](0)) / (2(d+1))."""
    _require_dim(d)
    return Fraction(-1, 2 * (d + 1)) * (d * (d + 2) + 4 * pi_d_zeta_at_zero(d))


@lru_cache(maxsize=None)
def _pi_d_log_const(d: int) -> float:
    """Pi_d[log(2pi) zeta - zeta'](0), shared by alpha_ln and log_zon_univariate."""
    if d > 171:  # zeta'(1 - d) takes (d - 1)! as a float, as log_zon_univariate does
        raise ValueError(f"(d - 1)! leaves the float range for d = {d}: ln alpha_d and "
                         f"the saddle form need d <= 171")
    return pi_d_apply(d, lambda s: LOG_2PI * float(zeta_neg_int(-s)) - zeta_deriv_neg_int(-s), 0)


@_per_dim
def alpha_ln(d: int) -> float:
    """ln alpha_d, the constant prefactor of the closed-form estimate:

    alpha_d = kappa^(d/(2(d+1)) + 2/(d+1) Pi[zeta](0))
              * exp(2 Pi[log(2pi) zeta - zeta'](0)) / ((2pi)^(d/2) sqrt(d+1)).
    """
    _require_dim(d)
    expo = Fraction(d, 2 * (d + 1)) + Fraction(2, d + 1) * pi_d_zeta_at_zero(d)
    acc = float(expo) * math.log(kappa(d))
    return acc + 2 * _pi_d_log_const(d) - 0.5 * d * LOG_2PI - 0.5 * math.log(d + 1)


@_per_dim
def q_poly(d: int) -> tuple[tuple[int, float], ...]:
    """Coefficients of Q_d as (degree, value), degrees strictly decreasing:

    Q_d(X) = (d+1) kappa^(1/(d+1)) X^d
             + sum_{delta=2}^{d-1} p_{d,delta-1} zeta(delta+1)(delta-1)!/zeta(delta)
                                   kappa^(-delta/(d+1)) X^delta.

    Computed once per d and shared by every caller, hence a tuple.
    """
    _require_dim(d)
    kap = kappa(d)
    pd = pd_poly(d)
    terms = [(d, (d + 1) * kap ** (1.0 / (d + 1)))]
    for delta in range(d - 1, 1, -1):
        c = pd[delta - 1]
        if c == 0:
            continue
        coeff = (float(c) * zeta_real(delta + 1) * math.factorial(delta - 1)
                 / zeta_real(delta) * kap ** (-delta / (d + 1)))
        terms.append((delta, coeff))
    return tuple(terms)


def q_value(d: int, n: float) -> float:
    """Q_d evaluated at X = n^(1/(d+1))."""
    x = float(n) ** (1.0 / (d + 1))
    return sum(coeff * x ** deg for deg, coeff in q_poly(d))


def theta_tilde(d: int, n: float) -> float:
    """Cubic-box saddle parameter (kappa_d / n)^(1/(d+1))."""
    _require_dim(d)
    if n <= 0:
        raise ValueError("n must be positive")
    return (kappa(d) / n) ** (1.0 / (d + 1))


# ---------------------------------------------------------------------------
# Oscillatory zero-sum correction
# ---------------------------------------------------------------------------


def _resolve_zeros(zeros: Sequence[ZetaZero] | None) -> Sequence[ZetaZero]:
    if zeros is None:
        return [first_zero()]
    if not zeros:
        raise ValueError("empty zero list")
    return zeros


@lru_cache(maxsize=256, typed=True)  # typed: a float d must not read the entry of an int d
def _zero_weight(d: int, zero: ZetaZero) -> complex:
    """W(rho) = Pi_d[zeta](rho) zeta(rho+1) Gamma(rho) / zeta'(rho)."""
    rho = zero.rho
    return (pi_d_apply(d, zeta_complex, rho) * zeta_complex(rho + 1)
            * gamma_complex(rho) / zero.zeta_deriv)


def icrit_theta(d: int, theta: float, zeros: Sequence[ZetaZero] | None = None) -> float:
    """I_crit,d(theta) = sum over zeros of 2 Re[W(rho) theta^-rho]."""
    _require_dim(d)
    if theta <= 0:
        raise ValueError("theta must be positive")
    log_theta = math.log(theta)
    acc = 0.0
    for z in _resolve_zeros(zeros):
        acc += 2 * (_zero_weight(d, z) * cmath.exp(-z.rho * log_theta)).real
    return acc


def icrit(d: int, n: float, zeros: Sequence[ZetaZero] | None = None) -> float:
    """Oscillatory correction evaluated at the saddle, theta = (kappa_d/n)^(1/(d+1)).

    Conjugate zero pairs are folded into twice the real part; residues are
    1/zeta'(rho) (simple-zero hypothesis).  zeros defaults to the first zero;
    further zeros change the value by ~1e-4 of the first term.
    """
    return icrit_theta(d, theta_tilde(d, n), zeros)


@dataclass(frozen=True)
class WaveForm:
    """Single-zero reading of I_crit as
    amp_cos n^half_power cos(frequency ln(scale n)) + amp_sin (...) sin(...)."""

    amp_cos: float
    amp_sin: float
    frequency: float
    scale: float
    half_power: float


def icrit_wave_form(d: int, zero: ZetaZero | None = None) -> WaveForm:
    """Extract (A, B, frequency, scale) of the one-zero oscillation at the saddle."""
    _require_dim(d)
    z = zero if zero is not None else first_zero()
    w = _zero_weight(d, z)
    kap = kappa(d)
    pref = 2 * kap ** (-0.5 / (d + 1))
    return WaveForm(
        amp_cos=pref * w.real,
        amp_sin=-pref * w.imag,
        frequency=z.imag / (d + 1),
        scale=1.0 / kap,
        half_power=0.5 / (d + 1),
    )


# ---------------------------------------------------------------------------
# Full estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsympEstimate:
    """Decomposed closed-form estimate of ln z_d(n 1)."""

    dim: int
    n: float
    ln_alpha: float
    beta: Fraction
    q_value: float
    icrit: float

    @property
    def beta_ln_n(self) -> float:
        return float(self.beta) * math.log(self.n)

    @property
    def ln_z_hat(self) -> float:
        return self.ln_alpha + self.beta_ln_n + self.q_value + self.icrit

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n": self.n,
            "ln_alpha": self.ln_alpha,
            "beta": f"{self.beta.numerator}/{self.beta.denominator}",
            "beta_ln_n": self.beta_ln_n,
            "q_value": self.q_value,
            "icrit": self.icrit,
            "ln_z_hat": self.ln_z_hat,
        }


def estimate(d: int, n: float, zeros: Sequence[ZetaZero] | None = None) -> AsympEstimate:
    """Closed-form estimate of ln z_d(n 1), decomposed into its four parts."""
    _require_dim(d)
    if n < 1:
        raise ValueError("n must be >= 1")
    return AsympEstimate(dim=d, n=float(n), ln_alpha=alpha_ln(d), beta=beta_exact(d),
                         q_value=q_value(d, n), icrit=icrit(d, n, zeros))


def log_zon_univariate(d: int, theta: float,
                       zeros: Sequence[ZetaZero] | None = None) -> float:
    """Expansion of ln Zon_d(e^-theta, ..., e^-theta) as theta -> 0:

    sum_{delta=1}^{d-1} p_{d,delta} zeta(delta+2) delta! / (zeta(delta+1) theta^(delta+1))
    + I_crit,d(theta) + 2 Pi_d[log(2pi) zeta - zeta'](0) + 2 Pi_d[zeta](0) ln theta.
    """
    _require_dim(d)
    if theta <= 0:
        raise ValueError("theta must be positive")
    const = 2 * _pi_d_log_const(d)  # first: it refuses the d whose (d - 1)! overflows below
    pd = pd_poly(d)
    acc = 0.0
    for delta in range(1, d):
        c = pd[delta]
        if c == 0:
            continue
        acc += (float(c) * zeta_real(delta + 2) * math.factorial(delta)
                / (zeta_real(delta + 1) * theta ** (delta + 1)))
    acc += const + 2 * float(pi_d_zeta_at_zero(d)) * math.log(theta)
    acc += icrit_theta(d, theta, zeros)
    return acc


def estimate_saddle_form(d: int, n: float,
                         zeros: Sequence[ZetaZero] | None = None) -> float:
    """Second assembly route: ln of Zon_d(e^-theta) e^(d n theta) / sqrt((2pi)^d det B)
    at the cubic saddle.  Agrees with estimate().ln_z_hat identically; the diff
    is a regression sentinel."""
    _require_dim(d)
    if n < 1:
        raise ValueError("n must be >= 1")
    th = theta_tilde(d, n)
    kap = kappa(d)
    ln_detb = math.log(d + 1) + d * math.log(kap) - d * (d + 2) * math.log(th)
    return (log_zon_univariate(d, th, zeros) + d * (n * th)
            - 0.5 * (d * LOG_2PI + ln_detb))


def mean_diameter_asympt(d: int, n: float) -> float:
    """Leading-order mean diameter kappa^(1/(d+1))/zeta(d+1) n^(d/(d+1))
    (equivalently 2^(d-1)/(zeta(d) theta_n^d))."""
    _require_dim(d)
    if n < 1:
        raise ValueError("n must be >= 1")
    return kappa(d) ** (1.0 / (d + 1)) / zeta_real(d + 1) * n ** (d / (d + 1.0))


def mean_occurrence_asympt(d: int, n: float, v0: Sequence[int]) -> tuple[float, float]:
    """Leading-order (mean, variance) of one sign class's multiplicity:
    mean = 1/x, variance = mean^2, with x = theta_n ||v0||_1.

    Only the leading term is returned.  The Boltzmann multiplicity is
    Geometric(q), q = e^-x, whose exact mean 1/(e^x - 1) lies a relative
    x/2 - x^2/12 + ... below 1/x; its exact variance e^x/(e^x - 1)^2 differs
    from 1/x^2 by a relative O(x^2)."""
    _require_dim(d)
    coords = _primitive(v0, d, "v0")
    mean = 1.0 / (theta_tilde(d, n) * sum(coords))
    return mean, mean * mean
