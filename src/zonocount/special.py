"""Numerical special-function stack.

Real and complex Riemann zeta with derivatives, the complex gamma function,
exact Bernoulli numbers, exact zeta values at nonpositive integers, and
refined non-trivial zeta zeros.  Everything here is double precision except
the Bernoulli / zeta(-k) layer, which is exact rational.

The complex zeta evaluator is Euler-Maclaurin based,

    zeta(s) = sum_{n<=N} n^-s + N^(1-s)/(s-1) - N^-s/2
              + sum_{k=1}^{q} B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1),

with N growing linearly in |Im s|.  Left of Re(s) = -1 it switches to the
functional equation zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

EULER_GAMMA = 0.5772156649015328606

# Imaginary parts beyond this would need a larger Euler-Maclaurin cutoff than
# the configured N = 1.3*|Im s| growth is tuned for.
IM_RANGE = 100.0

_EM_TERMS = 10


class SpecialFunctionError(ValueError):
    """Argument outside a routine's supported domain."""


class ZeroVerificationError(ValueError):
    """A claimed zeta zero failed the |zeta(1/2+it)| check."""


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m, convention B_1 = -1/2.

    Computed from sum_{j=0}^{m} C(m+1, j) B_j = 0.
    """
    if m < 0:
        raise SpecialFunctionError("Bernoulli index must be >= 0")
    if m == 0:
        return Fraction(1)
    if m >= 3 and m % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


def zeta_neg_int(k: int) -> Fraction:
    """Exact zeta(-k) for integer k >= 0: zeta(0) = -1/2, else -B_{k+1}/(k+1)."""
    if k < 0:
        raise SpecialFunctionError("k must be >= 0")
    if k == 0:
        return Fraction(-1, 2)
    return -bernoulli(k + 1) / (k + 1)


# B_{2k}/(2k)! for the Euler-Maclaurin correction terms, k = 1..10.
_B2K_OVER_FACT = [
    float(bernoulli(2 * k)) / math.factorial(2 * k) for k in range(1, _EM_TERMS + 1)
]


def _zeta_em_complex(s: complex, n_cut: int) -> complex:
    """Euler-Maclaurin zeta, valid (with 10 corrections) down to Re(s) > -2."""
    acc = complex(0.0, 0.0)
    for n in range(1, n_cut + 1):
        acc += cmath.exp(-s * math.log(n))
    log_n = math.log(n_cut)
    acc += cmath.exp((1 - s) * log_n) / (s - 1)
    acc -= 0.5 * cmath.exp(-s * log_n)
    poch = s
    npow = cmath.exp((-s - 1) * log_n)
    nsq = math.exp(-2 * log_n)
    for k in range(_EM_TERMS):
        acc += _B2K_OVER_FACT[k] * poch * npow
        poch *= (s + 2 * k + 1) * (s + 2 * k + 2)
        npow *= nsq
    return acc


def _zeta_em_deriv(s: complex, n_cut: int) -> complex:
    """Term-by-term derivative of the Euler-Maclaurin formula above."""
    acc = complex(0.0, 0.0)
    for n in range(2, n_cut + 1):
        ln = math.log(n)
        acc -= ln * cmath.exp(-s * ln)
    log_n = math.log(n_cut)
    acc += cmath.exp((1 - s) * log_n) * (-log_n / (s - 1) - 1.0 / (s - 1) ** 2)
    acc += 0.5 * log_n * cmath.exp(-s * log_n)
    poch = s
    dpoch = complex(1.0, 0.0)
    npow = cmath.exp((-s - 1) * log_n)
    nsq = math.exp(-2 * log_n)
    for k in range(_EM_TERMS):
        acc += _B2K_OVER_FACT[k] * (dpoch - log_n * poch) * npow
        a, b = s + 2 * k + 1, s + 2 * k + 2
        dpoch = dpoch * a * b + poch * (a + b)
        poch *= a * b
        npow *= nsq
    return acc


def _em_cutoff(s: complex) -> int:
    return max(20, math.ceil(1.3 * abs(s.imag)))


@lru_cache(maxsize=128)
def zeta_real(s: float) -> float:
    """zeta(s) for real s > 1, absolute error below 1e-14 (Euler-Maclaurin, N = 20)."""
    if s <= 1:
        raise SpecialFunctionError("zeta_real requires s > 1; use zeta_complex for continuation")
    return _zeta_em_complex(complex(s, 0.0), 20).real


# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEF = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]


def _log_sin_pi(s: complex) -> complex:
    """A logarithm of sin(pi s); past |Im s| = 1 from the dominant exponential,
    since sin(pi s) itself overflows from about |Im s| = 226."""
    if s.imag < -1:
        return _log_sin_pi(s.conjugate()).conjugate()
    if s.imag <= 1:
        return cmath.log(cmath.sin(math.pi * s))
    # sin(pi s) = (i/2) e^(-i pi s) (1 - e^(2 i pi s)), with |e^(2 i pi s)| < e^(-2 pi)
    return (complex(-math.log(2), math.pi / 2) - 1j * math.pi * s
            + cmath.log(1 - cmath.exp(2j * math.pi * s)))


def gamma_complex(s: complex) -> complex:
    """Gamma(s) on the complex plane via Lanczos (g=7), reflection for Re s < 1/2."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise SpecialFunctionError(f"gamma pole at s = {s.real:g}")
    reflect = s.real < 0.5
    z = -s if reflect else s - 1  # the Lanczos sum gives Gamma(z + 1)
    x = complex(_LANCZOS_COEF[0], 0.0)
    for i in range(1, 9):
        x += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    log_power = (z + 0.5) * cmath.log(t) - t
    try:
        if reflect:
            # Gamma(s) Gamma(1-s) = pi / sin(pi s), in logs so that neither
            # Gamma(1-s) nor sin(pi s) overflows on its own
            value = cmath.exp(0.5 * math.log(math.pi / 2) - _log_sin_pi(s) - log_power
                              - cmath.log(x))
        else:
            value = math.sqrt(2 * math.pi) * cmath.exp(log_power) * x
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):  # Gamma(s) leaves the float range near Re s = 171.6
        raise SpecialFunctionError(f"gamma overflows at s = {s}")
    return value


def zeta_complex(s: complex) -> complex:
    """zeta(s) for complex s != 1, |Im s| <= 100.

    Euler-Maclaurin for Re(s) >= -1, with absolute error below 1e-10; the
    functional equation to the left, with relative error below 1e-12 (there
    |zeta| grows like |Im s|^(1/2 - Re s), so the absolute error can reach 1e-8).
    """
    s = complex(s)
    if s == 1:
        raise SpecialFunctionError("zeta pole at s = 1")
    if abs(s.imag) > IM_RANGE:
        raise SpecialFunctionError(f"|Im s| > {IM_RANGE:g} outside configured range")
    if s.real >= -1.0:
        return _zeta_em_complex(s, _em_cutoff(s))
    w = 1 - s
    chi = (2 ** s) * cmath.exp((s - 1) * math.log(math.pi)) * cmath.sin(math.pi * s / 2)
    return chi * gamma_complex(w) * _zeta_em_complex(w, _em_cutoff(w))


def zeta_deriv_complex(s: complex) -> complex:
    """zeta'(s) for Re s > 0, s != 1; absolute error below 1e-8."""
    s = complex(s)
    if s == 1:
        raise SpecialFunctionError("zeta pole at s = 1")
    if s.real <= 0:
        raise SpecialFunctionError("zeta_deriv_complex requires Re s > 0")
    if abs(s.imag) > IM_RANGE:
        raise SpecialFunctionError(f"|Im s| > {IM_RANGE:g} outside configured range")
    return _zeta_em_deriv(s, _em_cutoff(s))


def _digamma_positive_int(n: int) -> float:
    """psi(n) for integer n >= 1: -gamma + H_{n-1}."""
    return -EULER_GAMMA + sum(1.0 / j for j in range(1, n))


def zeta_deriv_neg_int(k: int) -> float:
    """zeta'(-k) for integer k >= 0 through the differentiated functional equation.

    With S = sin(pi k / 2) and C = cos(pi k / 2) taken exactly,

      zeta'(-k) = 2^-k pi^(-k-1) k! [ -S ((log 2pi - psi(k+1)) zeta(k+1) - zeta'(k+1))
                                      + (pi/2) C zeta(k+1) ].

    k = 0 collapses to the classical -log(2 pi)/2.
    """
    if k < 0:
        raise SpecialFunctionError("k must be >= 0")
    if k == 0:
        return -0.5 * math.log(2 * math.pi)
    sin_k = (0, 1, 0, -1)[k % 4]
    cos_k = (1, 0, -1, 0)[k % 4]
    zk = zeta_real(k + 1)
    pref = 2.0 ** (-k) * math.pi ** (-k - 1) * math.factorial(k)
    term = 0.0
    if sin_k:
        zdk = _zeta_em_deriv(complex(k + 1, 0.0), 20).real
        term += -sin_k * ((math.log(2 * math.pi) - _digamma_positive_int(k + 1)) * zk - zdk)
    if cos_k:
        term += (math.pi / 2) * cos_k * zk
    return pref * term


@dataclass(frozen=True)
class ZetaZero:
    """A non-trivial zero 1/2 + i*imag with its zeta'(rho) (simple-zero hypothesis).

    Made from the ordinate alone, it checks itself once: ZeroVerificationError
    unless |zeta(rho)| < 1e-8 and zeta'(rho) != 0.
    """

    imag: float
    zeta_deriv: complex = field(init=False)

    def __post_init__(self):
        residual = abs(zeta_complex(self.rho))
        if residual >= _ZERO_RESIDUAL:
            raise ZeroVerificationError(
                f"no zero at t = {self.imag:g}: |zeta(1/2 + it)| = {residual:.3e}")
        deriv = zeta_deriv_complex(self.rho)
        if deriv == 0:
            raise ZeroVerificationError(f"zero at t = {self.imag:.6f} appears non-simple")
        object.__setattr__(self, "zeta_deriv", deriv)

    @property
    def rho(self) -> complex:
        return complex(0.5, self.imag)


FIRST_ZERO_GUESS = 14.1347

_ZERO_RESIDUAL = 1e-8
_FILE_RESIDUAL = 1e-6

# Newton steps refine_zero takes at most
_REFINE_STEPS = 60


def refine_zero(t_guess: float) -> ZetaZero:
    """Polish a zero ordinate by Newton iteration on t -> zeta(1/2 + it).

    Raises ZeroVerificationError unless |zeta| < 1e-8 at the refined point.
    """
    t = float(t_guess)
    for _ in range(_REFINE_STEPS):
        s = complex(0.5, t)
        step = (zeta_complex(s) / (1j * zeta_deriv_complex(s))).real
        t -= step
        if abs(step) < 1e-13:
            break
    return ZetaZero(t)


@lru_cache(maxsize=1)
def first_zero() -> ZetaZero:
    """The first non-trivial zero, located at runtime near t = 14.1347 and cached."""
    return refine_zero(FIRST_ZERO_GUESS)


def load_zeros_file(path) -> list[ZetaZero]:
    """Parse a zeros file (one positive ordinate per line, '#' comments).

    Each entry is checked (|zeta(1/2+it)| < 1e-6), then refined; bad entries,
    and entries that refine to the zero of an earlier line, raise
    ZeroVerificationError naming the offending line.
    """
    zeros: list[ZetaZero] = []
    lines: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                t = float(line)
            except ValueError as exc:
                raise ZeroVerificationError(f"{path}:{lineno}: not a number: {line!r}") from exc
            if not 0 < t <= IM_RANGE:
                raise ZeroVerificationError(
                    f"{path}:{lineno}: ordinate {t:g} outside (0, {IM_RANGE:g}]")
            residual = abs(zeta_complex(complex(0.5, t)))
            if residual >= _FILE_RESIDUAL:
                raise ZeroVerificationError(
                    f"{path}:{lineno}: |zeta(1/2 + {t:g}i)| = {residual:.3e} >= 1e-6")
            zero = refine_zero(t)
            for earlier, other in zip(lines, zeros):
                if math.isclose(zero.imag, other.imag, rel_tol=1e-9):
                    raise ZeroVerificationError(
                        f"{path}:{lineno}: ordinate {t:g} refines to the zero of line {earlier}")
            zeros.append(zero)
            lines.append(lineno)
    return zeros
