"""Lattice zonotopes inscribed in [0,n]^d: exact counts, asymptotics, sampling.

Layers:

* ``primitives`` — primitive directions of the nonnegative orthant as numpy
  rows and their sign-class weights (the index set of the generating
  function, shared by the exact oracles, the diameter numerators and the
  sampler).
* ``exact`` — arbitrary-precision coefficient extraction (counts and exact
  first moments), plus an independent brute-force oracle.
* ``special`` — Riemann zeta / gamma numerics and refined zeta zeros.
* ``asympt`` — the closed-form estimate ln alpha + beta ln n + Q(n^(1/(d+1)))
  + I_crit, its saddle-form twin, and the moment asymptotics.
* ``sampler`` — Boltzmann sampling at the saddle parameter with seeded
  reproducibility.
* ``cli`` — the ``zonocount`` command.
"""

from .asympt import (
    AsympEstimate,
    WaveForm,
    alpha_ln,
    beta_exact,
    estimate,
    estimate_saddle_form,
    icrit,
    icrit_theta,
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
)
from .exact import (
    BruteForceResult,
    CoeffTable,
    EnumerationBudgetError,
    MemoryBudgetError,
    MomentPair,
    brute_force_count,
    build_table,
    diameter_numerators,
    occurrence_numerators,
    zon_coefficient,
)
from .primitives import (
    count_classes_moebius,
    count_primitive_moebius,
    primitive_rows,
    signed_representative,
)
from .sampler import (
    ClassSystem,
    SampleStats,
    ZonotopeSample,
    boltzmann_sample,
    class_system,
    expected_endpoint_truncated,
    sample_stats,
    to_polygon,
    truncation_bias_estimate,
    write_polygon_csv,
    write_sample_csv,
)
from .special import (
    EULER_GAMMA,
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

__version__ = "0.1.0"
