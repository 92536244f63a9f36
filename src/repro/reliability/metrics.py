"""Reliability metrics relative to a baseline (Section IV-B).

The paper's equations:

    ABC  = Σ_i ACE_i                      (total ACE bit-cycles)
    AVF  = ABC / (N × T)                  (N = unprotected bits, T = cycles)
    FIT  = AVF × raw_error_rate
    MTTF = 1 / FIT

Absolute FIT/MTTF depend on the raw (circuit/environment) error rate, so
results are reported *normalised to the OoO baseline*, where the raw rate
and N cancel:

    MTTF_rel = AVF_base / AVF_variant = (ABC_base × T_variant) /
                                        (ABC_variant × T_base)

``SimResult.avf`` computes the absolute AVF of one point.
"""


def mttf_relative(abc_base: float, cycles_base: int,
                  abc_variant: float, cycles_variant: int) -> float:
    """Variant MTTF normalised to the baseline (higher is better)."""
    if abc_variant <= 0:
        return float("inf")
    return (abc_base * cycles_variant) / (abc_variant * cycles_base)


def normalized_abc(abc_base: float, abc_variant: float) -> float:
    """Variant ABC relative to baseline (lower is better)."""
    if abc_base <= 0:
        raise ValueError("baseline ABC must be positive")
    return abc_variant / abc_base

