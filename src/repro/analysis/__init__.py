"""Experiment harness: aggregation, run matrix, statistics and reporting."""

from repro.analysis.bootstrap import BootstrapCI, bootstrap_ci, paired_difference_ci
from repro.analysis.energy import (
    DEFAULT_MODEL,
    EnergyModel,
    energy_delay_product,
    energy_per_instruction,
)
from repro.analysis.experiments import ExperimentRunner, RunKey
from repro.analysis.stats import amean, gmean, hmean
from repro.analysis.tables import format_table

__all__ = [
    "ExperimentRunner",
    "RunKey",
    "amean",
    "gmean",
    "hmean",
    "format_table",
    "BootstrapCI",
    "bootstrap_ci",
    "paired_difference_ci",
    "EnergyModel",
    "DEFAULT_MODEL",
    "energy_per_instruction",
    "energy_delay_product",
]
