"""Soft-error reliability methodology (ACE analysis, Section IV-B)."""

from repro.reliability.ace import AceAccountant, BlockedWindows
from repro.reliability.metrics import mttf_relative, normalized_abc

__all__ = [
    "AceAccountant",
    "BlockedWindows",
    "mttf_relative",
    "normalized_abc",
]
