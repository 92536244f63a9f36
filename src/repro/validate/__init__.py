"""Simulator sanitizer: per-cycle invariant checking, commit oracle,
golden fingerprints.

Three validation layers; the first two are opt-in and zero-cost when
disabled:

- :class:`~repro.validate.invariants.InvariantChecker` — a pipeline
  :class:`~repro.core.engine.Component` stepped after every simulated
  cycle that cross-checks the core's redundant state (ROB ordering and
  capacity, LSQ counter reconciliation, physical-register/PRDQ leak
  accounting, ACE interval well-formedness and live-bit capacity, stats
  formula reconciliation). Enabled via ``validate=True`` on
  :func:`repro.sim.simulate`, :class:`repro.core.core.OutOfOrderCore`
  and the checkpoint API; any breach raises
  :class:`~repro.validate.invariants.InvariantViolation` at the exact
  cycle it first becomes observable.
- :class:`~repro.validate.oracle.CommitOracle` — a program-order
  functional reference model walking the trace stream, lockstep-checked
  against every retirement via a commit hook; any retirement-semantics
  drift raises :class:`~repro.validate.oracle.OracleViolation`.
  Enabled via ``oracle=True`` on :func:`repro.sim.simulate` and the
  checkpoint API.
- :mod:`repro.validate.golden` — canonical conformance fingerprints
  (stable hash of the full result payload plus the oracle's commit
  digest) for the 45-point conformance grid, frozen under
  ``tests/golden/`` and checked by ``repro golden``. Every point is
  measured from a cold core and again from a same-policy checkpoint
  fork, and the two must be bit-identical.

See docs/validation.md for the invariant catalog and a walkthrough.
"""

from repro.validate.invariants import InvariantChecker, InvariantViolation
from repro.validate.oracle import CommitOracle, OracleViolation, attach_oracle

__all__ = [
    "CommitOracle",
    "InvariantChecker",
    "InvariantViolation",
    "OracleViolation",
    "attach_oracle",
]
