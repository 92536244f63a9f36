"""A fault that only checkpoint forks see, for the golden fork-leg tests."""

from repro.checkpoint import Checkpoint


def leave_predictor_cold(monkeypatch) -> None:
    """Make every :meth:`Checkpoint.restore_into` restore all but the
    branch predictor, which keeps the fresh core's cold tables. A cold
    core is untouched, so only a fork diverges from its cold run."""
    restore_into = Checkpoint.restore_into

    def restore_all_but_predictor(self, core):
        cold = dict(core.predictor.__dict__)
        restore_into(self, core)
        core.predictor.__dict__.clear()
        core.predictor.__dict__.update(cold)

    monkeypatch.setattr(Checkpoint, "restore_into", restore_all_but_predictor)
