"""Incrementally folded TAGE histories must match the from-scratch fold.

PR 4 replaced the per-prediction ``fold()`` recomputation with folded-
history CSRs advanced on every history shift (what the hardware keeps).
These tests pin the fast path to the old slow path: identical CSR values,
identical predictions, identical trained state.
"""

import random

from repro.frontend.tage import TageScL


def _stream(n, seed=7):
    rng = random.Random(seed)
    pcs = [0x4000 + 4 * i for i in range(97)]
    for _ in range(n):
        yield pcs[rng.randrange(len(pcs))], rng.random() < 0.6


def test_csrs_match_from_scratch_fold():
    p = TageScL()
    for pc, taken in _stream(3000):
        p.observe(pc, taken)
        for t in p.tables:
            assert t.f_idx == t.fold(p.hist, t._idx_bits)
            assert t.f_tag == t.fold(p.hist, t.tag_bits)


def test_predictions_identical_to_slow_path():
    """A twin predictor whose CSRs are refolded from scratch before every
    branch (the old code path) must predict and train identically."""
    fast = TageScL()
    slow = TageScL()
    for pc, taken in _stream(3000, seed=11):
        slow.hist = slow.hist  # setter refolds every CSR from scratch
        assert fast.observe(pc, taken) == slow.observe(pc, taken)
    assert fast.hist == slow.hist
    assert fast.mispredictions == slow.mispredictions
    assert fast.bimodal == slow.bimodal
    for a, b in zip(fast.tables, slow.tables):
        assert a.tags == b.tags
        assert a.ctrs == b.ctrs
        assert a.useful == b.useful


def test_hist_overwrite_refolds():
    """Runahead exit restores a checkpointed history via the setter; every
    CSR must come back consistent with the restored value."""
    p = TageScL()
    for pc, taken in _stream(500, seed=3):
        p.observe(pc, taken)
    ckpt = p.hist
    for pc, taken in _stream(200, seed=5):
        p.observe(pc, taken)
    p.hist = ckpt
    for t in p.tables:
        assert t.f_idx == t.fold(ckpt, t._idx_bits)
        assert t.f_tag == t.fold(ckpt, t.tag_bits)


def test_edge_fold_widths():
    """The shift formula's edge cases: fold width wider than the history
    window (B > L) and window an exact multiple of the width (L % B == 0),
    each on a one-table predictor whose history length is exactly L."""
    for size, tag_bits, hist_len in ((1024, 9, 4), (16, 4, 8), (16, 4, 64)):
        p = TageScL(num_tables=1, table_size=size, tag_bits=tag_bits,
                    min_hist=hist_len, max_hist=hist_len)
        (t,) = p.tables
        assert t.hist_len == hist_len
        rng = random.Random(hist_len)
        for _ in range(1000):
            p.shift_history(rng.randrange(2) == 1)
            assert t.f_idx == t.fold(p.hist, t._idx_bits)
            assert t.f_tag == t.fold(p.hist, t.tag_bits)
