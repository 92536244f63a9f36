"""TAGE-SC-L-style branch predictor.

A faithful-in-spirit, compact implementation of the predictor family the
paper configures (8 KB TAGE-SC-L, CBP2016): a bimodal base predictor,
several partially-tagged tables indexed with geometrically increasing
global-history lengths, a loop predictor, and a small statistical corrector
that can override the TAGE output when it is historically biased wrong.

The simulator is trace-driven, so the predictor is updated with the actual
outcome immediately after each prediction (in-order, speculation-free
training — standard practice for trace-driven studies).
"""

from typing import List, Optional, Tuple

#: corrector drift at which the TAGE output is flipped
_SC_FLIP = 12


class _TaggedTable:
    __slots__ = ("size", "tag_bits", "hist_len", "tags", "ctrs", "useful",
                 "_idx_mask", "_tag_mask", "_idx_bits", "f_idx", "f_tag",
                 "_out_bit", "_idx_top", "_tag_top", "_idx_drop",
                 "_tag_drop")

    def __init__(self, size: int, tag_bits: int, hist_len: int):
        self.size = size
        self.tag_bits = tag_bits
        self.hist_len = hist_len
        self.tags = [0] * size
        self.ctrs = [0] * size  # signed 3-bit: -4..3, taken when >= 0
        self.useful = [0] * size
        self._idx_mask = size - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._idx_bits = size.bit_length() - 1
        # Folded-history CSRs, maintained incrementally on every history
        # shift (hardware keeps exactly these registers; recomputing the
        # fold per prediction is the software-only slow path).
        self.f_idx = 0
        self.f_tag = 0
        # Shift constants of both CSRs (see TageScL.shift_history): the
        # bit leaving the history window, each register's top bit, and
        # the position the outgoing bit cancels (L mod B).
        self._out_bit = hist_len - 1
        self._idx_top = self._idx_bits - 1
        self._tag_top = tag_bits - 1
        self._idx_drop = hist_len % self._idx_bits
        self._tag_drop = hist_len % tag_bits

    def fold(self, hist: int, bits: int) -> int:
        h = hist & ((1 << self.hist_len) - 1)
        folded = 0
        while h:
            folded ^= h & ((1 << bits) - 1)
            h >>= bits
        return folded

    def index(self, pc: int, hist: int) -> int:
        return (pc ^ (pc >> 4) ^ self.fold(hist, self._idx_bits)) \
            & self._idx_mask

    def tag(self, pc: int, hist: int) -> int:
        return (pc ^ self.fold(hist, self.tag_bits)) & self._tag_mask or 1

    def refold(self, hist: int) -> None:
        """Recompute both CSRs from scratch (history overwritten, e.g. the
        runahead-exit checkpoint restore)."""
        self.f_idx = self.fold(hist, self._idx_bits)
        self.f_tag = self.fold(hist, self.tag_bits)


class _LoopPredictor:
    """Learns fixed trip counts of loop branches."""

    __slots__ = ("_table", "_size")

    def __init__(self, size: int = 64):
        # pc -> [trip_count_learned, current_count, confidence]
        self._table: dict = {}
        self._size = size

    def predict(self, pc: int) -> Optional[bool]:
        e = self._table.get(pc)
        if e is None or e[2] < 2:
            return None
        trip, cur, _conf = e
        return cur < trip  # taken until the learned trip count is reached

    def update(self, pc: int, taken: bool) -> None:
        e = self._table.get(pc)
        if e is None:
            if len(self._table) >= self._size:
                self._table.pop(next(iter(self._table)))
            e = self._table[pc] = [0, 0, 0]
        if taken:
            e[1] += 1
            if e[1] > 4096:  # runaway: not a countable loop
                self._table.pop(pc, None)
            return
        # Loop exit: check whether the trip count repeats.
        if e[1] == e[0] and e[0] > 0:
            e[2] = min(e[2] + 1, 3)
        else:
            e[0] = e[1]
            e[2] = 0
        e[1] = 0


class TageScL:
    """Predictor facade used by the core.

    Args:
        num_tables: tagged TAGE components.
        table_size: entries per tagged component (power of two).
        min_hist/max_hist: geometric history length range.
    """

    def __init__(
        self,
        num_tables: int = 5,
        table_size: int = 1024,
        tag_bits: int = 9,
        min_hist: int = 4,
        max_hist: int = 128,
        bimodal_size: int = 8192,
    ):
        if table_size & (table_size - 1):
            raise ValueError("table_size must be a power of two")
        ratio = (max_hist / min_hist) ** (1.0 / max(1, num_tables - 1))
        self.tables: List[_TaggedTable] = []
        h = float(min_hist)
        for _ in range(num_tables):
            self.tables.append(_TaggedTable(table_size, tag_bits, int(round(h))))
            h *= ratio
        self.bimodal = [1] * bimodal_size  # 2-bit: 0..3, taken when >= 2
        self._bimodal_mask = bimodal_size - 1
        self._hist = 0
        self.loop = _LoopPredictor()
        # Statistical corrector: per-PC bias counters that veto TAGE when
        # the TAGE prediction has been persistently wrong for this PC.
        self._sc: dict = {}
        self._alloc_seed = 0x9E3779B9
        self.predictions = 0
        self.mispredictions = 0

    @property
    def hist(self) -> int:
        return self._hist

    @hist.setter
    def hist(self, value: int) -> None:
        # Overwriting the history (runahead exit restores a checkpoint)
        # invalidates every CSR: refold from scratch.
        self._hist = value
        for table in self.tables:
            table.refold(value)

    # ------------------------------------------------------------- predict

    def _tage_predict(self, pc: int) -> Tuple[bool, int, int]:
        """Returns (prediction, provider_table_index_or_-1, provider_idx)."""
        provider = -1
        pidx = 0
        pred: Optional[bool] = None
        for t in range(len(self.tables) - 1, -1, -1):
            table = self.tables[t]
            idx = (pc ^ (pc >> 4) ^ table.f_idx) & table._idx_mask
            if table.tags[idx] == ((pc ^ table.f_tag) & table._tag_mask or 1):
                provider = t
                pidx = idx
                pred = table.ctrs[idx] >= 0
                break
        if pred is None:
            pred = self.bimodal[pc & self._bimodal_mask] >= 2
        return pred, provider, pidx

    def predict(self, pc: int) -> bool:
        loop_pred = self.loop.predict(pc)
        if loop_pred is not None:
            return loop_pred
        pred, _, _ = self._tage_predict(pc)
        sc = self._sc.get(pc)
        if sc is not None and sc >= _SC_FLIP:
            # Corrector is confident the TAGE output is systematically
            # wrong for this PC: flip it. (Large *negative* drift means
            # TAGE is persistently right — never flip on that side.)
            pred = not pred
        return pred

    # -------------------------------------------------------------- update

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        """Train all components with the resolved outcome."""
        self._train(pc, taken, predicted, *self._tage_predict(pc))

    def _train(self, pc: int, taken: bool, predicted: bool,
               tage_pred: bool, provider: int, pidx: int) -> None:
        """Training body shared by :meth:`update` and :meth:`observe`;
        ``tage_pred, provider, pidx`` is the :meth:`_tage_predict` lookup
        for ``pc`` under the current history."""
        self.predictions += 1
        if predicted != taken:
            self.mispredictions += 1
        self.loop.update(pc, taken)

        # Statistical corrector training: track whether TAGE agreed.
        sc = self._sc.get(pc, 0)
        sc += 1 if tage_pred != taken else -1
        self._sc[pc] = max(-16, min(16, sc))
        if len(self._sc) > 4096:
            self._sc.pop(next(iter(self._sc)))

        if provider >= 0:
            table = self.tables[provider]
            c = table.ctrs[pidx]
            table.ctrs[pidx] = min(3, c + 1) if taken else max(-4, c - 1)
            if tage_pred == taken:
                table.useful[pidx] = min(3, table.useful[pidx] + 1)
            else:
                table.useful[pidx] = max(0, table.useful[pidx] - 1)
        else:
            b = self.bimodal[pc & self._bimodal_mask]
            self.bimodal[pc & self._bimodal_mask] = (
                min(3, b + 1) if taken else max(0, b - 1)
            )

        if tage_pred != taken:
            self._allocate(pc, taken, provider)

    def _allocate(self, pc: int, taken: bool, provider: int) -> None:
        """On a TAGE mispredict, claim an entry in a longer-history table."""
        self._alloc_seed = (self._alloc_seed * 1103515245 + 12345) & 0x7FFFFFFF
        start = provider + 1
        if start >= len(self.tables):
            return
        # Probabilistically skip one table to spread allocations.
        if self._alloc_seed & 1 and start + 1 < len(self.tables):
            start += 1
        for t in range(start, len(self.tables)):
            table = self.tables[t]
            idx = (pc ^ (pc >> 4) ^ table.f_idx) & table._idx_mask
            if table.useful[idx] == 0:
                table.tags[idx] = (pc ^ table.f_tag) & table._tag_mask or 1
                table.ctrs[idx] = 0 if taken else -1
                return
            table.useful[idx] -= 1

    def observe(self, pc: int, taken: bool) -> bool:
        """Predict, then immediately train; returns the prediction.

        Same result as :meth:`predict` then :meth:`update`, from one
        table lookup: nothing the lookup reads changes in between."""
        tage_pred, provider, pidx = self._tage_predict(pc)
        predicted = self.loop.predict(pc)
        if predicted is None:
            predicted = tage_pred
            sc = self._sc.get(pc)
            if sc is not None and sc >= _SC_FLIP:
                predicted = not predicted
        self._train(pc, taken, predicted, tage_pred, provider, pidx)
        self.shift_history(taken)
        return predicted

    def shift_history(self, taken: bool) -> None:
        """Append one outcome to the global history register.

        Each table's folded CSRs advance with it: rotate left by one,
        inject the new bit at position 0 and cancel the bit leaving the
        window (read from the history *before* the shift) at position
        ``L mod B``."""
        b = 1 if taken else 0
        hist = self._hist
        for t in self.tables:
            out = (hist >> t._out_bit) & 1
            f = t.f_idx
            t.f_idx = (((f << 1) | (f >> t._idx_top)) & t._idx_mask) \
                ^ b ^ (out << t._idx_drop)
            f = t.f_tag
            t.f_tag = (((f << 1) | (f >> t._tag_top)) & t._tag_mask) \
                ^ b ^ (out << t._tag_drop)
        self._hist = ((hist << 1) | b) & ((1 << 256) - 1)

    @property
    def mispredict_rate(self) -> float:
        return self.mispredictions / self.predictions if self.predictions else 0.0
