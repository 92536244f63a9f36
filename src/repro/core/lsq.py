"""Load and store queues.

Occupancy-only model: entries are allocated at dispatch (dispatch stalls
when the relevant queue is full; ``WindowBackEnd._do_dispatch`` does both
inline) and released at commit or squash. Timing
of the memory accesses themselves is handled by the hierarchy; the LSQ's
simulator role is (a) back-pressure and (b) the ACE-vulnerable state its
entries hold between execute and commit (120 b/entry LQ, 184 b/entry SQ).

Store-to-load forwarding and memory-order checking are not modelled: the
synthetic workloads keep load and store footprints on distinct lines, so
forwarding would never fire (documented substitution, DESIGN.md §2).
"""

from repro.isa.uop import DynUop


class LoadStoreQueues:
    def __init__(self, lq_size: int, sq_size: int):
        self.lq_size = lq_size
        self.sq_size = sq_size
        self.lq_used = 0
        self.sq_used = 0

    def release(self, uop: DynUop) -> None:
        """Release the entry held by a dispatched load/store.

        Releasing a load/store whose flags are already cleared is a
        double release (commit + squash double-accounting) and raises
        instead of silently no-opping — a silent no-op would leave the
        occupancy counters permanently high and mask the caller's bug.
        """
        st = uop.static
        if st.is_load:
            if not uop.in_lq:
                raise RuntimeError(f"LQ double release: {uop!r}")
            self.lq_used -= 1
            uop.in_lq = False
        elif st.is_store:
            if not uop.in_sq:
                raise RuntimeError(f"SQ double release: {uop!r}")
            self.sq_used -= 1
            uop.in_sq = False
        if self.lq_used < 0 or self.sq_used < 0:
            raise RuntimeError("LSQ underflow")
