"""Physical register files and rename back-pressure.

Counter-based rename model: the architectural mappings permanently hold
``arch_regs`` physical registers per class; every dispatched uop with a
destination claims one more from the free pool and returns one at commit
(the previous mapping of its architectural destination) or at squash (its
own allocation). Dispatch stalls when a class' free pool is empty.

A RAT checkpoint (taken at runahead entry) is modelled as restoring the
free-pool levels recorded at checkpoint time minus registers still held by
surviving (older) uops — with counters, restoring is just handing back
everything the squashed uops held, which the squash path already does.
RAT checkpoints themselves are assumed ECC-protected (Section IV-A).
"""

from repro.isa.uop import DynUop


class RegisterFiles:
    def __init__(self, int_regs: int, fp_regs: int, arch_regs: int = 32):
        if int_regs <= arch_regs or fp_regs <= arch_regs:
            raise ValueError("physical registers must exceed architectural")
        self.int_total = int_regs
        self.fp_total = fp_regs
        self.int_free = self._int_max_free = int_regs - arch_regs
        self.fp_free = self._fp_max_free = fp_regs - arch_regs
        #: registers lent to runahead slice uops (PRDQ-managed)
        self.runahead_int = 0
        self.runahead_fp = 0

    def can_allocate(self, uop: DynUop) -> bool:
        if not uop.static.has_dest:
            return True
        return (self.fp_free if uop.static.is_fp else self.int_free) > 0

    def allocate(self, uop: DynUop) -> None:
        if not uop.static.has_dest:
            return
        if uop.static.is_fp:
            if self.fp_free <= 0:
                raise OverflowError("fp register file exhausted")
            self.fp_free -= 1
        else:
            if self.int_free <= 0:
                raise OverflowError("int register file exhausted")
            self.int_free -= 1

    def release(self, uop: DynUop) -> None:
        if not uop.static.has_dest:
            return
        if uop.static.is_fp:
            self.fp_free += 1
            if self.fp_free > self._fp_max_free:
                raise RuntimeError("fp free-list overflow")
        else:
            self.int_free += 1
            if self.int_free > self._int_max_free:
                raise RuntimeError("int free-list overflow")

    # -------------------------------------------------- runahead lending

    def runahead_available(self, fp: bool) -> bool:
        return (self.fp_free if fp else self.int_free) > 0

    def runahead_borrow(self, fp: bool) -> None:
        if fp:
            if self.fp_free <= 0:
                raise OverflowError("no free fp registers for runahead")
            self.fp_free -= 1
            self.runahead_fp += 1
        else:
            if self.int_free <= 0:
                raise OverflowError("no free int registers for runahead")
            self.int_free -= 1
            self.runahead_int += 1

    def runahead_return(self, fp: bool) -> None:
        if fp:
            if self.runahead_fp <= 0:
                raise RuntimeError("returning unborrowed fp register")
            self.runahead_fp -= 1
            self.fp_free += 1
        else:
            if self.runahead_int <= 0:
                raise RuntimeError("returning unborrowed int register")
            self.runahead_int -= 1
            self.int_free += 1

    def runahead_return_all(self) -> None:
        self.fp_free += self.runahead_fp
        self.int_free += self.runahead_int
        self.runahead_fp = 0
        self.runahead_int = 0
