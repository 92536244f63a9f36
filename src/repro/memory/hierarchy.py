"""Composed memory hierarchy: L1D + private L2 + shared L3 + DRAM.

The hierarchy is accessed synchronously: ``access(addr, cycle)`` walks the
levels, updates contents, books DRAM bank/bus time and returns when the
data is ready and which level serviced it. Outstanding misses are tracked
per line so that concurrent accesses to an in-flight line *merge* (MSHR
semantics) instead of issuing duplicate memory requests.

L1 MSHRs bound demand memory-level parallelism: when all MSHRs are in
flight, a new L1-missing access is rejected (returns ``None``) and the core
retries later. Runahead prefetches are demand accesses issued during
runahead mode and obey the same MSHR limit, exactly as in the paper.

The instruction cache is assumed to always hit: catalog workloads are
small loops whose code footprint trivially fits in the 32 KB L1I, so I-side
timing is folded into the front-end depth.
"""

from typing import Dict, List, Optional, Tuple

from repro.common.params import MachineParams, PrefetcherParams
from repro.memory.cache import Cache
from repro.memory.dram import DramController
from repro.memory.prefetcher import StridePrefetcher

LINE_MASK = ~63


class MemoryHierarchy:
    def __init__(self, machine: MachineParams):
        self.machine = machine
        self.l1d = Cache(machine.l1d, "l1")
        self.l2 = Cache(machine.l2, "l2")
        self.l3 = Cache(machine.l3, "l3")
        self.dram = DramController(machine.dram)
        self.mshr_limit = machine.l1d.mshrs or 1 << 30
        # Accumulated lookup latencies, precomputed off the hot path.
        self._lat_l1 = machine.l1d.latency
        self._lat_l12 = machine.l1d.latency + machine.l2.latency
        self._lat_l123 = self._lat_l12 + machine.l3.latency
        #: line -> (done_cycle, level) for in-flight fills
        self._outstanding: Dict[int, Tuple[int, str]] = {}
        #: (done_cycle) min-heap substitute: sorted-enough list of demand
        #: miss completions, pruned lazily for the MSHR count
        self._mshr_done: List[int] = []
        #: lower bound on the next MSHR completion (gates lazy pruning)
        self._mshr_min = 1 << 62
        self._prefetch_done: List[int] = []
        self.prefetcher: Optional[StridePrefetcher] = None
        self._pf_levels: Tuple[str, ...] = ()
        self._pf_queue = PrefetcherParams.queue
        if machine.prefetcher is not None:
            self.prefetcher = StridePrefetcher(machine.prefetcher)
            self._pf_levels = machine.prefetcher.levels
            self._pf_queue = machine.prefetcher.queue
        self.demand_accesses = 0
        self.demand_llc_misses = 0
        self.writebacks_to_l2 = 0
        self.writebacks_to_l3 = 0
        self.writebacks_to_dram = 0
        #: virtual page -> physical frame (lazy, deterministic in the seed)
        self._page_map: Dict[int, int] = {}
        self._page_seed = machine.page_shuffle_seed
        self.rejected_mshr_full = 0
        self.prefetches_issued = 0
        #: optional telemetry hook, called as ``observer(event, cycle,
        #: **data)`` on demand LLC misses ("llc_miss": addr, pc, done).
        #: None (the default) costs one attribute test per miss.
        self.observer = None

    # ------------------------------------------------------------------ MSHR

    def mshr_in_use(self, cycle: int) -> int:
        """Demand L1 MSHRs currently in flight."""
        done = self._mshr_done
        # Prune only when an entry can actually have expired (the cached
        # minimum bounds every completion cycle from below).
        if done and self._mshr_min <= cycle:
            alive = [d for d in done if d > cycle]
            self._mshr_done = alive
            self._mshr_min = min(alive) if alive else 1 << 62
            done = alive
        return len(done)

    # ---------------------------------------------------------------- access

    def access(
        self,
        addr: int,
        cycle: int,
        is_write: bool = False,
        pc: int = -1,
    ) -> Optional[Tuple[int, str, bool]]:
        """One demand access: ``(done_cycle, level, merged)`` — the cycle
        the data is ready, the level that serviced it ("l1", "l2", "l3"
        or "dram"), and whether it merged into an in-flight fill. Returns
        None when rejected (MSHRs full)."""
        line = addr & LINE_MASK
        lat_l1 = self._lat_l1

        pending = self._outstanding.get(line)
        if pending is not None:
            done, level = pending
            if done > cycle:
                # Merge into the in-flight fill; data arrives with it.
                if is_write:
                    self.l1d.mark_dirty(line)
                return done, level, True
            del self._outstanding[line]

        self.demand_accesses += 1
        # Inlined l1d.lookup() hit path — the overwhelmingly common case.
        l1 = self.l1d
        line_no = line >> l1._line_shift
        set_idx = line_no & l1._set_mask
        tag = line_no >> l1._tag_shift
        ways = l1._sets.get(set_idx)
        if ways is not None and tag in ways:
            l1.hits += 1
            if ways[-1] != tag:
                ways.remove(tag)
                ways.append(tag)
            if is_write:
                l1._dirty.add((set_idx, tag))
            return cycle + lat_l1, "l1", False
        l1.misses += 1

        # Nothing in flight can have completed before the cached minimum,
        # so the count needs pruning only at or past it.
        in_use = len(self._mshr_done) if self._mshr_min > cycle \
            else self.mshr_in_use(cycle)
        if in_use >= self.mshr_limit:
            self.rejected_mshr_full += 1
            return None

        if self.l2.lookup(line):
            done = cycle + self._lat_l12
            level = "l2"
        else:
            lat = self._lat_l123
            if self.l3.lookup(line):
                done = cycle + lat
                level = "l3"
            else:
                done = self.dram.access(self.translate(line), cycle + lat,
                                        kind="demand")
                level = "dram"
                self.demand_llc_misses += 1
                if self.observer is not None:
                    self.observer("llc_miss", cycle, addr=line, pc=pc,
                                  done=done)
                self._fill(self.l3, line, cycle)
            self._fill(self.l2, line, cycle)
        victim = self.l1d.insert(line, dirty=is_write)
        if victim is not None and victim[1]:
            # Dirty L1 victim: write back into L2.
            self.writebacks_to_l2 += 1
            self._fill(self.l2, victim[0], cycle, dirty=True)
        self._outstanding[line] = (done, level)
        self._mshr_done.append(done)
        if done < self._mshr_min:
            self._mshr_min = done
        self._maybe_prefetch(line, cycle, pc, level)
        return done, level, False

    def probe_level(self, addr: int) -> str:
        """Which level would service ``addr`` right now (no side effects)."""
        line = addr & LINE_MASK
        if line in self._outstanding:
            return self._outstanding[line][1]
        if self.l1d.contains(line):
            return "l1"
        if self.l2.contains(line):
            return "l2"
        if self.l3.contains(line):
            return "l3"
        return "dram"

    # -------------------------------------------------------- translation

    def translate(self, line: int) -> int:
        """Virtual line → physical line for DRAM decoding.

        Identity unless ``page_shuffle_seed`` is set, in which case each
        4 KB page gets a pseudo-random (but stable) physical frame — the
        page *offset* is preserved, so intra-page row locality survives
        while cross-page stream contiguity is destroyed, as with a real
        OS's page allocator.
        """
        if self._page_seed is None:
            return line
        page = line >> 12
        frame = self._page_map.get(page)
        if frame is None:
            # splitmix64-style hash: deterministic, well-scrambled
            z = (page + 0x9E3779B97F4A7C15 * (self._page_seed + 1)) \
                & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            frame = (z ^ (z >> 31)) & 0xFFFFFFFF
            self._page_map[page] = frame
        return (frame << 12) | (line & 0xFFF)

    # ----------------------------------------------------------- writeback

    def _fill(self, cache: Cache, line: int, cycle: int,
              dirty: bool = False) -> None:
        """Insert a line and propagate dirty victims down the hierarchy."""
        victim = cache.insert(line, dirty=dirty)
        if victim is None or not victim[1]:
            return
        vline, _ = victim
        if cache is self.l2:
            self.writebacks_to_l3 += 1
            self._fill(self.l3, vline, cycle, dirty=True)
        elif cache is self.l3:
            # LLC victim writeback: a queued DRAM request that occupies a
            # bank/bus slot but is off the load critical path
            # (fire-and-forget).
            self.dram.access(self.translate(vline), cycle, kind="writeback")
            self.writebacks_to_dram += 1

    # ------------------------------------------------------------- preload

    def preload(self, base: int, size: int, level: str) -> None:
        """Install a region's lines as if long-resident (warmup shortcut).

        ``level`` "l1" fills all levels (hot data); "l3" fills the shared
        LLC only (warm data whose reuse distance exceeds L2 retention).
        """
        if level not in ("l1", "l3"):
            raise ValueError(f"preload level must be 'l1' or 'l3', not {level!r}")
        line = base & LINE_MASK
        end = base + size
        while line < end:
            self.l3.insert(line)
            if level == "l1":
                self.l2.insert(line)
                self.l1d.insert(line)
            line += self.machine.l1d.line_size

    # ------------------------------------------------------------- prefetch

    def _maybe_prefetch(self, line: int, cycle: int, pc: int, level: str) -> None:
        pf = self.prefetcher
        if pf is None or pc < 0:
            return
        train_all = "l1" in self._pf_levels
        # The L3-level prefetcher only observes traffic that reaches it.
        if not train_all and level not in ("l3", "dram"):
            return
        for target in pf.train(pc, line):
            self._issue_prefetch(target & LINE_MASK, cycle)

    def _issue_prefetch(self, line: int, cycle: int) -> None:
        pend = self._prefetch_done
        if pend:
            alive = [d for d in pend if d > cycle]
            if len(alive) != len(pend):
                self._prefetch_done = alive
                pend = alive
        if len(pend) >= self._pf_queue:
            return
        entry = self._outstanding.get(line)
        if entry is not None and entry[0] > cycle:
            return
        fill_l1 = "l1" in self._pf_levels
        if fill_l1 and self.l1d.contains(line):
            return
        if not fill_l1 and self.l3.contains(line):
            return
        lat = (
            self.machine.l1d.latency
            + self.machine.l2.latency
            + self.machine.l3.latency
        )
        if self.l3.contains(line):
            # Promotion from L3 into the upper levels: a demand access
            # merging with it is an L3 hit, not an LLC miss.
            done, level = cycle + lat, "l3"
        else:
            done = self.dram.access(self.translate(line), cycle + lat,
                                    kind="prefetch")
            level = "dram"
            self._fill(self.l3, line, cycle)
        if fill_l1:
            self._fill(self.l2, line, cycle)
            self.l1d.insert(line)
        self._outstanding[line] = (done, level)
        self._prefetch_done.append(done)
        self.prefetches_issued += 1
