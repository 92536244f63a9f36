"""The commit-stream architectural oracle: clean runs pass, every check
fires on corruption, finite traces end in a clean terminal commit."""

import pytest

from repro.checkpoint import warm_checkpoint
from repro.common.enums import Mode, UopClass
from repro.common.params import BASELINE
from repro.core.core import OutOfOrderCore
from repro.core.runahead import get_policy
from repro.isa.trace import Trace
from repro.isa.uop import NO_ADDR, DynUop, StaticUop
from repro.sim import measure, simulate
from repro.validate import CommitOracle, OracleViolation, attach_oracle
from repro.workloads.catalog import get_workload

_ADD = int(UopClass.INT_ADD)
_LOAD = int(UopClass.LOAD)
_BRANCH = int(UopClass.BRANCH)


def oracled_core(workload="mcf", policy="RAR", instructions=1500):
    """A core run under the oracle, returned live for corruption."""
    spec = get_workload(workload)
    core = OutOfOrderCore(BASELINE, spec.build_trace(), get_policy(policy))
    for level, base, size in spec.resident_regions():
        core.mem.preload(base, size, level)
    attach_oracle(core)
    core.run(instructions)
    return core


def conforming_uop(oracle, ref=None):
    """A dynamic instance that passes every oracle check for the walk's
    next reference uop — the baseline each corruption test perturbs."""
    if ref is None:
        ref = oracle.trace.get(oracle.next_idx)
        assert ref is not None
    u = DynUop(ref, seq=1 << 40)
    u.completed = True
    if ref.is_load:
        u.in_lq = True
    if ref.is_store:
        u.in_sq = True
    return u


def seek_class(oracle, cls):
    """Advance the oracle's walk to the next reference uop of ``cls``."""
    idx = oracle.next_idx
    while True:
        ref = oracle.trace.get(idx)
        assert ref is not None, f"no uop of class {cls} ahead of the walk"
        if ref.cls == cls:
            oracle.next_idx = idx
            return ref
        idx += 1


def finite_trace(n, name="finite"):
    return Trace.from_list(
        [StaticUop(idx=i, pc=0x1000 + 4 * i, cls=_ADD) for i in range(n)],
        name=name)


class TestCleanRuns:
    def test_disabled_by_default(self):
        spec = get_workload("x264")
        core = OutOfOrderCore(BASELINE, spec.build_trace())
        assert core.oracle is None
        assert core.commit_unit.commit_hook is None

    @pytest.mark.parametrize("policy",
                             ["OOO", "FLUSH", "TR", "PRE", "RAR"])
    def test_lockstep_passes(self, policy):
        core = oracled_core(policy=policy)
        core.oracle.final_check()
        s = core.oracle.summary()
        assert s["commits"] >= 1500
        assert s["branches"] > 0
        assert len(s["digest"]) == 64

    def test_bit_identical_with_and_without(self):
        kw = dict(instructions=1500, warmup=500)
        a = simulate("mcf", BASELINE, "RAR", **kw)
        b = simulate("mcf", BASELINE, "RAR", oracle=True, **kw)
        assert a.to_dict() == b.to_dict()

    def test_digest_deterministic(self):
        a = oracled_core(instructions=800)
        b = oracled_core(instructions=800)
        assert a.oracle.commits == b.oracle.commits
        assert a.oracle.digest() == b.oracle.digest()

    def test_checkpoint_fork_resumes_walk(self):
        """A fork's oracle picks up mid-stream and the result matches a
        plain fork bit for bit."""
        ck = warm_checkpoint("mcf", BASELINE, "PRE", warmup=500)
        plain = measure(ck.fork("PRE"), 1000, "mcf")
        checked = measure(ck.fork("PRE", oracle=True), 1000, "mcf")
        assert plain.to_dict() == checked.to_dict()
        core = ck.fork(oracle=True)
        assert core.oracle.start_idx >= 500
        core.run(1000)
        core.oracle.final_check()
        assert core.oracle.commits >= 1000

    def test_oracle_outside_checkpoint_state(self):
        """The hook is wiring, not state: a checkpoint captured from an
        oracle'd core restores into a plain one with no hook attached."""
        spec = get_workload("mcf")
        core = OutOfOrderCore(BASELINE, spec.build_trace(),
                              get_policy("OOO"))
        attach_oracle(core)
        core.run(300)
        from repro.checkpoint import Checkpoint
        ck = Checkpoint.capture(core, "mcf", 300, None)
        fork = ck.fork()
        assert fork.oracle is None
        assert fork.commit_unit.commit_hook is None

    def test_hook_chaining_preserved(self):
        """Attaching the oracle over an existing hook keeps both firing."""
        spec = get_workload("mcf")
        core = OutOfOrderCore(BASELINE, spec.build_trace(),
                              get_policy("OOO"))
        seen = []
        core.commit_unit.commit_hook = lambda u, c: seen.append(u.seq)
        attach_oracle(core)
        core.run(200)
        assert len(seen) == core.oracle.commits >= 200


class TestDetection:
    """Every oracle check fires on the corruption it guards against."""

    def test_idx_sequence_skip(self):
        core = oracled_core(instructions=300)
        oracle = core.oracle
        ref = oracle.trace.get(oracle.next_idx + 5)
        u = conforming_uop(oracle, ref)  # retires 5 uops too early
        with pytest.raises(OracleViolation, match="idx-sequence"):
            oracle.on_commit(u, core.cycle)

    def test_idx_sequence_replay(self):
        core = oracled_core(instructions=300)
        oracle = core.oracle
        ref = oracle.trace.get(oracle.next_idx - 1)
        u = conforming_uop(oracle, ref)  # already-retired index again
        with pytest.raises(OracleViolation, match="idx-sequence"):
            oracle.on_commit(u, core.cycle)

    def test_uop_mismatch_forged_addr(self):
        core = oracled_core(instructions=300)
        oracle = core.oracle
        ref = oracle.trace.get(oracle.next_idx)
        forged = StaticUop(idx=ref.idx, pc=ref.pc, cls=ref.cls,
                           srcs=ref.srcs, addr=ref.addr + 64,
                           taken=ref.taken, target=ref.target)
        with pytest.raises(OracleViolation, match="uop-mismatch"):
            oracle.on_commit(conforming_uop(oracle, forged), core.cycle)

    def test_uop_mismatch_forged_pc(self):
        core = oracled_core(instructions=300)
        oracle = core.oracle
        ref = oracle.trace.get(oracle.next_idx)
        forged = StaticUop(idx=ref.idx, pc=ref.pc ^ 0x40, cls=ref.cls,
                           srcs=ref.srcs, addr=ref.addr,
                           taken=ref.taken, target=ref.target)
        with pytest.raises(OracleViolation, match="uop-mismatch"):
            oracle.on_commit(conforming_uop(oracle, forged), core.cycle)

    def test_uop_mismatch_incomplete(self):
        core = oracled_core(instructions=300)
        u = conforming_uop(core.oracle)
        u.completed = False  # retiring before execution finished
        with pytest.raises(OracleViolation, match="uop-mismatch"):
            core.oracle.on_commit(u, core.cycle)

    def test_branch_outcome_flipped(self):
        core = oracled_core(instructions=300)
        oracle = core.oracle
        ref = seek_class(oracle, _BRANCH)
        forged = StaticUop(idx=ref.idx, pc=ref.pc, cls=ref.cls,
                           srcs=ref.srcs, addr=ref.addr,
                           taken=not ref.taken, target=ref.target)
        with pytest.raises(OracleViolation, match="branch-outcome"):
            oracle.on_commit(conforming_uop(oracle, forged), core.cycle)

    def test_branch_outcome_wrong_target(self):
        core = oracled_core(instructions=300)
        oracle = core.oracle
        ref = seek_class(oracle, _BRANCH)
        forged = StaticUop(idx=ref.idx, pc=ref.pc, cls=ref.cls,
                           srcs=ref.srcs, addr=ref.addr,
                           taken=ref.taken, target=ref.target ^ 0x1000)
        with pytest.raises(OracleViolation, match="branch-outcome"):
            oracle.on_commit(conforming_uop(oracle, forged), core.cycle)

    def test_runahead_mode_commit(self):
        core = oracled_core(instructions=300)
        u = conforming_uop(core.oracle)
        saved = core.runahead_ctl.mode
        core.runahead_ctl.mode = Mode.RUNAHEAD
        try:
            with pytest.raises(OracleViolation, match="runahead-commit"):
                core.oracle.on_commit(u, core.cycle)
        finally:
            core.runahead_ctl.mode = saved

    def test_runahead_instance_commit(self):
        core = oracled_core(instructions=300)
        u = conforming_uop(core.oracle)
        u.runahead = True
        with pytest.raises(OracleViolation, match="runahead-commit"):
            core.oracle.on_commit(u, core.cycle)

    def test_wrong_path_commit(self):
        core = oracled_core(instructions=300)
        u = conforming_uop(core.oracle)
        u.wrong_path = True
        with pytest.raises(OracleViolation, match="wrong-path-commit"):
            core.oracle.on_commit(u, core.cycle)

    def test_double_retire_squashed(self):
        core = oracled_core(instructions=300)
        u = conforming_uop(core.oracle)
        u.squashed = True
        with pytest.raises(OracleViolation, match="double-retire"):
            core.oracle.on_commit(u, core.cycle)

    def test_double_retire_same_instance(self):
        core = oracled_core(instructions=300)
        oracle = core.oracle
        u = conforming_uop(oracle)
        oracle.on_commit(u, core.cycle)  # legitimate retirement
        u2 = conforming_uop(oracle)
        u2.seq = u.seq  # the same dynamic instance retires again
        with pytest.raises(OracleViolation, match="double-retire"):
            oracle.on_commit(u2, core.cycle)

    def test_commit_order_regression(self):
        core = oracled_core(instructions=300)
        u = conforming_uop(core.oracle)
        with pytest.raises(OracleViolation, match="commit-order"):
            core.oracle.on_commit(u, core.oracle.last_commit_cycle - 1)

    def test_lsq_reconcile_load_without_entry(self):
        core = oracled_core(instructions=300)
        oracle = core.oracle
        seek_class(oracle, _LOAD)
        u = conforming_uop(oracle)
        u.in_lq = False  # LQ entry vanished before retirement
        with pytest.raises(OracleViolation, match="lsq-reconcile"):
            oracle.on_commit(u, core.cycle)

    def test_lsq_reconcile_counter_drift(self):
        core = oracled_core(instructions=300)
        oracle = core.oracle
        seek_class(oracle, _LOAD)
        u = conforming_uop(oracle)
        saved = core.lsq.lq_used
        core.lsq.lq_used = 0  # counter lost the entry
        try:
            with pytest.raises(OracleViolation, match="lsq-reconcile"):
                oracle.on_commit(u, core.cycle)
        finally:
            core.lsq.lq_used = saved

    def test_live_pipeline_detects_forged_head(self):
        """Not just the hook in isolation: forging the ROB head's static
        record mid-run trips the oracle inside ``core.run``."""
        core = oracled_core(instructions=300)
        while len(core.rob) == 0:
            core.engine.step()
            core.engine.cycle += 1
        head = core.rob.head
        st = head.static
        head.static = StaticUop(idx=st.idx + 7, pc=st.pc, cls=st.cls,
                                srcs=st.srcs, addr=st.addr,
                                taken=st.taken, target=st.target)
        with pytest.raises(OracleViolation, match="idx-sequence"):
            core.run(100)

    def test_final_check_commit_count(self):
        core = oracled_core(instructions=300)
        core.oracle.commits += 1  # a commit the walk never saw
        with pytest.raises(OracleViolation, match="idx-sequence"):
            core.oracle.final_check()

    def test_terminal_commit_truncated_stream(self):
        """expect_drained on a stream with uops left = truncated tail."""
        core = oracled_core(instructions=300)
        core.oracle.final_check()  # sane without the drained claim
        with pytest.raises(OracleViolation, match="terminal-commit"):
            core.oracle.final_check(expect_drained=True)

    def test_terminal_commit_stuck_window(self):
        trace = finite_trace(40)
        core = OutOfOrderCore(BASELINE, trace, get_policy("OOO"))
        attach_oracle(core)
        core.run(10_000)
        core.oracle.final_check(expect_drained=True)  # clean drain
        core.rob._q.append(conforming_uop(core.oracle,
                                          trace.get(0)))  # zombie uop
        with pytest.raises(OracleViolation, match="terminal-commit"):
            core.oracle.final_check(expect_drained=True)

    def test_violation_carries_location(self):
        v = OracleViolation("idx-sequence", 42, "boom")
        assert v.check == "idx-sequence"
        assert v.cycle == 42
        assert "cycle 42" in str(v) and "boom" in str(v)
        assert isinstance(v, AssertionError)


class TestEndOfStream:
    """Finite traces end in a clean terminal commit, not a deadlock or a
    truncated tail — including when a squash rewinds the fetch cursor
    right at the end of the stream."""

    @pytest.mark.parametrize("n", [0, 1, 3, 50])
    def test_finite_trace_commits_everything(self, n):
        r = simulate(finite_trace(n), BASELINE, "RAR",
                     instructions=10_000, warmup=0,
                     oracle=True, validate=True)
        assert r.instructions == n

    def test_exhausted_flag(self):
        core = OutOfOrderCore(BASELINE, finite_trace(5), get_policy("OOO"))
        assert not core.engine.exhausted
        core.run(10_000)
        assert core.engine.exhausted
        assert core.stats.committed == 5

    def test_budget_within_stream_not_exhausted(self):
        core = OutOfOrderCore(BASELINE, finite_trace(50), get_policy("OOO"))
        core.run(10)
        assert not core.engine.exhausted
        assert core.stats.committed >= 10

    def test_squash_rewind_at_end_of_stream(self):
        """A mispredicted branch just before the end rewinds the fetch
        cursor past material the trace no longer extends; termination
        must still retire every uop exactly once."""
        uops = [StaticUop(idx=i, pc=0x1000 + 4 * i, cls=_ADD)
                for i in range(30)]
        uops.append(StaticUop(idx=30, pc=0x1000 + 4 * 30, cls=_BRANCH,
                              taken=True, target=0x9000))
        uops.extend(StaticUop(idx=i, pc=0x9000 + 4 * (i - 31), cls=_ADD)
                    for i in range(31, 42))
        trace = Trace.from_list(uops, name="eos-squash")
        r = simulate(trace, BASELINE, "RAR", instructions=10_000,
                     warmup=0, oracle=True, validate=True)
        assert r.instructions == 42
        assert r.branch_mispredicts >= 1

    def test_mem_uops_at_end_of_stream(self):
        uops = []
        for i in range(20):
            cls = _LOAD if i % 3 == 0 else _ADD
            addr = 0x100000 + 64 * i if cls == _LOAD else NO_ADDR
            uops.append(StaticUop(idx=i, pc=0x1000 + 4 * i, cls=cls,
                                  addr=addr))
        r = simulate(Trace.from_list(uops, name="eos-mem"), BASELINE,
                     "RAR", instructions=10_000, warmup=0,
                     oracle=True, validate=True)
        assert r.instructions == 20

    def test_trace_get_negative_raises(self):
        trace = finite_trace(4)
        with pytest.raises(IndexError, match="non-negative"):
            trace.get(-1)

    def test_trace_exhausted_property(self):
        trace = finite_trace(4)
        assert trace.exhausted  # from_list is born exhausted
        assert trace.get(4) is None
        lazy = Trace(iter([StaticUop(idx=0, pc=0x1000, cls=_ADD)]))
        assert not lazy.exhausted
        assert lazy.get(1) is None
        assert lazy.exhausted

    def test_genuine_deadlock_still_raises(self):
        """The drained-stream exit must not swallow real deadlocks."""
        core = OutOfOrderCore(BASELINE, finite_trace(20), get_policy("OOO"))
        core.run(5)
        # Strand a uop: clear every wake source while work is in flight.
        assert len(core.rob) > 0
        core.engine._events.clear()
        for u in core.rob:
            u.pending = 1 << 20
        core.iq._nonempty = 0
        with pytest.raises(RuntimeError, match="deadlock"):
            core.run(15)


class TestOracleObject:
    def test_attach_returns_and_registers(self):
        core = OutOfOrderCore(BASELINE, finite_trace(10), get_policy("OOO"))
        oracle = attach_oracle(core)
        assert isinstance(oracle, CommitOracle)
        assert core.oracle is oracle
        assert core.commit_unit.commit_hook == oracle.on_commit

    def test_summary_shape(self):
        core = oracled_core(instructions=300)
        s = core.oracle.summary()
        assert set(s) == {"commits", "branches", "taken_branches",
                          "next_idx", "digest"}
        assert s["next_idx"] == core.oracle.start_idx + s["commits"]
