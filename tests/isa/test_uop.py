"""StaticUop / DynUop behaviour."""

import pytest

from repro.common.enums import UopClass
from repro.isa.uop import NO_ADDR, DynUop, StaticUop


def make_static(cls=UopClass.INT_ADD, idx=0, **kw):
    return StaticUop(idx=idx, pc=0x400000 + idx * 4, cls=int(cls), **kw)


class TestStaticUop:
    def test_defaults(self):
        u = make_static()
        assert u.addr == NO_ADDR
        assert u.srcs == ()
        assert not u.taken

    def test_class_predicates(self):
        load = make_static(UopClass.LOAD, addr=0x1000)
        assert load.is_load and load.is_mem and not load.is_store
        store = make_static(UopClass.STORE, addr=0x1000)
        assert store.is_store and store.is_mem
        br = make_static(UopClass.BRANCH, taken=True)
        assert br.is_branch and not br.is_mem
        assert make_static(UopClass.FP_MUL).is_fp

    def test_has_dest(self):
        assert make_static(UopClass.LOAD).has_dest
        assert make_static(UopClass.FP_ADD).has_dest
        assert not make_static(UopClass.STORE).has_dest
        assert not make_static(UopClass.BRANCH).has_dest
        assert not make_static(UopClass.NOP).has_dest
        assert not make_static(UopClass.INT_CMP).has_dest

    def test_repr_contains_class(self):
        assert "LOAD" in repr(make_static(UopClass.LOAD))

    def test_slots_prevent_arbitrary_attrs(self):
        u = make_static()
        with pytest.raises(AttributeError):
            u.extra = 1


class TestDynUop:
    def test_initial_state(self):
        d = DynUop(make_static(), seq=1)
        assert d.dispatch_cycle == -1
        assert d.issue_cycle == -1
        assert d.done_cycle == -1
        assert d.commit_cycle == -1
        assert not d.completed and not d.squashed
        assert d.pending == 0
        assert d.consumers == ()

    def test_mispredicted_requires_branch(self):
        alu = DynUop(make_static(UopClass.INT_ADD), seq=1)
        alu.predicted_taken = True
        assert not alu.mispredicted

    def test_mispredicted_branch(self):
        br = DynUop(make_static(UopClass.BRANCH, taken=True), seq=1)
        br.predicted_taken = False
        assert br.mispredicted
        br.predicted_taken = True
        assert not br.mispredicted

    def test_wrong_path_branch_never_counts_as_mispredict(self):
        br = DynUop(make_static(UopClass.BRANCH, taken=True), seq=1,
                    wrong_path=True)
        br.predicted_taken = False
        assert not br.mispredicted

    def test_flags_in_repr(self):
        d = DynUop(make_static(), seq=1, wrong_path=True)
        d.squashed = True
        assert "W" in repr(d) and "S" in repr(d)

    def test_same_static_multiple_instances(self):
        st = make_static()
        a, b = DynUop(st, seq=1), DynUop(st, seq=2)
        a.completed = True
        assert not b.completed
        assert a.static is b.static
