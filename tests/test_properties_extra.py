"""Additional property-based tests: trace files and predictors."""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.enums import UopClass
from repro.isa.tracefile import load_trace, save_trace
from repro.isa.uop import NO_ADDR, StaticUop

_CLASSES = [int(c) for c in UopClass]


@st.composite
def static_uops(draw):
    n = draw(st.integers(1, 60))
    uops = []
    for i in range(n):
        cls = draw(st.sampled_from(_CLASSES))
        is_mem = cls in (int(UopClass.LOAD), int(UopClass.STORE))
        srcs = tuple(sorted(set(
            draw(st.lists(st.integers(0, i - 1), max_size=3))))) if i else ()
        uops.append(StaticUop(
            idx=i,
            pc=draw(st.integers(0, 2 ** 40)),
            cls=cls,
            srcs=srcs,
            addr=draw(st.integers(0, 2 ** 40)) if is_mem else NO_ADDR,
            taken=draw(st.booleans()),
            target=draw(st.integers(0, 2 ** 40)),
        ))
    return uops


class TestTraceFileProperties:
    @given(static_uops())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identity(self, uops):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.trace")
            save_trace(uops, path)
            loaded = load_trace(path)
            assert len(loaded) == len(uops)
            for i, orig in enumerate(uops):
                got = loaded.get(i)
                assert (got.idx, got.pc, got.cls, got.srcs, got.addr,
                        got.taken, got.target) == \
                       (orig.idx, orig.pc, orig.cls, orig.srcs, orig.addr,
                        orig.taken, orig.target)


class TestPredictorProperties:
    @given(st.lists(st.tuples(st.integers(0, 63), st.booleans()),
                    min_size=1, max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_never_crashes_and_counts(self, stream):
        from repro.frontend.tage import TageScL
        p = TageScL(num_tables=3, table_size=64, bimodal_size=128)
        for pc, taken in stream:
            p.observe(0x1000 + pc * 4, taken)
        assert p.predictions == len(stream)
        assert 0 <= p.mispredictions <= p.predictions

    @given(st.integers(0, 2 ** 30), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_prediction_is_boolean(self, pc, taken):
        from repro.frontend.tage import TageScL
        p = TageScL()
        assert isinstance(p.predict(pc), bool)
        p.observe(pc, taken)
        assert isinstance(p.predict(pc), bool)

