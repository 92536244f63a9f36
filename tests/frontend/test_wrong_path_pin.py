"""Pin the synthesised wrong-path stream.

The digests were taken before non-memory wrong-path uops became shared
instances, over the first 4096 draws of :class:`WrongPathSource` at three
seeds. A memory draw contributes ``(cls, pc, addr)``; a non-memory draw
contributes its class only, since it is read for nothing else (it has no
sources, never trains the predictor and is always squashed). Any change
to the class mix, to a load's or store's PC or address, or to the order
of the random draws behind them fails here, and so does a return to one
allocation per non-memory uop.
"""

import hashlib

import pytest

from repro.frontend.fetch import WrongPathSource

N = 4096

FROZEN = {
    0: "4d6dd0489e58aa5ebd3e8184215026b8a05924e4f5c3a7302390758f9a7c59d8",
    7: "fad2911c349d5a8f9402a1e5c77338f6c7c347282556fd85358b4f5f03c0211f",
    0x5EED:
        "2af942de14ca812905b964af6bcf510c7677daa016efed35894e3abc1293c44d",
}


def draws(seed, n=N):
    src = WrongPathSource(seed)
    return [src.next_uop() for _ in range(n)]


def stream_digest(uops):
    h = hashlib.sha256()
    for u in uops:
        key = (u.cls, u.pc, u.addr) if u.is_mem else (u.cls,)
        h.update(repr(key).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(FROZEN))
def test_stream_matches_frozen_digest(seed):
    assert stream_digest(draws(seed)) == FROZEN[seed]


@pytest.mark.parametrize("seed", sorted(FROZEN))
def test_non_memory_slots_share_one_instance(seed):
    uops = draws(seed)
    by_slot = {}
    for count, u in enumerate(uops, start=1):
        slot = count % 8
        if u.is_mem:
            assert u.idx == -count  # each memory draw is its own uop
        else:
            assert by_slot.setdefault(slot, u) is u
            assert u.idx == -1
    assert len(by_slot) == 5  # four INT_ADD slots and one BRANCH slot
