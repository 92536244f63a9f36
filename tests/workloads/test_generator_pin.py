"""Pin the generated instruction streams.

Trace generation compiles each workload's loop body into a per-slot plan
before unrolling it. These digests were taken from the straightforward
per-slot interpreter the plan replaced, over the first 10,000 uops of
every catalog workload (stationary, extra and phased) at its catalog
seed, plus a synthetic body whose producers reach back across
iterations (catalog bodies only read earlier slots of the same
iteration), so any change to the emitted stream — an index, PC, class,
producer list, address or branch outcome, or the order of random draws
behind them — fails here.
"""

import hashlib

import pytest

from repro.common.enums import UopClass as U
from repro.workloads.base import BranchSpec, PhaseSpec, SlotSpec, WorkloadSpec
from repro.workloads.catalog import (
    ALL_WORKLOADS,
    EXTRA_WORKLOADS,
    PHASED_WORKLOADS,
)
from repro.workloads.patterns import PatternSpec

N = 10_000

FROZEN = {
    "astar":
        "c951ff01c6510f1738aa05ac3cea824d368d12aa5c47736ee60cdf5a0df4d98e",
    "bwaves":
        "9bd3d028af642d1ab18427227b0c624e6e758b2dd8d3afa3d902ce865b7c0843",
    "fotonik":
        "f661e341a7950c1b5c7baa9baee0bf4fd3ad471f5b371ac81429a380fd353c6d",
    "gcc":
        "ff418f8706627315182c2c2b21d972aff6e3f456ae4df6029dcd58c7260513c8",
    "gems":
        "008c14ef04c3cd077e8016895017e258d18c5d93df1c3e7b91d4f227606eae37",
    "lbm":
        "0b218d0d9079c070ee547795e0d6f59b97b6ae4d7300cf8a668210c42fc6ff51",
    "leslie3d":
        "91d84a05d85528885d28301cbf385a3ac59a735cd3f6b15736acdb7a8a3fb21e",
    "libquantum":
        "adfb33918e5d9fcc49d56c672c16e53e0371fde904bf56413bdec05612574c4e",
    "mcf":
        "27945ed909d73a3f27a269703e569b531190105ee7a324f18ad219db5303ea95",
    "milc":
        "2ca6622fe705c5b2b0bdac339d538115cd10eaf0dc6a931dd43e48080e32ebc4",
    "omnetpp":
        "a330bc74c191dcc79cb329025d7a810ec6efcdb2e4cbee033297b3df7bbc3c49",
    "roms":
        "a20080dea73fcd58a47f4d9ef691f34ba56b1239bcd0b8025415fc31ca84e4ab",
    "soplex":
        "0bdd2cd208839a39efba0a6a9fbb97b3c4e9e0d02ec17c2f3823ccae8e5483f5",
    "sphinx":
        "32aed5e43e103d309f753d0173cc9d9f56b2beef09f7bceb2c2e5db33c76a715",
    "deepsjeng":
        "59c0beb4335593374456e07734955e5047a206f3d168f92f41668395b559774c",
    "exchange2":
        "c107a3c2b3b9f8564b87e0d62ffbee9959d7cea58f9a1f7a6aa3ec862c1e957b",
    "imagick":
        "bac1f4b5a7cfa423abcdf52a3361703f129a9a8292e0bf709a7bc66867b450f8",
    "leela":
        "e92cfb51beec8496d65232c4caf193c234d9d815518fb77fdae1adf015a13349",
    "nab":
        "a119e04c1987d980c4ec89fedb814e431d9358f594a089fdd2d62ef6ea05e34c",
    "namd":
        "49362e3e969e02c32068c1f144dc7f46cde330a2fa0a3b51bedc5db724d964e3",
    "povray":
        "ca90f2450dc9695a7d06afe3d4fc0518abaac4ec0fca944c545e75c786d456d5",
    "x264":
        "7236c2cc2d9b6bd26a13f0dd78f8fbea73963c5bef787b62f930bdb71e013fee",
    "xalancbmk":
        "dc0eb369a8bf7f8bdf8fca2cb67b7a1efb39dfa35f5a7c7dc138ef0154404594",
    "wrf":
        "ce542e4f0965f3a9870fca062fb50f2361f95b632ccb5f1bca05438bb3adb812",
    "cactu":
        "df31ab77bc7c6e238cb547056fcc02a043b88645731a062b6e6944778b17f5cc",
    "parest":
        "0e284027b32a3b332e68339266c60687730618111c9ca9d3efa329c236efcd5b",
    "blender":
        "611a4cc8cecbcfa59351bb16764f4d6a1baa957f970d6e849b6bc333293c1233",
    "pchase":
        "b702c6fd4d4010e28ff895f9989d7f513ad2337c9aff6e72ee8c54f949c62e26",
    "streambw":
        "00aa070aa885122104e426ad124b48ee307439e5ece66cfe8b2b9c67b094ab8e",
    "gromacs":
        "3c423853d8457251b794a3e03a81dafa677dfb3fb493d26f6b40b750b6ef3fab",
    "ph-drift-hot":
        "594dd0e964516cc3e3b29b5322a7a8c0c0acf6e94808928feab192833c520619",
    "ph-osc-hotscan":
        "3e13463db89806cfbcefdbded89b39aec6ef4d91e41e8aa4a6a9f549f7fcc099",
    "ph-swap-chase-stream":
        "14e179c6c17c72faac9df3866cb086bdb4c0def130942ea6bfd2c6080dfddd91",
    "ph-burst-mpki":
        "ce58629a8d8a8bcb63cb1e5594ebd8f1cb29ff99906dc83633eaa21316c8096c",
    "ph-drift-stream":
        "74da38c2d44fd06b3b5fa9491bce3339929baba29b4071f7436c8b1b057b9cdc",
    "ph-ramp-ws":
        "8b652496fd656706274264c3849773ad1420968d0c836be76e258f6150f45238",
}

CATALOG = ALL_WORKLOADS + EXTRA_WORKLOADS + PHASED_WORKLOADS

#: digest of :func:`synthetic_spec`'s stream
SYNTHETIC = "3b9bf6edae5d6f4300699b9f4b11947d288f2c8017f6c8b48520e6e32435ff56"


def synthetic_spec():
    """Producers from 1-3 iterations back (so the first iterations drop
    some), a dependent chase, data and biased branches, a default loop
    branch, a NOP and a drifting phase swap."""
    body = (
        SlotSpec(cls=int(U.LOAD), srcs=((3, 4),), pattern="chase"),
        SlotSpec(cls=int(U.INT_ADD), srcs=((0, 0), (1, 1))),
        SlotSpec(cls=int(U.BRANCH), branch=BranchSpec(kind="data", bias=0.3)),
        SlotSpec(cls=int(U.STORE), srcs=((2, 1), (0, 3)), pattern="scan"),
        SlotSpec(cls=int(U.FP_MUL), srcs=((1, 4), (0, 1))),
        SlotSpec(cls=int(U.BRANCH),
                 branch=BranchSpec(kind="biased", bias=0.8)),
        SlotSpec(cls=int(U.NOP)),
        SlotSpec(cls=int(U.BRANCH)),
    )
    patterns = {
        "chase": PatternSpec(kind="chase", base=0x100000,
                             working_set=1 << 16),
        "scan": PatternSpec(kind="stream", base=0x900000,
                            working_set=1 << 14),
    }
    phases = (PhaseSpec(duration=40),
              PhaseSpec(duration=25, drift=4096, patterns=(
                  ("chase", PatternSpec(kind="stream", base=0x200000,
                                        working_set=1 << 15)),)))
    return WorkloadSpec(name="synthetic", memory_intensive=True, body=body,
                        patterns=patterns, seed=99, phases=phases)


def stream_digest(spec, n=N):
    trace = spec.build_trace()
    h = hashlib.sha256()
    for i in range(n):
        u = trace.get(i)
        h.update(repr((u.idx, u.pc, u.cls, u.srcs, u.addr, u.taken,
                       u.target)).encode())
    return h.hexdigest()


def test_every_catalog_workload_is_pinned():
    assert sorted(FROZEN) == sorted(w.name for w in CATALOG)


@pytest.mark.parametrize("spec", CATALOG, ids=lambda w: w.name)
def test_stream_matches_frozen_digest(spec):
    assert stream_digest(spec) == FROZEN[spec.name]


def test_cross_iteration_stream_matches_frozen_digest():
    assert stream_digest(synthetic_spec()) == SYNTHETIC
