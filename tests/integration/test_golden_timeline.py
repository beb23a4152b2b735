"""Golden-timeline determinism tests for the two-tier kernel.

The digests below were captured on the generator-only kernel — before
the callback fast path (``Environment.defer``/``chain``) existed — with
``tools/capture_golden.py``.  Every seeded reference run must still
produce the *same* traced timeline, bit for bit: same virtual
timestamps (float-exact, so every hop's floating-point sum is
preserved), same record order, same span attributes, same measurements.
Any drift means the refactor changed simulated physics, not just
wall-clock cost.

``exact`` hashes the begin-ordered timeline (order-sensitive);
``sorted`` hashes the lexicographic multiset (order-insensitive — if
``exact`` breaks but ``sorted`` holds, only tie-breaking moved).

``untraced`` pins the default fast configuration, which the traced
digests cannot see (compiled fabric paths and folded hops only run
untraced): measurements, final clock, every message's stamp journal
and each core's segment accounts and ``busy_ns``.  These digests, and
the two MPI ring-allreduce scenarios, were captured on the last commit
before the poll pump moved empty progress passes onto the callback
tier.

Timelines embed identity counters (message/TLP/frame ids) that are
process-global, so each comparison runs the capture tool in a **fresh
subprocess**, one scenario per process — exactly how the pinned values
were captured on the pre-refactor kernel (commit 504d447 tree).

To re-pin after an *intentional* timing change::

    for s in <scenario>; do PYTHONPATH=src python tools/capture_golden.py $s; done
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

_REPO = pathlib.Path(__file__).resolve().parents[2]
_CAPTURE = _REPO / "tools" / "capture_golden.py"
_spec = importlib.util.spec_from_file_location("capture_golden", _CAPTURE)
capture_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture_golden)

#: Per-scenario digests, each captured by a fresh single-scenario
#: subprocess on the pre-refactor kernel — see the module docstring
#: before touching any value.
GOLDEN = {
    "put_bw_deterministic": {
        "events": 1920,
        "exact": "36f8626877132aa181962d5474e8f606285e2ddc65ce33e514567815dd30730c",
        "sorted": "435ddacc1f2a358f5187d616184474dbd9ee3e6fc76fd8ae5969189cefca6295",
        "measurements": (
            "9459940a137ce52fc15a4ddde05c55fbb9b47eab2cff6a24f5271e07bc1403ed"
        ),
        "untraced": (
            "99f1ab9eb999a81897fb96a9f223202bc49a727d1549ee65c62d152da17caf8f"
        ),
    },
    "put_bw_jittered_seed7": {
        "events": 1920,
        "exact": "4594974d27a748d1a7a5204d34206d92def8e01e309b6f0cb89d9560972ceb3f",
        "sorted": "811b19eac0cf638d3d54359ccbb017788f906874d9d7c23c4c616b28285a0525",
        "measurements": (
            "33ff2e206a9d3a852128bd32050b13b2f6b8d63b68f85cc7e42dd327bf5a9c2e"
        ),
        "untraced": (
            "cfff34117344b757580d9473f8527555921ac9352c7cb1c3e400cb3d21ea014c"
        ),
    },
    "am_lat_deterministic": {
        "events": 2496,
        "exact": "cab36711d533c23ebc3806814ad29905f8ef96174e7d9e0123b0eab36a2ade7a",
        "sorted": "6b82ae0fb41e3cbc429543a4e560af6bc9c360f56dd1b32dc5e5c8908716ceb6",
        "measurements": (
            "c67b09a136d51e177e483e05e277b5ed617b278c5faec3e1d38615aa711a8f19"
        ),
        "untraced": (
            "0fab1d24eaad721a9378d2bbde984d9e117e2d700071d7c6060f58aa011069f9"
        ),
    },
    "am_lat_lossy_pcie": {
        "events": 2511,
        "exact": "b01068b69d2c9e9ce7453eb129678bceb1d5b88c3506f641c930df4811c6da56",
        "sorted": "f8b271a1aa98614432579edf3164fa1a86a5c7cf0d0866bee365b57ceb9c5ad2",
        "measurements": (
            "04dbee56feed50493bfc38fb9bdb15d282018790e6bfe5068858fb6f59118909"
        ),
        "untraced": (
            "37ad0adcf3c3c27cf2819c9010383108a7abcfb92d853df90b256fbef4753b56"
        ),
    },
    "ring_allreduce_fat_tree_deterministic": {
        "events": 8904,
        "exact": "d9a87fbfc0fa31988cacff6cf682d6e7244b29104a5dfe2b2d1e4e34328a4ce1",
        "sorted": "aae4359f56830942dcac29bae975e549ace14b8980cb42523386f4e6000fce8c",
        "measurements": (
            "cefb2270bbf42d4e708468f5787f7c5bf333c5dd785047dad9a2bb5cf9d4a44e"
        ),
        "untraced": (
            "0ad936db7b8de2b62af2333508ac9e4a95fac9e3e23209e375e342e3ad13dcdd"
        ),
    },
    "ring_allreduce_fat_tree_seed7": {
        "events": 8931,
        "exact": "40d54fa5585d0b44a152c497c9975e9777ec4fb43413d2905909f9460be6eacf",
        "sorted": "7e913ad3d3ae600560092db877699344d7fb7009b7186586e8826cec00d6e939",
        "measurements": (
            "4de52b5f0e19e80bd8edac517dec78318cb3471688558259c597b5cbfe4ce462"
        ),
        "untraced": (
            "6d6987edb20faf1f3b9c3b4ce27d6410af53b62217a2be2082b5318ed20c523d"
        ),
    },
}


def _capture_in_subprocess(scenario: str) -> dict:
    """Run one scenario through the capture tool in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(_CAPTURE), scenario],
        capture_output=True,
        text=True,
        cwd=_REPO,
        env={"PYTHONPATH": str(_REPO / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)[scenario]


class TestGoldenTimelines:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_timeline_matches_pre_refactor_kernel(self, name):
        digest = _capture_in_subprocess(name)
        expected = GOLDEN[name]
        assert digest["events"] == expected["events"]
        assert digest["measurements"] == expected["measurements"]
        assert digest["untraced"] == expected["untraced"]
        # Order-insensitive first: a 'sorted' mismatch means timestamps
        # or span contents moved, not merely tie-breaking.
        assert digest["sorted"] == expected["sorted"]
        assert digest["exact"] == expected["exact"]

    def test_scenarios_stay_in_sync_with_capture_tool(self):
        assert set(GOLDEN) == set(capture_golden.golden_runs())

    def test_run_to_run_determinism(self):
        # Two fresh interpreters, same jittered scenario: identical
        # timelines prove the seeded RNG path is untouched by
        # scheduling-order or interpreter-state accidents.
        first = _capture_in_subprocess("put_bw_jittered_seed7")
        second = _capture_in_subprocess("put_bw_jittered_seed7")
        assert first == second

    def test_traced_timeline_covers_migrated_layers(self):
        # The callback-tier migration moved pcie/network/nic machinery
        # off the Process tier; the tracer must still see all of it.
        from repro.trace import trace_session
        from repro.trace.golden import timeline_lines

        run, _ = capture_golden.golden_runs()["put_bw_deterministic"]
        with trace_session() as session:
            run()
        lines = "\n".join(timeline_lines(session.tracers))
        for needle in ('"pcie"', '"network"', '"nic"', '"wire"', '"rc_to_mem"'):
            assert needle in lines, f"missing {needle} in traced timeline"
