"""Differential tests: production simulator and caches vs the oracle.

The production cache primitive (`SetAssociativeCache.probe`/`install`)
and the single-loop pipeline over `CompiledTrace` columns exist purely
for speed — they must be *bit-identical* to the per-access reference
kept in `tests/oracles/pipeline_reference.py`. These tests sweep 150
randomized (profile, geometry, way-configuration, policy) configurations
through both caches and assert equality of every observable: per-access
hit way, fill way and eviction, hit/miss/eviction/per-way counters and
resident line state. The pipeline battery runs 130 seeded
configurations through the production `Simulator` and the oracle's
stage-method engine and asserts the full `SimResult`, cycle counts and
hierarchy counters included.

The way configurations cover every scheme overlay the yield experiments
produce: healthy, VACA (5-cycle ways), YAPD (disabled ways), H-YAPD
(disabled horizontal band), and Hybrid (disables + slow ways combined).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from oracles.pipeline_reference import ReferenceCache, reference_simulate

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import FIFOPolicy, LRUPolicy, RandomPolicy
from repro.cache.setassoc import SetAssociativeCache, WayConfig
from repro.core.errors import ConfigurationError
from repro.uarch import PAPER_CORE, Simulator
from repro.uarch.isa import OpClass
from repro.workloads import (
    SPEC2000_ALL,
    compile_trace,
    get_compiled_trace,
    get_profile,
    trace_cache_info,
    trace_key,
)

_PROFILE_NAMES = tuple(p.name for p in SPEC2000_ALL)

#: Small geometries keep 150 replays fast while still exercising several
#: set counts, associativities and block sizes (the paper's L1D last).
_GEOMETRIES = (
    CacheGeometry(1024, 2, 32),
    CacheGeometry(2048, 4, 32),
    CacheGeometry(2048, 4, 64),
    CacheGeometry(4096, 8, 32),
    CacheGeometry(16 * 1024, 4, 32),
)

_OVERLAYS = ("healthy", "vaca", "yapd", "hyapd", "hybrid")

_POLICIES = ("lru", "fifo", "random")


def _overlay_config(rng: random.Random, ways: int, overlay: str) -> WayConfig:
    """A scheme-shaped way configuration with ``ways`` ways."""
    if overlay == "healthy":
        return WayConfig.uniform(ways)
    if overlay == "vaca":
        latencies = tuple(rng.choice((4, 5)) for _ in range(ways))
        return WayConfig(latencies=latencies)
    if overlay == "hyapd":
        return WayConfig(
            latencies=tuple(4 for _ in range(ways)),
            disabled_band=rng.randrange(4),
            num_bands=4,
        )
    # yapd / hybrid: disable a strict subset of ways; hybrid also slows
    # some of the surviving ways to 5 cycles.
    disabled = rng.sample(range(ways), rng.randrange(1, ways))
    latencies = []
    for way in range(ways):
        if way in disabled:
            latencies.append(None)
        elif overlay == "hybrid":
            latencies.append(rng.choice((4, 5)))
        else:
            latencies.append(4)
    return WayConfig(latencies=tuple(latencies))


def _policy_factory(kind: str):
    if kind == "lru":
        return LRUPolicy
    if kind == "fifo":
        return FIFOPolicy
    # Seeded per set-construction: both caches of a differential pair get
    # identical per-set random streams.
    return lambda: RandomPolicy(np.random.default_rng(97))


def _make_cases(count: int):
    rng = random.Random(20060805)
    cases = []
    for index in range(count):
        profile = rng.choice(_PROFILE_NAMES)
        geometry = rng.choice(_GEOMETRIES)
        overlay = rng.choice(_OVERLAYS)
        policy = rng.choice(_POLICIES)
        seed = rng.randrange(1, 50)
        config = _overlay_config(rng, geometry.associativity, overlay)
        cases.append(
            pytest.param(
                profile, geometry, config, policy, seed,
                id=f"{index:03d}-{profile}-{overlay}-{policy}",
            )
        )
    return cases


_CASES = _make_cases(150)


def _memory_ops(trace):
    for instr in trace.instructions():
        if instr.address is not None:
            yield instr.address, instr.op is OpClass.STORE


def _cache_state(cache: SetAssociativeCache):
    lines = []
    for set_index in range(cache.geometry.num_sets):
        tags = cache._tags[set_index]
        for way in range(cache.geometry.associativity):
            if tags[way] >= 0:
                lines.append(
                    (set_index, way, tags[way], cache._dirty[set_index][way])
                )
    return (
        cache.hits,
        cache.misses,
        cache.evictions,
        tuple(cache.way_hits),
        tuple(lines),
    )


@pytest.mark.parametrize("profile,geometry,config,policy,seed", _CASES)
def test_run_compiled_matches_reference(profile, geometry, config, policy, seed):
    """A compiled trace's memory ops through `probe`/`install` match the
    oracle's `access`/`fill`, access by access."""
    trace = get_compiled_trace(get_profile(profile), seed, 600)
    reference = ReferenceCache(
        geometry, config=config, policy_factory=_policy_factory(policy)
    )
    cache = SetAssociativeCache(
        geometry, config=config, policy_factory=_policy_factory(policy)
    )
    shift = geometry.block_bytes.bit_length() - 1
    for address, write in _memory_ops(trace):
        expected = reference.access(address, write=write)
        way = cache.probe(address >> shift, write)
        assert way == (expected.way if expected.hit else -1)
        if expected.hit:
            continue
        fill = reference.fill(address, dirty=write)
        evicted = -1 if fill.evicted_block is None else fill.evicted_block
        assert cache.install(address >> shift, write) == (
            fill.way, evicted, fill.evicted_dirty,
        )
    assert _cache_state(cache) == reference.state()


# ----------------------------------------------------------------------
# pipeline: compiled replay must reproduce cycle counts exactly
# ----------------------------------------------------------------------
def _make_pipeline_cases(count: int):
    rng = random.Random(777)
    cases = []
    for index in range(count):
        profile = rng.choice(_PROFILE_NAMES)
        overlay = rng.choice(_OVERLAYS)
        seed = rng.randrange(1, 20)
        uniform = None
        if overlay == "healthy" and rng.random() < 0.5:
            uniform = 5  # naive binning (Section 4.5)
        config = _overlay_config(rng, 4, overlay)
        cases.append(
            pytest.param(
                profile, config, uniform, seed,
                id=f"pipe{index:02d}-{profile}-{overlay}"
                + ("-uniform" if uniform else ""),
            )
        )
    return cases


@pytest.mark.parametrize(
    "profile,config,uniform,seed", _make_pipeline_cases(30)
)
def test_pipeline_compiled_matches_reference(profile, config, uniform, seed):
    from repro.workloads import TraceGenerator

    prof = get_profile(profile)
    length, warmup = 700, 100
    compiled = get_compiled_trace(prof, seed, length)
    reference = reference_simulate(
        TraceGenerator(prof, seed=seed).generate(length),
        warmup=warmup,
        l1d_config=config,
        uniform_load_latency=uniform,
    )
    fast = Simulator(
        l1d_config=config, uniform_load_latency=uniform
    ).run(compiled, warmup=warmup)
    # SimResult is a frozen dataclass: == covers instructions, cycles,
    # replays, LBB stalls, slow-way hits, mispredicts, loads, stores and
    # the full hierarchy counter snapshot.
    assert fast == reference


#: Narrower and reshaped cores: widths, window sizes, pools, depths.
_CORE_SHAPES = (
    {},
    {"lbb_slack": 0},
    {"fetch_width": 2, "issue_width": 2, "commit_width": 2},
    {"fetch_width": 1, "issue_width": 1, "commit_width": 1},
    {"issue_width": 3, "iq_size": 16, "rob_size": 32},
    {"fu_pools": {"ialu": 1, "imult": 1, "falu": 1, "fmult": 1, "mem": 1}},
    {"fu_pools": {"ialu": 2, "imult": 1, "falu": 1, "fmult": 1, "mem": 1},
     "issue_width": 2},
    {"sched_to_exec_stages": 3, "frontend_stages": 2},
    {"lbb_slack": 2, "iq_size": 8, "rob_size": 16},
)

_INPUTS = ("compiled", "list", "iterator")


def _make_oracle_cases(count: int):
    rng = random.Random(2006)
    cases = []
    for index in range(count):
        profile = rng.choice(_PROFILE_NAMES)
        overlay = rng.choice(_OVERLAYS + ("hyapd",))
        shape = rng.randrange(len(_CORE_SHAPES))
        uniform = None
        if overlay == "healthy" and rng.random() < 0.4:
            uniform = rng.choice((5, 6))  # naive binning (Section 4.5)
        warmup = rng.choice((0, 0, 50, 150))
        length = rng.randrange(250, 600)
        feed = rng.choice(_INPUTS)
        seed = rng.randrange(1, 40)
        config = _overlay_config(rng, 4, overlay)
        cases.append(
            pytest.param(
                profile, config, uniform, shape, warmup, length, feed, seed,
                id=f"oracle{index:03d}-{profile}-{overlay}-core{shape}-{feed}"
                + (f"-uniform{uniform}" if uniform else "")
                + f"-w{warmup}",
            )
        )
    return cases


@pytest.mark.parametrize(
    "profile,config,uniform,shape,warmup,length,feed,seed",
    _make_oracle_cases(100),
)
def test_pipeline_matches_oracle(
    profile, config, uniform, shape, warmup, length, feed, seed
):
    """Production `Simulator` vs the oracle's stage-method engine across
    scheme overlays, core shapes, warm-up lengths and input kinds."""
    core = PAPER_CORE.replace(**_CORE_SHAPES[shape])
    if uniform is not None:
        # As the binning study runs it: the scheduler predicts the bin.
        core = core.replace(predicted_load_latency=uniform)
    compiled = compile_trace(get_profile(profile), seed, length)
    expected = reference_simulate(
        compiled.instructions(),
        warmup=warmup,
        core=core,
        l1d_config=config,
        uniform_load_latency=uniform,
    )
    if feed == "compiled":
        trace = compiled
    elif feed == "list":
        trace = list(compiled.instructions())
    else:
        trace = compiled.instructions()
    simulator = Simulator(
        core=core, l1d_config=config, uniform_load_latency=uniform
    )
    assert simulator.run(trace, warmup=warmup) == expected


# ----------------------------------------------------------------------
# compiled-trace cache semantics
# ----------------------------------------------------------------------
class TestCompiledTraceCache:
    def test_prefix_is_bit_identical_to_direct_compilation(self):
        profile = get_profile("vpr")
        long = compile_trace(profile, 11, 900)
        short = compile_trace(profile, 11, 250)
        # Content addresses prove the generator's prefix property: the
        # first 250 packed instructions of the long compilation are the
        # 250-instruction compilation.
        assert long.prefix(250).key == short.key
        assert list(long.prefix(250).instructions()) == list(
            short.instructions()
        )

    def test_cache_serves_prefixes_and_counts_hits(self):
        profile = get_profile("gap")
        before = trace_cache_info()
        first = get_compiled_trace(profile, 23, 500)
        again = get_compiled_trace(profile, 23, 200)
        after = trace_cache_info()
        assert again.ops is first.ops  # shared buffers, no regeneration
        assert again.length == 200
        assert after["hits"] >= before["hits"] + 1
        assert after["misses"] >= before["misses"] + 1

    def test_longer_request_recompiles_and_replaces(self):
        profile = get_profile("lucas")
        short = get_compiled_trace(profile, 31, 100)
        long = get_compiled_trace(profile, 31, 400)
        assert len(long.ops) >= 400
        # The overlap is bit-identical (prefix property).
        assert long.prefix(100).key == short.key

    def test_trace_key_is_identity_stable(self):
        assert trace_key("gzip", 2006, 1000) == trace_key("gzip", 2006, 1000)
        assert trace_key("gzip", 2006, 1000) != trace_key("gzip", 2006, 1001)
        assert trace_key("gzip", 2006, 1000) != trace_key("mcf", 2006, 1000)


# ----------------------------------------------------------------------
# zero-way guard (H-YAPD region masks)
# ----------------------------------------------------------------------
class TestZeroWayGuard:
    def test_band_disable_cannot_mask_every_way(self):
        # 1 way, 4 bands: the disabled band removes the only way of one
        # address group — rejected at construction, not mid-simulation.
        with pytest.raises(ConfigurationError, match="zero usable ways"):
            SetAssociativeCache(
                CacheGeometry(4096, 1, 32),
                config=WayConfig(latencies=(4,), disabled_band=0),
            )

    def test_policies_reject_empty_candidates_with_config_error(self):
        for policy in (LRUPolicy(), FIFOPolicy(), RandomPolicy()):
            with pytest.raises(ConfigurationError, match="eligible ways"):
                policy.victim([])


# ----------------------------------------------------------------------
# flamegraph attribution: compile vs replay spans
# ----------------------------------------------------------------------
def test_compile_and_replay_spans_are_traced(tmp_path, monkeypatch):
    from repro.cli import main
    from repro.obs import configure_tracing, disable_tracing, load_spans
    from repro.workloads import clear_trace_cache

    trace_file = tmp_path / "t.jsonl"
    configure_tracing(trace_file)
    try:
        clear_trace_cache()  # force a ctrace.compile span
        profile = get_profile("gzip")
        compiled = get_compiled_trace(profile, 3, 600)
        Simulator().run(compiled, warmup=100)
    finally:
        disable_tracing()
    names = {record["name"] for record in load_spans(trace_file)}
    assert "ctrace.compile" in names
    assert "ctrace.replay" in names
    # And the flamegraph renders both, so time is attributed to
    # compile vs replay when reading `repro trace flamegraph` output.
    out = tmp_path / "flame.html"
    assert main(
        ["trace", "flamegraph", str(trace_file), "--out", str(out)]
    ) == 0
    html = out.read_text(encoding="utf-8")
    assert "ctrace.compile" in html
    assert "ctrace.replay" in html
