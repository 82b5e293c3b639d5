"""The repository benchmark: paper artefacts and serve traffic, end to end.

    python3 perfbench/run.py --workload paper-sim --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (reasons in ``BENCHMARK.json``, inputs and the map from each
per-layer metric to the end-to-end metric it should move in
``perfbench/workloads.json``):

* ``paper-sim`` - cold Table 6, Fig. 9 and Section 4.5 through
  ``run_experiment``; pipeline simulation dominates.
* ``paper-yield`` - cold Tables 2-5, Fig. 8 and Section 4.2 at 2000 chips
  over two seeds, plus the estimator comparison; no simulation.
* ``serve-mixed`` - ``repro serve`` with its defaults over a warm store of
  about 1000 entries, driven open-loop with warm population reads, warm
  simulate reads and cold population writes.

Timings are taken so that a slow spell of the host, which only ever adds
time, moves them little. Batch workloads run back-to-back cold passes,
each in a fresh process with a fresh default engine and an empty store,
for ``--seconds``, in one stream per CPU (two at most): ``wall_s`` and
``cpu_s`` are the wall and CPU time of one pass with each operation (one
artefact) at its fastest over all passes. serve-mixed sends
``--seconds`` of scheduled traffic in equal blocks: ``wall_s`` is the
seconds clients waited (from each request's due time to its response) in
the fastest block, ``cpu_s`` the server's CPU time in its cheapest block,
and ``rss_peak_mb`` the server's peak. ``setup_s`` is the median over
several cold starts (process start to the first timed operation; for
serve, store placement, boot and one warm-up request of each kind).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run makes one untraced and
one traced pass (for serve, two half-length windows) and reports the
per-layer metrics. Every metric is also printed by name with its unit and
sample count. The command exits non-zero when an output check fails or
the checkout holds no ``src/repro`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
LAUNCHER = HERE / "serve_launch.py"
GUARDS = HERE / "guards.json"

#: Per-run deadline: every child gets what is left of it.
DEADLINE_S = 170.0
#: Set-up samples per batch run, counting the passes' own.
SETUP_SAMPLES = 5

WORKLOADS = ("paper-sim", "paper-yield", "serve-mixed")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "rss_peak_mb": "MiB"}

PER_LAYER = {
    "workloads.compile_s": "s", "workloads.trace_hit_ratio": "ratio",
    "uarch.run_s": "s", "uarch.instructions": "count",
    "uarch.ns_per_inst": "ns", "uarch.cycles": "count",
    "uarch.replays": "count", "uarch.lbb_stalls": "count",
    "cache.l1d_accesses": "count", "cache.l1d_miss_ratio": "ratio",
    "cache.l2_miss_ratio": "ratio", "cache.slow_way_hits": "count",
    "variation.sample_s": "s", "variation.chips": "count",
    "variation.us_per_chip": "us", "circuit.eval_s": "s",
    "circuit.us_per_chip": "us", "yieldmodel.assemble_s": "s",
    "yieldmodel.estimate_self_s": "s", "yieldmodel.estimator_chips": "count",
    "schemes.breakdown_s": "s", "engine.dispatch_s": "s",
    "engine.codec_s": "s",
    "engine.store_save_ms": "ms", "engine.store_saves": "count",
    "engine.store_bytes_written": "bytes", "engine.store_load_ms": "ms",
    "engine.store_loads": "count", "engine.memo_hit_ratio": "ratio",
    "engine.jobs_run": "count", "serve.server_p50_ms": "ms",
    "serve.queue_wait_s": "s", "serve.refused": "count",
    "serve.warm_ratio": "ratio", "serve.batch_dispatches": "count",
    "serve.batch_fill_ratio": "ratio", "experiments.self_s": "s",
    "loadgen.late_p99_ms": "ms", "loadgen.offered_rps": "1/s",
    "obs.trace_overhead_frac": "ratio", "obs.coverage_frac": "ratio",
    "model.table6_err_pp": "pp", "model.table6_shape_misses": "count",
    "model.table2_err_chips": "chips",
}

#: Per-layer metrics that must repeat exactly for one seed on one commit.
GUARDED = ("uarch.instructions", "uarch.cycles", "uarch.replays",
           "uarch.lbb_stalls", "cache.l1d_accesses", "cache.l1d_miss_ratio",
           "cache.l2_miss_ratio", "cache.slow_way_hits", "variation.chips",
           "yieldmodel.estimator_chips", "engine.jobs_run",
           "model.table6_err_pp", "model.table6_shape_misses",
           "model.table2_err_chips")


class BenchError(RuntimeError):
    """The benchmark could not run (not an output-check failure)."""


def _workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def _env(work: pathlib.Path) -> Dict[str, str]:
    """Child environment: default engine settings, temp files in ``work``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = str(work)
    return env


class Run:
    """Deadline bookkeeping and the child processes of one invocation."""

    def __init__(self, work: pathlib.Path) -> None:
        self.work = work
        self.started = time.monotonic()

    def left(self) -> float:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 1.0:
            raise BenchError("out of time")
        return remaining

    def child(self, *args: str) -> dict:
        """Run ``child.py`` in a fresh interpreter; its last stdout line."""
        sub = self.work / (f"child-{threading.get_ident()}"
                           f"-{time.monotonic_ns()}")
        sub.mkdir()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), *args, "--work", str(sub),
                 "--spawned", repr(time.time())],
                cwd=sub, env=_env(sub), capture_output=True, text=True,
                timeout=self.left(),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args[0]} ran out of time") from None
        finally:
            shutil.rmtree(sub, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"child {args[0]} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _line(name: str, value: float, unit: str, samples: int,
          note: str = "") -> None:
    extra = f"  {note}" if note else ""
    print(f"metric {name} = {value:.6g} {unit} (n={samples}){extra}")


def _result(correct: bool, attempted: int, failed: int,
            metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def _guard_report(workload: str, seed: int, layer: Dict[str, float]) -> None:
    """Compare exact model guards with the values recorded for this seed."""
    recorded = json.loads(GUARDS.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        print(f"guards: no recorded values for {workload} seed {seed}")
        return
    changed = [f"{name} recorded {recorded[name]!r} now {layer[name]!r}"
               for name in GUARDED if recorded[name] != layer[name]]
    if changed:
        print(f"guards: MODEL CHANGED for {workload} seed {seed}: "
              + "; ".join(changed))
    else:
        print(f"guards: match the recorded values for {workload} seed {seed}")


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def _pass_failures(passes: List[dict]) -> Tuple[int, int, List[str]]:
    """(operations attempted, operations failed, failure messages)."""
    ops = [op for p in passes for op in p["operations"]]
    failures = [f for op in ops for f in op["failures"]]
    return len(ops), sum(1 for op in ops if op["failures"]), failures


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layers(spans: dict, counters: Dict[str, float], untraced_cost: float,
            traced_cost: float) -> Dict[str, float]:
    """Per-layer metrics from a span digest and engine counters.

    ``counters`` are the engine registry's counters over the traced
    window; layers the workload does not exercise read 0. The tracing
    overhead compares the cost of the same work untraced and traced.
    """
    own = spans["self_s"]
    work = spans["counters"]
    saves, loads = spans["store_save_s"], spans["store_load_s"]
    memo = counters.get("engine.jobs.cached_memory", 0.0) + sum(
        value for name, value in counters.items()
        if name.startswith("engine.inflight.cached."))
    lookups = (memo + counters.get("engine.jobs.cached_disk", 0.0)
               + counters.get("store.load.miss", 0.0))
    layer = {name: 0.0 for name in PER_LAYER}
    layer.update({
        "workloads.compile_s": own.get("workloads.compile", 0.0),
        "uarch.run_s": own.get("uarch.run", 0.0),
        "uarch.ns_per_inst": _ratio(own.get("uarch.run", 0.0),
                                    work.get("uarch.instructions", 0.0)) * 1e9,
        "cache.l1d_miss_ratio": _ratio(work.get("cache.l1d_misses", 0.0),
                                       work.get("cache.l1d_accesses", 0.0)),
        "cache.l2_miss_ratio": _ratio(work.get("cache.l2_misses", 0.0),
                                      work.get("cache.l2_accesses", 0.0)),
        "variation.sample_s": own.get("variation.sample", 0.0),
        "variation.us_per_chip": _ratio(own.get("variation.sample", 0.0),
                                        work.get("variation.chips", 0.0)) * 1e6,
        "circuit.eval_s": own.get("circuit.eval", 0.0),
        "circuit.us_per_chip": _ratio(own.get("circuit.eval", 0.0),
                                      work.get("circuit.chips", 0.0)) * 1e6,
        "yieldmodel.assemble_s": own.get("yieldmodel.assemble", 0.0),
        "yieldmodel.estimate_self_s": own.get("yieldmodel.estimate", 0.0),
        "schemes.breakdown_s": own.get("schemes.breakdown", 0.0),
        "engine.codec_s": own.get("engine.codec", 0.0),
        "engine.dispatch_s": own.get("engine.dispatch", 0.0),
        "engine.store_save_ms": statistics.median(saves) * 1e3 if saves else 0.0,
        "engine.store_saves": counters.get("store.save", 0.0),
        "engine.store_bytes_written": counters.get("store.bytes_written", 0.0),
        "engine.store_load_ms": statistics.median(loads) * 1e3 if loads else 0.0,
        "engine.store_loads": counters.get("store.load.hit", 0.0)
        + counters.get("store.load.miss", 0.0),
        "engine.memo_hit_ratio": _ratio(memo, lookups),
        "engine.jobs_run": counters.get("engine.jobs.run", 0.0),
        "experiments.self_s": own.get("experiments.run", 0.0),
        "obs.trace_overhead_frac": _ratio(traced_cost - untraced_cost,
                                          untraced_cost),
    })
    for name in ("uarch.instructions", "uarch.cycles", "uarch.replays",
                 "uarch.lbb_stalls", "cache.l1d_accesses",
                 "cache.slow_way_hits", "variation.chips",
                 "yieldmodel.estimator_chips"):
        layer[name] = work.get(name, 0.0)
    return layer


def _fastest(passes: List[dict], field: str) -> float:
    """A pass's cost with each operation at its fastest over the passes.

    Every pass does the same operations, and the host only ever slows
    them down, so the minimum per operation resists slow spells better
    than a median over whole passes.
    """
    ops = zip(*(p["operations"] for p in passes))
    return sum(min(op[field] for op in same) for same in ops)


def _cold_passes(run: Run, common: Tuple[str, ...],
                 seconds: float) -> List[dict]:
    """Back-to-back cold passes for ``seconds``: one stream per CPU, two at most.

    Each stream is pinned to its own CPU. A slow spell of the host often
    hits one CPU and not the other, so the second stream gives each
    operation's fastest time a second, independent chance.
    """
    from concurrent.futures import ThreadPoolExecutor

    cpus = sorted(os.sched_getaffinity(0))[:2]
    started = time.monotonic()

    def stream(cpu: int) -> List[dict]:
        out: List[dict] = []
        while not out or time.monotonic() - started < seconds:
            out.append(run.child("pass", *common, "--cpu", str(cpu)))
        return out

    with ThreadPoolExecutor(len(cpus)) as pool:
        return [p for passes in pool.map(stream, cpus) for p in passes]


def run_batch(run: Run, workload: str, seed: int, seconds: float,
              trace: bool) -> int:
    common = ("--workload", workload, "--seed", str(seed))
    if trace:
        untraced = run.child("pass", *common)
        traced = run.child("pass", *common, "--trace")
        passes = [untraced, traced]
        layer = _layers(traced["spans"], traced["counters"],
                        untraced["wall_s"], traced["wall_s"])
        cache = traced["trace_cache"]
        layer["workloads.trace_hit_ratio"] = _ratio(
            cache["hits"], cache["hits"] + cache["misses"])
        # experiments.run's self time is the part no layer span explains.
        layer["obs.coverage_frac"] = _ratio(
            sum(traced["spans"]["self_s"].values())
            - layer["experiments.self_s"], traced["wall_s"])
        layer.update(traced["model"])
        for name, unit in PER_LAYER.items():
            _line(name, layer[name], unit, 1)
        print(f"coverage: layer self times explain "
              f"{layer['obs.coverage_frac']:.1%} of the traced pass "
              f"({traced['wall_s']:.3f} s, {traced['spans']['spans']} spans), "
              f"not counting experiments.self_s")
        print(f"store: {traced['store_entries']} entries after the pass")
        _guard_report(workload, seed, layer)
        metrics, units = layer, PER_LAYER
    else:
        passes = _cold_passes(run, common, seconds)
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run.child("setup")["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": _fastest(passes, "seconds"),
            "cpu_s": _fastest(passes, "cpu_s"),
            "rss_peak_mb": statistics.median(p["rss_peak_mb"] for p in passes),
        }
        for name, unit in END_TO_END.items():
            _line(name, metrics[name], unit,
                  len(setups) if name == "setup_s" else len(passes))
        print("passes: wall_s " + ", ".join(
            f"{p['wall_s']:.3f}" for p in passes)
            + "; wall_s and cpu_s sum each operation's fastest pass")
        for op in passes[0]["operations"]:
            print(f"operation {op['name']} {op['seconds']:.4f} s (first pass)")
        units = END_TO_END
    attempted, failed, failures = _pass_failures(passes)
    _line("fail_frac", failed / attempted, "ratio", attempted)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    _result(not failures, attempted, failed, metrics, units)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def _proc_stat(pid: int) -> Tuple[float, float]:
    """(CPU seconds, peak RSS in MiB) of a live process, from /proc."""
    fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    ticks = fields.split()
    cpu = (int(ticks[11]) + int(ticks[12])) / os.sysconf("SC_CLK_TCK")
    hwm = 0.0
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            hwm = int(line.split()[1]) / 1024
    return cpu, hwm


class Server:
    """One ``repro serve`` process over a fresh copy of the warm store."""

    def __init__(self, run: Run, store: pathlib.Path,
                 spans: Optional[pathlib.Path]) -> None:
        self.dir = run.work / f"serve-{time.monotonic_ns()}"
        started = time.time()
        shutil.copytree(store, self.dir / "store")
        env = _env(self.dir)
        env["REPRO_CACHE_DIR"] = str(self.dir / "store")
        cmd = [sys.executable, str(LAUNCHER)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--", "serve", "--port", "0"]
        self.log = open(self.dir / "stderr.log", "w")
        self.proc = subprocess.Popen(cmd, cwd=self.dir, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
        self.port = int(port)
        self.started = started

    def stop(self) -> None:
        """SIGTERM, wait for the drain, and remove the server's files."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def _warm_up(server: Server, store: dict, fresh_seed: int, chips: int) -> None:
    """One request of each kind, so lazy imports finish before timing."""
    from repro.serve.client import ServeClient

    with ServeClient(server.host, server.port, timeout=60.0) as client:
        client.population(**store["reads"][-1])
        sim = dict(store["sims"][0])
        client.simulate(**sim)
        client.population(seed=fresh_seed, chips=chips)


def _hist_diff(before: dict, after: dict, name: str) -> dict:
    new = after["histograms"].get(name)
    if new is None:
        return {"count": 0, "sum": 0.0, "buckets": {}}
    old = before["histograms"].get(name, {"count": 0, "sum": 0.0,
                                          "buckets": {}, "overflow": 0})
    buckets = {b: c - old["buckets"].get(b, 0) for b, c in new["buckets"].items()}
    buckets["le_inf"] = new["overflow"] - old.get("overflow", 0)
    return {"count": new["count"] - old["count"],
            "sum": new["sum"] - old["sum"], "buckets": buckets}


def _hist_p50(hist: dict) -> float:
    """Median of a bucket histogram, linear within its bucket (seconds)."""
    if not hist["count"]:
        return 0.0
    half = hist["count"] / 2.0
    seen, low = 0, 0.0
    for bound, count in hist["buckets"].items():
        high = float("inf") if bound == "le_inf" else float(bound[3:])
        if count and seen + count >= half:
            if high == float("inf"):
                return low
            return low + (high - low) * (half - seen) / count
        seen += count
        low = high
    return low


def _serve_layers(before: dict, after: dict, spans: dict,
                  outcomes: List[dict], seconds: float, untraced_cpu: float,
                  traced_cpu: float) -> Dict[str, float]:
    """Per-layer metrics of a traced serve window.

    Engine and serve counters are the difference of the two ``/metrics``
    snapshots taken around the traffic.
    """
    import inspect

    from loadgen import percentile
    from repro.serve.batcher import SimulationBatcher

    b, a = before["engine"], after["engine"]
    counters = {name: value - b["counters"].get(name, 0.0)
                for name, value in a["counters"].items()}
    layer = _layers(spans, counters, untraced_cpu, traced_cpu)
    warm = counters.get("serve.request.warm", 0.0)
    cold = counters.get("serve.request.cold", 0.0)
    dispatches = counters.get("serve.batch.dispatches", 0.0)
    # The server's batcher runs with its default batch size limit.
    max_batch = inspect.signature(SimulationBatcher).parameters[
        "max_batch"].default
    late = [max(0.0, o["sent"] - o["due"]) * 1e3 for o in outcomes]
    layer.update({
        "serve.server_p50_ms": _hist_p50(
            _hist_diff(b, a, "serve.request_seconds")) * 1e3,
        "serve.queue_wait_s": _hist_diff(
            b, a, "serve.queue_wait_seconds")["sum"],
        "serve.refused": counters.get("serve.responses.429", 0.0)
        + counters.get("serve.responses.503", 0.0),
        "serve.warm_ratio": _ratio(warm, warm + cold),
        "serve.batch_dispatches": dispatches,
        "serve.batch_fill_ratio": _ratio(counters.get("serve.batch.jobs", 0.0),
                                         dispatches * max_batch),
        "loadgen.late_p99_ms": percentile(late, 99.0),
        "loadgen.offered_rps": len(outcomes) / seconds,
    })
    return layer


def _sample_cpu(pid: int, start: float, block: float, blocks: int,
                out: List[float]) -> None:
    """Append the server's CPU seconds at each block boundary to ``out``."""
    for index in range(blocks + 1):
        delay = start + index * block - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        out.append(_proc_stat(pid)[0])


def _traffic(run: Run, store_info: dict, store: pathlib.Path,
             schedule: List[dict], spec: dict, boots: int,
             spans_path: Optional[pathlib.Path] = None):
    """Boot ``boots`` servers (the last one serves) and send ``schedule``.

    Returns set-up samples, outcomes, the server's CPU seconds in each
    traffic block, its peak RSS, and the two /metrics snapshots around
    the traffic.
    """
    import loadgen
    from repro.serve.client import ServeClient

    warmup_seeds = store_info["fresh_seeds"][-boots:]
    setups = []
    for boot in range(boots):
        server = Server(run, store, spans_path if boot == boots - 1 else None)
        try:
            _warm_up(server, store_info, warmup_seeds[boot], spec["write_chips"])
            setups.append(time.time() - server.started)
        except BaseException:
            server.stop()
            raise
        if boot < boots - 1:
            server.stop()
    blocks = schedule[-1]["block"] + 1
    marks: List[float] = []
    try:
        with ServeClient(server.host, server.port, timeout=60.0) as client:
            before = client.metrics()
            start = time.perf_counter() + 0.05
            sampler = threading.Thread(
                target=_sample_cpu, name="cpu-sampler",
                args=(server.proc.pid, start, spec["block_seconds"], blocks,
                      marks))
            sampler.start()
            outcomes = loadgen.drive(
                server.host, server.port, schedule,
                min(spec["connections"], os.cpu_count() or 1), start)
            sampler.join()
            _, rss = _proc_stat(server.proc.pid)
            after = client.metrics()
    finally:
        server.stop()
    loadgen.check(schedule, outcomes)
    block_cpu = [end - begin for begin, end in zip(marks, marks[1:])]
    return setups, outcomes, block_cpu, rss, before, after


def _block_waits(outcomes: List[dict]) -> List[float]:
    """Seconds clients waited in each block: the sum of done - due."""
    waits: Dict[int, float] = {}
    for o in outcomes:
        waits[o["block"]] = waits.get(o["block"], 0.0) + o["done"] - o["due"]
    return [waits[block] for block in sorted(waits)]


def run_serve(run: Run, seed: int, seconds: float, trace: bool) -> int:
    import loadgen

    spec = _workloads()["serve-mixed"]
    store_info = run.child("build-store", "--seed", str(seed),
                           "--store", str(run.work / "warm"))
    store = run.work / "warm"
    print(f"warm store: {store_info['entries']} entries")
    if trace:
        seconds /= 2  # one untraced and one traced window
    schedule = loadgen.build_schedule(seed, spec, store_info, seconds)
    span = (schedule[-1]["block"] + 1) * spec["block_seconds"]
    boots = 1 if trace else spec["boots"]
    setups, outcomes, block_cpu, rss, before, after = _traffic(
        run, store_info, store, schedule, spec, boots)
    if trace:
        spans_path = run.work / "spans.json"
        _, traced_outcomes, traced_cpu, _, t_before, t_after = _traffic(
            run, store_info, store, schedule, spec, 1, spans_path)
        spans = json.loads(spans_path.read_text())
        # The open-loop schedule fixes the window's wall time, so the cost
        # of tracing shows in the server's CPU time instead.
        layer = _serve_layers(t_before, t_after, spans, traced_outcomes,
                              span, sum(block_cpu), sum(traced_cpu))
        for name, unit in PER_LAYER.items():
            _line(name, layer[name], unit, 1)
        outcomes = outcomes + traced_outcomes
        metrics, units = layer, PER_LAYER
    else:
        waits = _block_waits(outcomes)
        # Blocks do equal work; the fastest resists slow spells of the host.
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": min(waits), "cpu_s": min(block_cpu),
                   "rss_peak_mb": rss}
        for name, unit in END_TO_END.items():
            _line(name, metrics[name], unit,
                  {"setup_s": len(setups), "rss_peak_mb": 1}.get(
                      name, len(waits)))
        print("blocks: client wait s " + ", ".join(f"{w:.3f}" for w in waits)
              + "; server cpu s " + ", ".join(f"{c:.3f}" for c in block_cpu)
              + "; wall_s and cpu_s are the fastest block's")
        units = END_TO_END
    _serve_report(outcomes, spec, span * (2 if trace else 1))
    failed = sum(1 for o in outcomes if not o["ok"])
    for o in outcomes:
        if not o["ok"]:
            print(f"CHECK FAILED: {o['kind']}: {o['why']}")
    _result(failed == 0, len(outcomes), failed, metrics, units)
    return 1 if failed else 0


def _serve_report(outcomes: List[dict], spec: dict, seconds: float) -> None:
    """The per-kind serve latencies, goodput and failure share."""
    import loadgen

    by_kind: Dict[str, List[float]] = {}
    for o in outcomes:
        by_kind.setdefault(o["kind"], []).append((o["done"] - o["due"]) * 1e3)
    for kind, with_tail in (("pop_read", True), ("sim_read", False),
                            ("write", True)):
        values = by_kind.get(kind, [])
        if not values:
            continue
        _line(f"{kind}_p50_ms", loadgen.percentile(values, 50.0), "ms",
              len(values))
        if with_tail:
            pct, value = loadgen.tail(values)
            _line(f"{kind}_tail_ms", value, "ms", len(values), f"at p{pct}")
    slo = spec["slo_ms"]
    good = sum(1 for o in outcomes
               if o["ok"] and (o["done"] - o["due"]) * 1e3 <= slo)
    _line("goodput_rps", good / seconds, "req/s", len(outcomes),
          f"slo_ms={slo}")
    failed = sum(1 for o in outcomes if not o["ok"])
    _line("fail_frac", failed / len(outcomes), "ratio", len(outcomes))


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the paper artefacts and serve traffic.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to run: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in workloads)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    """Run one workload in its own working directory inside the checkout."""
    print(f"workload {workload} seed {seed}", flush=True)
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(work)
    try:
        if workload == "serve-mixed":
            return run_serve(run, seed, seconds, trace)
        return run_batch(run, workload, seed, seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
