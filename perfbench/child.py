"""One cold pass of a batch workload, one set-up sample, or the warm store build.

Runs in a fresh interpreter so every pass starts cold: no imported
modules, no compiled traces, no memo, and an empty result store. Prints
one JSON object as its last line of standard output.

    python3 perfbench/child.py pass  --workload paper-sim --seed 1 --work DIR --spawned T [--trace] [--cpu N]
    python3 perfbench/child.py setup --work DIR --spawned T
    python3 perfbench/child.py build-store --seed 1 --work DIR --store DIR
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402  (benchmark module, next to this file)


def _workload(name: str) -> dict:
    return json.loads((HERE / "workloads.json").read_text())[name]


def _engine(work: pathlib.Path):
    """A fresh engine with the default configuration and an empty store."""
    from repro.engine import configure_engine

    return configure_engine(cache_dir=str(work / "store"))


def _plan(spec: dict, seed: int):
    """The (artefact, settings) calls of one pass, in order."""
    from repro.experiments import ExperimentSettings

    sizes = {key: spec[key] for key in ("chips", "trace_length", "warmup")
             if key in spec}
    if "benchmarks" in spec:
        sizes["benchmarks"] = tuple(spec["benchmarks"])
    calls = []
    for offset in spec["seed_offsets"]:
        settings = ExperimentSettings(seed=seed + offset, **sizes)
        calls.extend((name, settings) for name in spec["artefacts"])
    if spec["estimator_seed_offset"] is not None:
        calls.append(("estimators", ExperimentSettings(
            seed=seed + spec["estimator_seed_offset"], chips=spec["chips"])))
    return calls


def _failures(name: str, result, chips: int):
    if name == "table6":
        return checks.table6_failures(result)
    if name in ("fig9", "sec45"):
        return checks.series_failures(result)
    return checks.yield_failures(result, chips)


def _model(results) -> dict:
    """Simulated outputs against the paper's reported numbers."""
    from repro.experiments import losstables, table6

    model = {"model.table6_err_pp": 0.0, "model.table6_shape_misses": 0.0,
             "model.table2_err_chips": 0.0}
    for name, result in results:
        if name == "table6":
            model["model.table6_err_pp"] = checks.table6_error_pp(
                result, table6.PAPER_TABLE6)
            model["model.table6_shape_misses"] = float(
                len(checks.table6_shape_misses(result)))
        elif name == "table2" and not model["model.table2_err_chips"]:
            model["model.table2_err_chips"] = checks.table2_error_chips(
                result, losstables._PAPER_TABLE2)
    return model


def run_pass(args) -> dict:
    from repro.experiments import run_experiment

    engine = _engine(args.work)
    spec = _workload(args.workload)
    calls = _plan(spec, args.seed)
    recorder = None
    run = run_experiment
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
        run = recorder.wrap("experiments.run", run_experiment)
    setup_s = time.time() - args.spawned
    times, results = [], []
    for name, settings in calls:
        start, cpu = time.perf_counter(), time.process_time()
        results.append((name, run(name, settings)))
        times.append((time.perf_counter() - start, time.process_time() - cpu))
    out = {
        "setup_s": setup_s,
        "wall_s": sum(wall for wall, _ in times),
        "cpu_s": sum(cpu for _, cpu in times),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "operations": [
            {"name": name, "seconds": wall, "cpu_s": cpu,
             "failures": _failures(name, result, spec["chips"])}
            for (name, result), (wall, cpu) in zip(results, times)
        ],
        "counters": engine.metrics.snapshot()["counters"],
        "store_entries": len(engine.store.entries()),
        "model": _model(results),
    }
    if recorder is not None:
        from repro.workloads import trace_cache_info

        out["spans"] = recorder.summary()
        out["trace_cache"] = trace_cache_info()
    return out


def run_setup(args) -> dict:
    """Set-up only: imports and engine construction, then exit."""
    import repro.experiments  # noqa: F401

    _engine(args.work)
    return {"setup_s": time.time() - args.spawned}


def build_store(args) -> dict:
    """The warm store serve-mixed starts from, and the keys it holds.

    Holds ``store_entries`` results: the populations warm reads ask for,
    the simulations warm simulate reads ask for, and small filler
    populations that no request reads. Seeds come from ``--seed``.
    """
    from repro.engine import Engine, EngineConfig
    from repro.experiments import ExperimentSettings

    spec = _workload("serve-mixed")
    rng = random.Random(f"serve-mixed-store-{args.seed}")
    engine = Engine(EngineConfig(cache_dir=args.store, max_cache_bytes=0))
    sims = [
        {"benchmark": name, "seed": args.seed,
         "trace_length": spec["sim_trace_length"],
         "warmup": spec["sim_warmup"], "way_cycles": cycles}
        for name in spec["sim_benchmarks"] for cycles in spec["sim_configs"]
    ]
    sim_settings = ExperimentSettings(
        seed=args.seed, trace_length=spec["sim_trace_length"],
        warmup=spec["sim_warmup"])
    engine.simulate_many(sim_settings, [
        (s["benchmark"], tuple(s["way_cycles"]) if s["way_cycles"] else None,
         None) for s in sims
    ])
    seeds = rng.sample(range(1, 10**6), spec["store_entries"] - len(sims))
    reads = seeds[:spec["read_keys"]]
    for index, seed in enumerate(seeds):
        chips = spec["read_chips"] if index < len(reads) else spec["filler_chips"]
        engine.population(ExperimentSettings(seed=seed, chips=chips))
    taken = set(seeds)
    fresh = [s for s in rng.sample(range(10**6, 2 * 10**6), 4096)
             if s not in taken]
    return {
        "entries": len(engine.store.entries()),
        "reads": [{"seed": s, "chips": spec["read_chips"]} for s in reads],
        "sims": sims,
        "fresh_seeds": fresh,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("pass", "setup", "build-store"))
    parser.add_argument("--workload", default="paper-sim")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--work", type=pathlib.Path, required=True)
    parser.add_argument("--spawned", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--store", type=pathlib.Path)
    parser.add_argument("--cpu", type=int, help="pin the process to this CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    if args.mode == "pass":
        out = run_pass(args)
    elif args.mode == "setup":
        out = run_setup(args)
    else:
        out = build_store(args)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
