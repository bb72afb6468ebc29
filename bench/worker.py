"""Run one workload in this (fresh) interpreter and print its raw figures as JSON.

    python3 bench/worker.py setup <workload> <seed>
    python3 bench/worker.py run <workload> <seed> <seconds> <trace 0|1> <spans file>

``bench/run.py`` starts this script; it is not meant to be called by hand.
Timings are scaled to reference seconds by ``calibration.SpeedSampler``.
"""

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from calibration import SpeedSampler, measure, reference_seconds

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(workload, seed):
    """Import the library from this checkout and build the workload's inputs."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import vertexalg

    if Path(vertexalg.__file__).resolve().parent != SRC / "vertexalg":
        raise SystemExit("vertexalg was imported from %s, not %s" % (vertexalg.__file__, SRC))
    import workloads

    inputs = workloads.build_inputs(workload, seed)
    return time.perf_counter() - t0, workloads, inputs


def one_pass(checks, counter, sampler, tracer=None):
    """Run every check once, timed on the sampler's clock."""
    verdicts = []
    windows = counter.total
    first = len(sampler.samples)
    t0 = sampler.clock()
    for check in checks:
        try:
            with tracer.region("check:" + check.name) if tracer else nullcontext():
                got = check.run()
        except Exception as exc:
            got = "raised " + type(exc).__name__
            traceback.print_exc()
        verdicts.append([check.name, check.expect, got])
    elapsed = sampler.clock() - t0
    return {
        "raw_s": elapsed,
        "scaled_s": sampler.scaled(elapsed, first),
        "verdicts": verdicts,
        "window_terms": counter.total - windows,
    }


def traced_pass(checks, counter, sampler, tracer):
    """``one_pass`` with the layer wrappers installed for its duration."""
    import tracing

    patches = tracing.Patches()
    tracer.install(patches)
    tracer.reset_stats()
    try:
        with tracer.region("pass"):
            result = one_pass(checks, counter, sampler, tracer)
    finally:
        patches.restore()
    result["layers"] = tracer.layer_metrics(result["raw_s"])
    return result


def run(workload, seed, seconds, traced, spans_path):
    _, workloads, inputs = setup(workload, seed)
    import tracing

    patches = tracing.Patches()
    counter = tracing.WindowCounter()
    counter.install(patches)
    sampler = SpeedSampler()
    tracer = tracing.Tracer(sampler.clock) if traced else None
    plain, with_trace = [], []
    deadline = time.perf_counter() + seconds
    try:
        with sampler:
            while True:
                gc.collect()
                plain.append(one_pass(workloads.pass_checks(workload, inputs), counter, sampler))
                if tracer is not None:
                    gc.collect()
                    checks = workloads.pass_checks(workload, inputs)
                    with_trace.append(traced_pass(checks, counter, sampler, tracer))
                if time.perf_counter() >= deadline:
                    break
    finally:
        patches.restore()
    out = {
        "passes": [{"raw_s": p["raw_s"], "scaled_s": p["scaled_s"]} for p in plain],
        "traced_passes": [{"raw_s": p["raw_s"], "scaled_s": p["scaled_s"]} for p in with_trace],
        "verdicts": plain[0]["verdicts"],
        "attempted": 0,
        "failed": 0,
        "window_terms": plain[0]["window_terms"],
        "repeatable": True,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for p in plain + with_trace:
        out["attempted"] += len(p["verdicts"])
        out["failed"] += sum(1 for _, expect, got in p["verdicts"] if got != expect)
        if p["verdicts"] != out["verdicts"] or p["window_terms"] != out["window_terms"]:
            out["repeatable"] = False
    if tracer is not None:
        out["layers"], repeated = _merge_layers([p["layers"] for p in with_trace])
        out["repeatable"] = out["repeatable"] and repeated
        with open(spans_path, "w") as f:
            json.dump({"workload": workload, "seed": seed, "spans": tracer.spans}, f)
    return out


def _merge_layers(layers):
    """Counts must repeat exactly in every traced pass; time shares take
    the median.  Returns the merged metrics and whether counts repeated."""
    import tracing

    counts, shares = layers[0]
    merged = {name: [value, tracing.unit(name)] for name, value in counts.items()}
    for name in shares:
        merged[name] = [statistics.median(s[name] for _, s in layers), tracing.unit(name)]
    return merged, all(c == counts for c, _ in layers)


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        seconds, _, _ = setup(workload, seed)
        measure()  # the first loop in a fresh process runs cold
        loops = [measure() for _ in range(5)]
        out = {"raw_s": seconds, "scaled_s": reference_seconds(seconds, loops)}
    else:
        out = run(workload, seed, float(argv[3]), argv[4] == "1", argv[5])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
