"""Benchmark of vertexalg's exact identity checks.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  Each workload runs in
a fresh interpreter (``bench/worker.py``), so peak memory and garbage
collector state never leak from one workload into the next.  The last line
printed is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The command exits non-zero when a check returns
a wrong verdict, when verdicts or counts fail to repeat, or when the
library cannot be run.  See ``bench/README.md`` for the metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("swap-additive", "axioms-translation", "swap-multiplicative")
SETUP_PROBES = 5
# every run ends within 180 seconds, including its last, overrunning pass
TIME_LIMIT_S = 175


def _commit():
    """The checked-out commit, or None outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment():
    """Python version, processor count and the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vertexalg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def worker(args, deadline):
    """Run bench/worker.py in a fresh interpreter and parse its last line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")] + [str(a) for a in args],
        stdout=subprocess.PIPE,
        timeout=max(deadline - time.monotonic(), 1),
        cwd=str(ROOT),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited with code %d" % (args[:2], proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not trace:
        setups = [worker(["setup", workload, seed], deadline) for _ in range(SETUP_PROBES)]
    spans = ROOT / ".bench_traces" / ("%s-seed%d.json" % (workload, seed))
    if trace:
        spans.parent.mkdir(exist_ok=True)
    got = worker(["run", workload, seed, seconds, 1 if trace else 0, spans], deadline)
    scaled = [p["scaled_s"] for p in got["passes"]]
    detail = {
        "workload": workload,
        "seed": seed,
        "environment": environment(),
        "pass_s": {
            "samples": len(scaled),
            "quartiles": quartiles(scaled),
            "wall_quartiles": quartiles([p["raw_s"] for p in got["passes"]]),
        },
        "failed_share": got["failed"] / got["attempted"],
        "repeatable": got["repeatable"],
        "wrong": [v for v in got["verdicts"] if v[1] != v[2]],
    }
    if trace:
        traced = [p["scaled_s"] for p in got["traced_passes"]]
        metrics = dict(got["layers"])
        metrics["trace.overhead_share"] = [
            statistics.median(traced) / statistics.median(scaled) - 1,
            "ratio",
        ]
        detail["traced_pass_s"] = {
            "samples": len(traced),
            "quartiles": quartiles(traced),
            "wall_quartiles": quartiles([p["raw_s"] for p in got["traced_passes"]]),
        }
        detail["spans_file"] = str(spans.relative_to(ROOT))
    else:
        setup_scaled = [s["scaled_s"] for s in setups]
        detail["setup_s"] = {
            "samples": len(setups),
            "quartiles": quartiles(setup_scaled),
            "wall_quartiles": quartiles([s["raw_s"] for s in setups]),
        }
        metrics = {
            "setup_s": [statistics.median(setup_scaled), "s"],
            "pass_s": [statistics.median(scaled), "s"],
            "window_terms": [got["window_terms"], "count"],
            "peak_rss_mb": [got["peak_rss_mb"], "MB"],
        }
    correct = got["failed"] == 0 and got["repeatable"]
    result = {
        "correct": correct,
        "attempted": got["attempted"],
        "failed": got["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return detail, result


def report(detail, result):
    env = detail["environment"]
    print(
        "%s  seed %d  python %s  nproc %s  commit %s  src sha256 %s"
        % (
            detail["workload"],
            detail["seed"],
            env["python"],
            env["nproc"],
            env["commit"] or "-",
            env["source_sha256"][:12],
        )
    )
    print(
        "  checks: %d attempted, %d failed (failed_share %.4f), repeatable %s"
        % (result["attempted"], result["failed"], detail["failed_share"], detail["repeatable"])
    )
    for name, m in result["metrics"].items():
        note = ""
        if name in ("pass_s", "setup_s"):
            d = detail[name]
            note = "median of %d, quartiles %.4g / %.4g, wall quartiles %.4g / %.4g" % (
                d["samples"],
                d["quartiles"][0],
                d["quartiles"][2],
                d["wall_quartiles"][0],
                d["wall_quartiles"][2],
            )
        print("  %-44s %14.6g %-6s %s" % (name, m["value"], m["unit"], note))
    for name, expect, got in detail["wrong"]:
        print("  WRONG VERDICT %s: expected %s, got %s" % (name, expect, got))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vertexalg" / "__init__.py").is_file():
        print("bench: no vertexalg sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            detail, result = measure(workload, args.seed, args.seconds, args.trace == 1)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print("bench: %s failed: %s" % (workload, exc), file=sys.stderr)
            return 1
        report(detail, result)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
