"""Tests of the benchmark itself.

    python3 bench/selftest.py

They run the cheap checks of each workload in this process; the two large
swap-additive instances and the translation axiom take minutes traced, so
they are left to the benchmark runs themselves.
"""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
from calibration import SpeedSampler  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from vertexalg import series, structures  # noqa: E402
from vertexalg.series import LocalizedSeries, TruncSeries, VarSet  # noqa: E402

LARGE = ("euler/BU_Z(2)/trunc4", "euler/BU_Z(1)/deg3/trunc3", "translation-axiom")


def cheap_checks(seed):
    """Every check of every workload except the large ones."""
    out = []
    for workload in workloads.WORKLOADS:
        checks = workloads.pass_checks(workload, workloads.build_inputs(workload, seed))
        out += [c for c in checks if not c.name.startswith(LARGE)]
    return out


def traced_pass(seed):
    """One traced pass over the cheap checks, its layer metrics included."""
    patches = tracing.Patches()
    counter = tracing.WindowCounter()
    counter.install(patches)
    sampler = SpeedSampler()
    try:
        return worker.traced_pass(cheap_checks(seed), counter, sampler, tracing.Tracer(sampler.clock))
    finally:
        patches.restore()


def library_state():
    """Every attribute of the vertexalg modules and the wrapped classes."""
    state = {}
    for name, module in sys.modules.items():
        if name == "vertexalg" or name.startswith("vertexalg."):
            state[name] = dict(vars(module))
    for cls in (workloads.Poly, TruncSeries, structures.ProductFamily):
        state[cls.__name__] = dict(vars(cls))
    return state


class BenchmarkTest(unittest.TestCase):
    def test_traced_run_restores_every_wrapped_attribute(self):
        before = library_state()
        result = traced_pass(1)
        self.assertTrue(result["verdicts"])
        after = library_state()
        self.assertEqual(before.keys(), after.keys())
        for owner, attrs in before.items():
            for attr, value in attrs.items():
                self.assertIs(after[owner][attr], value, "%s.%s" % (owner, attr))

    def test_same_seed_repeats_inputs_and_counts(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(
                workloads.fingerprint(workloads.build_inputs(workload, 7)),
                workloads.fingerprint(workloads.build_inputs(workload, 7)),
            )
        first, again = traced_pass(7), traced_pass(7)
        counts, shares = first["layers"]
        self.assertEqual(counts, again["layers"][0])
        self.assertEqual(first["window_terms"], again["window_terms"])
        self.assertGreater(shares["structures.check.unit.share"], 0)
        for name in (
            "homology.contract_poly.calls",
            "homology.contract.keep_ratio",
            "structures.product.probe_share",
            "series.mul.terms_in",
        ):
            self.assertGreater(counts[name], 0, name)

    def test_other_seed_changes_inputs_not_verdicts(self):
        for workload in workloads.WORKLOADS:
            self.assertNotEqual(
                workloads.fingerprint(workloads.build_inputs(workload, 1)),
                workloads.fingerprint(workloads.build_inputs(workload, 2)),
            )
        counter = tracing.WindowCounter()
        verdicts = []
        for seed in (1, 2):
            patches = tracing.Patches()
            counter.install(patches)
            try:
                result = worker.one_pass(cheap_checks(seed), counter, SpeedSampler())
                verdicts.append(result["verdicts"])
            finally:
                patches.restore()
        self.assertEqual(verdicts[0], verdicts[1])
        self.assertTrue(all(got == expect for _, expect, got in verdicts[0]))

    def test_window_counts_positions_of_the_exact_region(self):
        zw = VarSet(("z", "w"))
        x = LocalizedSeries(TruncSeries(zw, 4, {(1, 0): 1}), ())
        # total degree <= 4 in two variables
        self.assertEqual(tracing.window_positions(x, x), 15)
        y = series.iota_expand(x, (("z",), ("w",)), 1)
        # and w-degree <= 1 once the w block carries a net bound
        self.assertEqual(tracing.window_positions(y, y), 9)

    def test_declared_metrics_match_reported_ones(self):
        declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        counts, shares = tracing.Tracer().layer_metrics(1.0)
        layers = set(counts) | set(shares) | {"trace.overhead_share"}
        self.assertEqual({m["name"] for m in declared["per_layer"]}, layers)
        self.assertEqual(
            {m["name"] for m in declared["end_to_end"]},
            {"setup_s", "pass_s", "window_terms", "peak_rss_mb"},
        )
        self.assertEqual([w["name"] for w in declared["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
