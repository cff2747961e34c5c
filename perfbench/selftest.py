"""Self-test of the benchmark: its checks, its tracer and its output.

    python3 perfbench/selftest.py

Each check must pass the program's own result and count a perturbed copy of
it as a failure.  The list tests check what the seed sets, and the
reference-speed tests how item times are brought to reference speed.  The
command tests run ``run.py`` once per mode and assert
that its last line names every metric of ``BENCHMARK.json`` with its unit,
and that without the package sources it fails without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

import numpy as np

import run
import workloads as W  # noqa: I001  (puts the package sources on sys.path)
from tracing import Tracer
from worker import Run

ROOT = W.SRC.parent
SCRATCH = ROOT / ".perfbench" / "selftest"


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _with_row(out, **changes):
    """A copy of a runner outcome whose single row has ``changes``."""
    rows, summary, code = out[:3]
    return ([{**rows[0], **changes}], summary, code, *out[3:])


class ChecksCatchWrongValues(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        cls.rng = np.random.default_rng(0)

    def assertPasses(self, item, out):
        self.assertEqual(W.check_item(item, out), [])

    def assertFails(self, item, out):
        self.assertNotEqual(W.check_item(item, out), [])

    def test_charges(self):
        for k in (4, 40):
            item = W._charges_item(self.rng, SCRATCH, k)
            out = W.run_item(item)
            self.assertPasses(item, out)
            row = out[0][0]
            self.assertFails(item, _with_row(out, dual=row["dual"] + 1e-6))
            self.assertFails(item, _with_row(out, length=row["length"] * (1 + 1e-6)))
            swapped = row["matching"].split("|")
            swapped[0], swapped[1] = swapped[1], swapped[0]
            self.assertFails(item, _with_row(out, matching="|".join(swapped)))
            if k <= 9:
                self.assertFails(item, _with_row(out, bruteforce=row["bruteforce"] + 1e-6))

    def test_cone(self):
        item = W.Item("cone", {"alpha": 0.25, "a_frac": 1.0, "c0": 1.0, "s_tilde": "1"})
        out = W.run_item(item)
        self.assertPasses(item, out)
        self.assertFails(item, _with_row(out, agreement=2 * W.TOL_OPTIMIZER))
        self.assertFails(item, _with_row(out, converged=False))
        self.assertFails(item, _with_row(out, t0=out[0][0]["t0"] * 1.01))
        # a defect below pi I breaks criterion 5's chain
        self.assertFails(item, _with_row(out, gap=0.99 * math.pi * out[0][0]["I_closed"]))
        self.assertFails(item, _with_row(out, holds_fast=True, holds=False))

    def test_cone_stationarity(self):
        """A closed-form radius off its stationary point is caught, at t0 on
        every cone and at tau0 where a < alpha."""
        item = W.Item("cone", {"alpha": 0.1, "a_frac": 0.5, "c0": 5.0, "s_tilde": "mid"})
        out = W.run_item(item)
        self.assertPasses(item, out)
        for name in ("compute_t0", "compute_tau0"):
            exact = getattr(W.variational, name)
            with mock.patch.object(W.variational, name, lambda *a: exact(*a) * (1 + 1e-6)):
                reasons = W.check_item(item, out)
            self.assertTrue(any("slope" in r for r in reasons), (name, reasons))

    def test_dipole(self):
        item = W.Item("dipole", {"n": 1, "alpha": 0.25, "delta": 0.4})
        out = W.run_item(item)
        self.assertPasses(item, out)
        start, res = out[3][-1]
        for bad in (dataclasses.replace(res, energy=start + 1e-6),
                    dataclasses.replace(res, converged=False),
                    dataclasses.replace(res, phi=res.phi + 2 * math.pi)):
            self.assertFails(item, (*out[:3], out[3][:-1] + [(start, bad)]))
        self.assertFails(item, (*out[:3], []))

    def test_closed_forms(self):
        for item, perturb in (
            (W.Item("slice-energy", {"n": 2, "alpha": 0.25}),
             lambda out: (out[0] * (1 + 2 * W.TOL_CLOSED_FORM), out[1])),
            (W.Item("energy-3d", {"n": 1, "alpha": 0.2}),
             lambda out: _with_row(out, total=out[0][0]["total"] * (1 + 2 * W.TOL_CLOSED_FORM))),
            (W.Item("degree", {"n": 2, "alpha": 0.1}),
             lambda out: (dataclasses.replace(out[0], degree=2), out[1])),
        ):
            out = W.run_item(item)
            self.assertPasses(item, out)
            self.assertFails(item, perturb(out))

    def test_deficit_fit(self):
        item = W.Item("deficit-fit", {"n": 2, "alpha": 0.25})
        rows, summary, code = W.run_item(item)
        self.assertPasses(item, (rows, summary, code))
        bad = [dict(row) for row in rows]
        bad[0]["slice_energy_quadrature"] *= 1 + 2 * W.TOL_QUAD
        self.assertFails(item, (bad, summary, code))
        bad = [dict(row) for row in rows]
        bad[-2]["slice_energy"] = bad[-3]["slice_energy"]  # deficits stop decreasing
        self.assertFails(item, (bad, summary, code))

    def test_area(self):
        block = W._checks_block(W.block_rng(0, 0), SCRATCH)
        mono = next(i for i in block if i.kind == "area-monotone")
        osc = next(i for i in block if i.kind == "area-oscillating")
        area, bound = W.run_item(mono)
        self.assertPasses(mono, (area, bound))
        self.assertFails(mono, (area * (1 + 2 * W.TOL_AREA), bound))
        area, bound = W.run_item(osc)
        self.assertPasses(osc, (area, bound))
        self.assertFails(osc, (bound, bound))

    def test_raising_item_is_a_failure_and_the_run_goes_on(self):
        good = W._charges_item(self.rng, SCRATCH, 3)
        missing = W.Item("charges", {**good.params, "config": str(SCRATCH / "absent.json")})
        run = Run()
        run.run_items([missing, good])
        self.assertEqual((run.attempted, run.failed), (2, 1))
        self.assertIn("raised InputError", run.failures[0])


class ItemListTest(unittest.TestCase):
    def labels(self, name: str, seed: int) -> list[str]:
        return [i.label() for i in W.make_list(W.WORKLOADS[name], seed, SCRATCH / "lists")]

    def test_the_seed_gives_the_inputs(self):
        self.assertEqual(self.labels("charges-large", 1), self.labels("charges-large", 1))
        self.assertNotEqual(self.labels("charges-large", 1), self.labels("charges-large", 2))

    def test_pooled_workloads_take_only_their_order_from_the_seed(self):
        for name, size in (("cone-sweep", 24), ("dipole-relax", 6)):
            one, two = self.labels(name, 1), self.labels(name, 2)
            self.assertEqual(len(one), size)
            self.assertNotEqual(one, two)
            self.assertEqual(sorted(one), sorted(two))


class ReferenceSpeedTest(unittest.TestCase):
    @staticmethod
    def one_pass(times: list[float], reference: float) -> dict:
        """A pass whose items ran back to back from t = 0, with a reference
        run of time ``reference`` before each item and after the last."""
        spans, references, clock = [], [], 0.0
        for t in times:
            references.append((clock + reference / 2, reference))
            clock += reference
            spans.append((clock, clock + t))
            clock += t
        references.append((clock + reference / 2, reference))
        return {"item_s": times, "item_span": spans, "references": references}

    def test_a_slow_host_is_taken_out(self):
        ref = run.REFERENCE_S
        passes = [self.one_pass([1.0, 2.0], ref), self.one_pass([1.5, 3.0], 1.5 * ref),
                  self.one_pass([2.0, 4.0], 2.0 * ref)]
        for times in run.item_times(passes):
            for got, expected in zip(times, (1.0, 2.0)):
                self.assertAlmostEqual(got, expected)

    def test_median_of_the_passes(self):
        passes = [self.one_pass([t], run.REFERENCE_S) for t in (1.0, 5.0, 2.0)]
        self.assertEqual(run.item_medians(run.item_times(passes)), [2.0])

    def test_only_the_references_beside_an_item_count(self):
        ref = run.REFERENCE_S
        slow_start = self.one_pass([1.0, 1.0], ref)
        slow_start["references"][0] = (ref / 2, 2.0 * ref)
        # the first item sees the slow reference and the one after it; the
        # second item is too far from the slow one to see it
        self.assertEqual(len(slow_start["references"]), 3)
        [(first, second)] = run.item_times([slow_start])
        self.assertAlmostEqual(first, 1.0 / 1.5)
        self.assertAlmostEqual(second, 1.0)


class TracerTest(unittest.TestCase):
    def test_spans_self_time_and_restore(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        item = W._charges_item(np.random.default_rng(1), SCRATCH, 5)
        original = W.cli.run_sigma
        tracer = Tracer()
        tracer.install()
        try:
            W.run_item(item)
        finally:
            tracer.uninstall()
        self.assertIs(W.cli.run_sigma, original)
        self.assertEqual(tracer.missing, [])
        m = tracer.metrics()
        for layer in ("cli.run_sigma", "connection.kantorovich_dual",
                      "connection.min_connection_assignment",
                      "connection.min_connection_bruteforce", "connection.SingularityConfig"):
            self.assertEqual(m[f"{layer}.calls"], 1.0, layer)
        self.assertEqual(m["connection.kantorovich_dual.failed"], 0)
        children = sum(m[f"{layer}.busy_s"] for layer in (
            "connection.kantorovich_dual", "connection.min_connection_assignment",
            "connection.min_connection_bruteforce", "connection.SingularityConfig"))
        self.assertAlmostEqual(m["cli.run_sigma.self_s"], m["cli.run_sigma.busy_s"] - children)
        self.assertEqual(m["variational.minimize_I_numerical.calls"], 0.0)


class CommandTest(unittest.TestCase):
    def run_bench(self, cwd: Path, trace: int) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed", "1",
             "--seconds", "0.1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_every_metric_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = self.run_bench(ROOT, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
            for m in declared:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"], m["name"])
                self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_fails_without_the_package(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = self.run_bench(bare, 0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
