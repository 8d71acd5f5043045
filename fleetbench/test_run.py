#!/usr/bin/env python3
"""Tests of the benchmark's own logic; no build needed.

    python3 fleetbench/test_run.py
"""

import os
import shutil
import stat
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")


def load_events(path):
    events = []
    with open(path) as f:
        for line in f:
            stamp, text = line.rstrip("\n").split("\t", 1)
            events.append((float(stamp), text))
    return events


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        # A traced run decodes the cells of two cold jobs.
        # 216 cells (cold_fleet): p99 has 2 samples beyond, p95 has 10.
        self.assertEqual(run.tail_percentile(range(1, 217)), (95, 206))
        # 198 cells (eval_mnist): p95 has 9 beyond, p90 has 19.
        self.assertEqual(run.tail_percentile(range(1, 199)), (90, 179))
        # 108 cells: p95 has 5 beyond, p90 has 10.
        self.assertEqual(run.tail_percentile(range(1, 109)), (90, 98))
        # 54 cells: p90 has 5 beyond, p75 has 13.
        self.assertEqual(run.tail_percentile(range(1, 55)), (75, 41))
        # 22 cells (retrain_mnist): only the median has 10 beyond.
        self.assertEqual(run.tail_percentile(range(1, 23)), (50, 11))

    def test_too_few_samples_reports_no_tail(self):
        self.assertIsNone(run.tail_percentile(range(1, 20)))

    def test_ties_do_not_count_as_beyond(self):
        self.assertIsNone(run.tail_percentile([1.0] * 100))


class SetupParseTest(unittest.TestCase):
    def test_recorded_stderr(self):
        events = load_events(os.path.join(TESTDATA, "eval_mnist_cold.stderr"))
        first = next(t for t, l in events if l.startswith("[sweep 1/"))
        self.assertAlmostEqual(run.parse_setup_s(events), first - 0.7)

    def test_only_the_first_cell_line_counts(self):
        events = [(1.0, "[sweep] fig2_vth_sweep @ store st: 0 cached"),
                  (4.0, "[sweep 2/21] fig2:MNIST/x (9.0 s)"),
                  (5.0, "[sweep 1/21] fig2:MNIST/y (2.5 s)"),
                  (6.0, "[sweep 1/21] fig2:MNIST/z (0.1 s)")]
        self.assertAlmostEqual(run.parse_setup_s(events), 2.5)

    def test_no_cell_line(self):
        self.assertIsNone(run.parse_setup_s([(0.5, "[fleet] nothing ran")]))


class TableCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp()
        self.workload = run.Workload({"fig5b_fault_count": 3}, "mnist", None,
                                     ("fig5b_fault_count", "accuracy", None))
        self.path = os.path.join(self.dir, "fig5b_fault_count.csv")
        with open(self.path, "w") as f:
            f.write("key,tag,dataset,accuracy\n"
                    "MNIST/faulty=0/rep=0,,MNIST,69.7917\n"
                    "MNIST/faulty=4/rep=0,,MNIST,68.75\n"
                    "MNIST/faulty=8/rep=0,,MNIST,10.4167\n")

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_digest_check_catches_one_byte_edit(self):
        reference, failed, _ = run.check_tables(self.dir, self.workload)
        self.assertEqual(failed, 0)
        self.assertEqual(run.digest_mismatches(reference, reference), [])
        with open(self.path, "r+b") as f:
            data = bytearray(f.read())
            data[data.index(b"68.75") + 4] = ord("6")  # 68.75 -> 68.76
            f.seek(0)
            f.write(data)
        edited, failed, _ = run.check_tables(self.dir, self.workload)
        self.assertEqual(failed, 0)  # still a well-formed table
        self.assertEqual(run.digest_mismatches(edited, reference),
                         ["fig5b_fault_count.csv"])

    def test_rows_and_ranges(self):
        with open(self.path, "a") as f:
            f.write("MNIST/faulty=16/rep=0,,MNIST,100.5\n")
        _, failed, problems = run.check_tables(self.dir, self.workload)
        self.assertEqual(failed, 3)
        self.assertTrue(any("4 rows for 3 cells" in p for p in problems))
        self.assertTrue(any("100.5" in p for p in problems))

    def test_missing_table(self):
        os.remove(self.path)
        digests, failed, _ = run.check_tables(self.dir, self.workload)
        self.assertEqual((digests, failed), ({}, 3))


class KilledRunTest(unittest.TestCase):
    """A fleet that dies mid-run fails every cell of the job."""

    def setUp(self):
        self.work = tempfile.mkdtemp()

    def tearDown(self):
        shutil.rmtree(self.work)

    def run_stub(self, body, seconds):
        stub = os.path.join(self.work, "sweep_fleet")
        with open(stub, "w") as f:
            f.write("#!/bin/sh\n"
                    "echo '[sweep 1/108] fig5b_fault_count:MNIST/faulty=0"
                    "/rep=0 (0.1 s)' >&2\n" + body)
        os.chmod(stub, os.stat(stub).st_mode | stat.S_IXUSR)
        return run.cold_and_warm(stub, run.WORKLOADS["cold_fleet"], 7,
                                 os.path.join(self.work, "job"),
                                 time.monotonic() + seconds)

    def test_sigkilled_fleet_counts_every_cell_failed(self):
        cold, warm = self.run_stub("kill -9 $$\n", 60)
        self.assertEqual(cold["rc"], -9)
        self.assertEqual((cold["attempted"], cold["failed"]), (108, 108))
        self.assertIsNone(warm)
        self.assertIsNone(run.end_to_end([cold])["wall_s"])

    def test_fleet_past_the_deadline_is_killed(self):
        cold, warm = self.run_stub("exec sleep 30\n", 1)
        self.assertEqual(cold["rc"], -9)
        self.assertLess(cold["wall"], 10)
        self.assertEqual(cold["failed"], 108)
        self.assertIsNone(warm)

    def test_setup_job_stops_at_the_first_cell(self):
        stub = os.path.join(self.work, "sweep_fleet")
        with open(stub, "w") as f:
            f.write("#!/bin/sh\nsleep 0.3\n"
                    "echo '[sweep 1/108] fig5b_fault_count:MNIST/faulty=0"
                    "/rep=0 (0.1 s)' >&2\nexec sleep 30\n")
        os.chmod(stub, os.stat(stub).st_mode | stat.S_IXUSR)
        job = run.setup_job(stub, run.WORKLOADS["cold_fleet"], 7,
                            os.path.join(self.work, "setup"),
                            time.monotonic() + 60)
        self.assertLess(job["wall"], 10)
        self.assertEqual((job["attempted"], job["failed"]), (1, 0))
        self.assertGreater(job["setup"], 0.1)

    def test_setup_job_without_a_cell_fails(self):
        stub = os.path.join(self.work, "sweep_fleet")
        with open(stub, "w") as f:
            f.write("#!/bin/sh\nexit 3\n")
        os.chmod(stub, os.stat(stub).st_mode | stat.S_IXUSR)
        job = run.setup_job(stub, run.WORKLOADS["cold_fleet"], 7,
                            os.path.join(self.work, "setup"),
                            time.monotonic() + 60)
        self.assertEqual((job["rc"], job["failed"]), (3, 1))
        self.assertEqual(run.end_to_end([], [job])["setup_s"], None)


class IdentityTest(unittest.TestCase):
    """Cross-job identity plus the reference digests at the default seed;
    nothing is carried over from earlier runs."""

    def setUp(self):
        self.dir = tempfile.mkdtemp()
        self.saved = run.REFERENCE_DIGESTS
        run.REFERENCE_DIGESTS = os.path.join(self.dir, "reference.json")
        self.workload = run.WORKLOADS["cold_fleet"]
        self.old = {"fig5b_fault_count.csv": "a" * 64}
        self.new = {"fig5b_fault_count.csv": "b" * 64}

    def tearDown(self):
        run.REFERENCE_DIGESTS = self.saved
        shutil.rmtree(self.dir)

    def check(self, digests, seed=7, write=False, other=None):
        jobs = [{"digests": digests}, {"digests": other or digests}]
        return run.identity_failures(jobs, self.workload, "cold_fleet", seed,
                                     write)

    def test_jobs_of_a_run_must_agree(self):
        _, failed, problems = self.check(self.old, seed=91, other=self.new)
        self.assertEqual(failed, 108)
        self.assertIn("tables differ between jobs of this run", problems)

    def test_regenerating_the_reference(self):
        run.write_reference("cold_fleet", self.old)
        self.assertEqual(self.check(self.old)[1], 0)
        self.assertEqual(self.check(self.new)[1], 108)
        # After an intentional table change: regenerate, then check again.
        self.assertEqual(self.check(self.new, write=True)[1], 0)
        self.assertEqual(self.check(self.new)[1], 0)
        self.assertEqual(self.check(self.old)[1], 108)

    def test_other_seeds_skip_the_reference(self):
        run.write_reference("cold_fleet", self.old)
        self.assertEqual(self.check(self.new, seed=91)[1], 0)


if __name__ == "__main__":
    unittest.main()
