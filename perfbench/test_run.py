"""Tests of run.py's seeded inputs and output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import collections
import hashlib
import unittest

import run


class JobSequenceTest(unittest.TestCase):
    def test_same_seed_same_sequence(self):
        self.assertEqual(run.job_sequence(7, run.JOB_MIX), run.job_sequence(7, run.JOB_MIX))

    def test_seed_changes_order_not_mix(self):
        a, b = run.job_sequence(1, run.JOB_MIX), run.job_sequence(2, run.JOB_MIX)
        self.assertNotEqual([j["experiment"] for j in a], [j["experiment"] for j in b])
        counts = collections.Counter(j["experiment"] for j in a)
        self.assertEqual(counts, collections.Counter(dict(run.JOB_MIX)))
        self.assertGreaterEqual(len(a), 100)

    def test_specs(self):
        for j in run.job_sequence(70, run.JOB_MIX):
            self.assertEqual(j, {"experiment": j["experiment"], "fast": True, "workers": 1, "seed": 70 % run.SPEC_SEEDS})


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.percentile(xs, 0.5), 50)
        self.assertEqual(run.percentile(xs, 0.9), 90)
        self.assertEqual(run.percentile([3.0], 0.9), 3.0)
        self.assertEqual(run.percentile([2, 1], 0.5), 1)


class CheckerTest(unittest.TestCase):
    def test_digest_and_repeats(self):
        good = b"result"
        chk = run.Checker({"cli": {}, "jobs": {}})
        self.assertTrue(chk.op("job:scale:3", True, good, hashlib.sha256(good).hexdigest()))
        self.assertFalse(chk.op("job:scale:3", True, b"other", None))
        self.assertFalse(chk.op("job:fig2:3", True, good, "0" * 64))
        self.assertFalse(chk.op("job:fig2:3", False))
        self.assertEqual((chk.attempted, chk.failed), (4, 3))


if __name__ == "__main__":
    unittest.main()
