"""Cache counters read from outside the library, and the answer checks."""

import os
import pickle
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import counters  # noqa: E402
import workloads  # noqa: E402
import permfact  # noqa: E402
from permfact import charkit, countcore, oracle  # noqa: E402


class CounterReadoutTest(unittest.TestCase):
    def setUp(self):
        for cache in (countcore._mu_cached, countcore._xi_cached, oracle._xi2_table):
            cache.cache_clear()

    def test_hit_ratio_and_base(self):
        gamma = permfact.Partition([2, 2])
        permfact.mu(gamma, 3)
        permfact.mu(gamma, 3)
        permfact.mu(gamma, 1)
        out = counters.read()
        self.assertEqual(out["countcore.mu_cache.lookups"], 3)
        self.assertAlmostEqual(out["countcore.mu_cache.hit_ratio"], 1 / 3)

    def test_no_lookups_gives_zero_ratio(self):
        out = counters.read()
        self.assertEqual(out["countcore.xi_cache.lookups"], 0)
        self.assertEqual(out["countcore.xi_cache.hit_ratio"], 0.0)

    def test_sizes(self):
        permfact.character(permfact.Partition([2, 1]), permfact.Partition([1, 1, 1]))
        classes = (permfact.Partition([2, 1]), permfact.Partition([3]))
        oracle.brute_xi(classes, 1)
        out = counters.read()
        self.assertEqual(out["charkit.char_cache.entries"], len(charkit._char_cache))
        self.assertEqual(out["oracle.table_entries"], len(oracle._xi2_table(3)))
        self.assertGreater(out["exactnum.stirling_rows"], 0)

    def test_lru_values_finds_the_cached_results(self):
        table = oracle._xi2_table(3)
        self.assertEqual([id(v) for v in counters.lru_values(oracle._xi2_table)], [id(table)])


class AnswerCheckTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.workdir = tmp.name

    def test_xi_table_identities(self):
        classes = ((2, 1), (2, 1))
        good = "m  xi\n1   6\n3   3\n"
        self.assertIsNone(workloads.XiCli._check_table(3, classes, 0, good))
        wrong_sum = "m  xi\n1   6\n3   2\n"
        self.assertIn("sum over m", workloads.XiCli._check_table(3, classes, 0, wrong_sum))
        wrong_parity = "m  xi\n1   6\n2   1\n3   2\n"
        self.assertIn("parity", workloads.XiCli._check_table(3, classes, 0, wrong_parity))
        self.assertIn("exit code", workloads.XiCli._check_table(3, classes, 1, good))
        xi = workloads.XiCli(1, "tiny")
        xi.attach(self.workdir)
        failed, _ = xi.check([(0, "m  xi\n1 2 3\n")] + [(0, "")] * (xi.ops - 1))
        self.assertEqual(failed, xi.ops)

    def session(self, seed):
        session = pickle.loads(pickle.dumps(workloads.Session(seed, "tiny")))
        session.attach(self.workdir)
        session.setup(permfact)
        self.addCleanup(session.teardown)
        return session

    def test_map_count_checks(self):
        session = self.session(1)
        value = permfact.one_face_map_count(5, 1)
        self.assertIsNone(session._harer_zagier(5, 1, value))
        self.assertIsNotNone(session._harer_zagier(5, 1, 1 + value))
        self.assertIsNone(session._pairings(5, 1, value))
        # A count off by a constant factor everywhere satisfies the linear
        # recursion; the pairing-class count pins the scale.
        self.assertIsNotNone(session._pairings(5, 1, 2 * value))

    def test_session_counts_wrong_answers(self):
        session = self.session(2)
        answers = session.run(lambda request: None, [])
        self.assertEqual(session.check(answers)[0], 0)
        kind, key = session.queries[0]
        bad = [a + 1 if q == (kind, key) else a for q, a in zip(session.queries, answers)]
        failed, _ = session.check(bad)
        self.assertEqual(failed, session.queries.count((kind, key)))

    def test_class_text_and_size(self):
        self.assertEqual(workloads.class_text((3, 2, 2, 1, 1, 1)), "3,2^2,1^3")
        self.assertEqual(workloads.class_size((2, 1)), 3)
        self.assertEqual(len(workloads.partition_list(6)), 11)


if __name__ == "__main__":
    unittest.main()
