"""Scaling of measured intervals by the sampled host speed."""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import hostspeed  # noqa: E402


class ScaledTest(unittest.TestCase):
    def setUp(self):
        self.addCleanup(hostspeed._samples.clear)
        ref = hostspeed.REFERENCE_S
        # Probes ending at t = 1..4 took twice the reference time: half speed.
        hostspeed._samples[:] = [(t, 2 * ref) for t in (1.0, 2.0, 3.0, 4.0)]

    def test_probes_are_removed_and_the_rest_scaled(self):
        seconds, factor = hostspeed.scaled(0.5, 4.5)
        self.assertAlmostEqual(factor, 0.5)
        self.assertAlmostEqual(seconds, (4.0 - 8 * hostspeed.REFERENCE_S) * 0.5)

    def test_unsampled_time_is_scaled_with_the_interval(self):
        seconds, _ = hostspeed.scaled(0.5, 1.5, extra=0.2)
        self.assertAlmostEqual(seconds, (1.0 - 2 * hostspeed.REFERENCE_S + 0.2) * 0.5)

    def test_short_interval_uses_every_probe(self):
        seconds, factor = hostspeed.scaled(1.1, 1.2)
        self.assertAlmostEqual(factor, 0.5)
        self.assertAlmostEqual(seconds, 0.05)


if __name__ == "__main__":
    unittest.main()
