"""The host-speed sampler takes a probe each interval and scales by their mean.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402


class SamplerTests(unittest.TestCase):
    def test_scaled_time_drops_probes_and_scales_by_mean_share(self):
        sampler = hostspeed.Sampler()
        sampler.shares[:] = [0.5, 1.0]
        sampler.overhead_ns = 1_000_000
        self.assertEqual(sampler.scaled_ns(11_000_000), 7_500_000)

    def test_block_is_sampled_each_interval(self):
        with hostspeed.Sampler() as sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 12 * hostspeed.INTERVAL_S:
                sum(range(1000))
        self.assertGreaterEqual(len(sampler.shares), 6)
        self.assertTrue(all(share > 0 for share in sampler.shares))
        self.assertGreater(sampler.overhead_ns, 0)

    def test_short_block_takes_one_probe_after(self):
        sampler = hostspeed.Sampler()
        with sampler:
            pass
        self.assertGreater(sampler.scaled_ns(1000), 0)
        self.assertEqual(len(sampler.shares), 1)


if __name__ == "__main__":
    unittest.main()
