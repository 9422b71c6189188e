"""Each output check accepts chaintop's real output and rejects a corrupted one.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import CLAIM_IDS, WORKLOADS, CheckFailed, Session  # noqa: E402


def _real(workload: str, op_index: int):
    """One real op of the workload at seed 0: (workload, op, result)."""
    w = WORKLOADS[workload]
    tmp = tempfile.TemporaryDirectory()
    workdir = Path(tmp.name)
    pool = w.make_inputs(0, workdir)
    op = pool[0][op_index]
    session = Session(run.import_chaintop(), workdir)
    result = w.run(session, op)
    w.check(op, result)  # the real output passes
    return w, op, result, tmp


class CheckCase(unittest.TestCase):
    workload = ""
    op_index = 0

    @classmethod
    def setUpClass(cls):
        cls.w, cls.op, cls.result, cls._tmp = _real(cls.workload, cls.op_index)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def rejects(self, index: int, value) -> None:
        corrupted = list(self.result)
        corrupted[index] = value
        with self.assertRaises(CheckFailed):
            self.w.check(self.op, tuple(corrupted))


def _drop_open(text: str) -> str:
    doc = json.loads(text)
    doc["opens"] = doc["opens"][:-1]
    return json.dumps(doc)


class TopologyChecks(CheckCase):
    workload = "topology"
    op_index = 1

    def test_make_family_missing_an_open(self):
        made = dict(self.result[0], scott=_drop_open(self.result[0]["scott"]))
        self.rejects(0, made)

    def test_make_family_with_a_foreign_open(self):
        doc = json.loads(self.result[0]["order"])
        doc["opens"][-1] = doc["opens"][-1][:-1]
        self.rejects(0, dict(self.result[0], order=json.dumps(doc)))

    def test_join_missing_an_open(self):
        self.rejects(1, _drop_open(self.result[1]))

    def test_equal_says_false(self):
        self.rejects(2, (1, "false\n"))

    def test_report_flips_normality(self):
        rc, text = self.result[3]
        doc = json.loads(text)
        doc["normal"] = not doc["normal"]
        self.rejects(3, (rc, json.dumps(doc)))

    def test_product_missing_an_open(self):
        opens = set(self.result[5])
        opens.discard(max(opens))
        self.rejects(5, frozenset(opens))


class OrderChainChecks(CheckCase):
    workload = "order"
    op_index = 0

    def test_classify_flag_flipped(self):
        rc, text = self.result[0]
        doc = json.loads(text)
        doc["is_lattice"] = not doc["is_lattice"]
        self.rejects(0, (rc, json.dumps(doc)))

    def test_maxchains_entry_not_maximal(self):
        rc, text = self.result[1]
        chains = json.loads(text)
        chains[0] = chains[0][:-1]
        self.rejects(1, (rc, json.dumps(chains)))

    def test_waybelow_flipped(self):
        rc, text = self.result[2][0]
        flipped = json.dumps(not json.loads(text)) + "\n"
        self.rejects(2, ((rc, flipped),) + self.result[2][1:])

    def test_way_below_report_row(self):
        ll = list(self.result[4])
        ll[0] &= ~1  # 0 no longer way-below itself
        self.rejects(4, tuple(ll))

    def test_compact_mask(self):
        self.rejects(5, self.result[5] >> 1)

    def test_completely_distributive_flipped(self):
        self.rejects(6, not self.result[6])

    def test_corollary3_report(self):
        self.rejects(7, dict(self.result[7], cond1=True))


class OrderPosetChecks(CheckCase):
    workload = "order"
    op_index = 2

    def test_maxchains_missing_a_chain(self):
        rc, text = self.result[1]
        self.rejects(1, (rc, json.dumps(json.loads(text)[1:])))

    def test_www_flipped(self):
        rc, text = self.result[3][0]
        flipped = json.dumps(not json.loads(text)) + "\n"
        self.rejects(3, ((rc, flipped),) + self.result[3][1:])


class SuiteChecks(unittest.TestCase):
    def setUp(self):
        self.w = WORKLOADS["suite"]
        claims = [{"claim": c, "instances": 3, "verdict": "pass"} for c in CLAIM_IDS]
        self.doc = {"config": {"seed": 7, "max_n": 7}, "claims": claims, "passed": True}

    def check(self, rc, doc):
        self.w.check(7, (rc, json.dumps(doc)))

    def test_well_formed_report_passes(self):
        self.check(0, self.doc)

    def test_exit_code(self):
        with self.assertRaises(CheckFailed):
            self.check(1, self.doc)

    def test_missing_claim(self):
        with self.assertRaises(CheckFailed):
            self.check(0, dict(self.doc, claims=self.doc["claims"][1:]))

    def test_claim_without_instances(self):
        self.doc["claims"][0]["instances"] = 0
        with self.assertRaises(CheckFailed):
            self.check(0, self.doc)

    def test_not_passed(self):
        with self.assertRaises(CheckFailed):
            self.check(0, dict(self.doc, passed=False))

    def test_fault_that_breaks_nothing(self):
        class Passing:
            def call(self, *argv):
                broken = argv[argv.index("--claims") + 1].split(",")
                return 0, json.dumps({"claims": [{"claim": c, "verdict": "pass"} for c in broken]})

        with self.assertRaises(CheckFailed):
            self.w.check_once(Passing(), [[7]])


class OracleSelfChecks(unittest.TestCase):
    def test_chain_has_one_maximal_chain_and_antichain_n(self):
        chain = oracle.close_order(4, [(0, 1), (1, 2), (2, 3)])
        self.assertEqual(oracle.maximal_chain_count(chain), 1)
        self.assertEqual(oracle.maximal_chain_count(oracle.close_order(3, [])), 3)

    def test_diamond_is_not_completely_distributive(self):
        m3 = oracle.close_order(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        self.assertFalse(oracle.completely_distributive(m3))
        self.assertTrue(oracle.completely_distributive(oracle.close_order(3, [(0, 1), (1, 2)])))

    def test_upper_topology_of_two_chain_is_normal_not_t1(self):
        sep = oracle.separation(oracle.least_neighbourhoods(oracle.close_order(2, [(0, 1)]), "upper"))
        self.assertEqual(sep, {"t1": False, "hausdorff": False, "normal": True, "completely_normal": True})


if __name__ == "__main__":
    unittest.main()
