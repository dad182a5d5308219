"""Checks of the benchmark's oracle against the paper's own numbers and
against its defining identities.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import random
import unittest

import oracle as O

PHI = O.PAPER_PHI


class PaperNumbers(unittest.TestCase):
    def test_figure1_block(self):
        expected = {
            (0.05, 0.0): 0.38, (0.005, 0.0): 0.06,
            (0.05, 0.05): 0.57, (0.005, 0.05): 0.44,
            (0.05, 0.15): 0.75, (0.005, 0.15): 0.71,
        }
        for (alpha, h), want in expected.items():
            self.assertAlmostEqual(O.fpr(alpha, 0.2, PHI, h), want, delta=0.005)

    def test_rr_sound(self):
        self.assertAlmostEqual(O.rr(0.05, 0.2, PHI), 0.615, delta=0.005)

    def test_psych_rep_root(self):
        h = O.fit_h(36 / 97, 0.05, 0.2, PHI)
        self.assertAlmostEqual(h, 0.072, delta=0.001)
        self.assertAlmostEqual(O.rr(0.05, 0.2, PHI, h), 36 / 97, delta=1e-12)

    def test_doubling_threshold(self):
        psi, ok = O.solve_psi(2.0, (0.005, 0.2, PHI), (0.05, 0.2, PHI), 0.15)
        self.assertTrue(ok)
        self.assertAlmostEqual(psi, 0.397, delta=0.001)


class Identities(unittest.TestCase):
    def setUp(self):
        self.rng = random.Random(7)

    def draw(self):
        r = self.rng
        return r.uniform(1e-3, 0.2), r.uniform(0.05, 0.9), r.uniform(0.1, 0.95), r.uniform(0, 0.9)

    def test_table_sums_to_one_and_rates_complement(self):
        for _ in range(500):
            alpha, beta, phi, h = self.draw()
            psi = self.rng.random()
            self.assertAlmostEqual(sum(O.table(alpha, beta, phi, h, psi).values()), 1.0, delta=1e-12)
            self.assertAlmostEqual(O.fpr(alpha, beta, phi, h, psi) + O.rr(alpha, beta, phi, h, psi),
                                   1.0, delta=1e-12)

    def test_fit_h_inverts_rr(self):
        for _ in range(500):
            alpha, beta, phi, h = self.draw()
            self.assertAlmostEqual(O.fit_h(O.rr(alpha, beta, phi, h), alpha, beta, phi), h, delta=1e-9)
        with self.assertRaises(O.NoRoot):
            O.fit_h(O.rr(0.05, 0.2, PHI) + 1e-6, 0.05, 0.2, PHI)
        with self.assertRaises(O.NoRoot):
            O.fit_h(0.0, 0.05, 0.2, PHI)

    def test_solve_psi_inverts_ratio(self):
        for _ in range(500):
            _, beta, phi, h = self.draw()
            h = max(h, 0.01)
            new, old = (0.005, beta, phi), (0.05, 0.2, phi)
            psi = self.rng.random()
            got, ok = O.solve_psi(O.rr_ratio(new, old, h, psi), new, old, h)
            self.assertTrue(ok)
            self.assertAlmostEqual(got, psi, delta=1e-9)
        new, old = (0.005, 0.2, PHI), (0.05, 0.2, PHI)
        self.assertEqual(O.solve_psi(O.rr_ratio(new, old, 0.1, 0.0) * 1.1, new, old, 0.1), (0.0, False))
        self.assertEqual(O.solve_psi(O.rr_ratio(new, old, 0.1, 1.0) * 0.9, new, old, 0.1), (1.0, False))

    def test_clustered_strata_partition_the_pooled_model(self):
        # Strata that tile [0, alpha) hold all significant sound mass and,
        # in the top stratum, every hacked result: their masses add up to
        # the pooled model's.
        for _ in range(200):
            alpha, beta, phi, h = self.draw()
            cuts = sorted(self.rng.uniform(0, alpha) for _ in range(2))
            bounds = [0.0, *cuts, alpha]
            tp = fp = 0.0
            for lo, hi in zip(bounds, bounds[1:]):
                s_tp, s_fp, holds = O.stratum_masses(lo, hi, alpha, beta, phi)
                tp, fp = tp + s_tp, fp + s_fp
                self.assertEqual(holds, hi == alpha)
            self.assertAlmostEqual(tp, (1 - beta) * (1 - phi), delta=1e-12)
            self.assertAlmostEqual(fp, alpha * phi, delta=1e-12)

    def test_clustered_root_inverts_rate(self):
        for _ in range(200):
            alpha, beta, phi, h = self.draw()
            lo = self.rng.uniform(0, alpha)
            rate = O.clustered_rate(lo, alpha, alpha, beta, phi, h)
            self.assertAlmostEqual(O.clustered_root(lo, alpha, alpha, beta, phi, rate), h, delta=1e-9)
        with self.assertRaises(O.NoRoot):
            O.clustered_root(0.0, 0.005, 0.05, 0.2, PHI, 0.5)

    def test_figure_grids(self):
        self.assertEqual([len(O.figure_rows(f, 0.05)) for f in range(1, 6)], [570, 190, 201, 380, 399])
        for row in O.figure_rows(2):
            self.assertAlmostEqual(row[2] + row[3], 1.0, delta=1e-12)

    def test_binomial_bound(self):
        self.assertGreater(O.binomial_z_bound(6), 6.0)
        self.assertEqual(O.cell_z(0, 100, 0.0), 0.0)
        self.assertEqual(O.cell_z(1, 100, 0.0), float("inf"))


if __name__ == "__main__":
    unittest.main()
