"""Benchmark-local tests: seeded generators, the percentile rule, the
`--metrics-out`/stdout parsers, the correctness checks and the
self-time attribution. They need no build:

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import common  # noqa: E402
import layers  # noqa: E402
import workloads as w  # noqa: E402


class Generators(unittest.TestCase):
    SEEDS = [0, 1, 2, 17, 123456]

    def test_same_seed_same_inputs(self):
        for seed in self.SEEDS:
            self.assertEqual(w.gen_mix(seed, 3), w.gen_mix(seed, 3))
            self.assertEqual(w.gen_queries(seed, 3), w.gen_queries(seed, 3))
            self.assertEqual(w.gen_mc(seed, 3), w.gen_mc(seed, 3))

    def test_seed_and_batch_change_values(self):
        self.assertNotEqual(w.gen_queries(1, 0), w.gen_queries(2, 0))
        self.assertNotEqual(w.gen_queries(1, 0), w.gen_queries(1, 1))
        self.assertNotEqual(w.gen_mc(1, 0)[1], w.gen_mc(2, 0)[1])
        mixes = {w.gen_mix(s, 0)["params"]["u_total"] for s in self.SEEDS}
        self.assertGreater(len(mixes), 1)

    def test_different_seeds_same_amount_of_work(self):
        for seed in self.SEEDS:
            sc = w.gen_mix(seed, 0)
            self.assertEqual(w.mix_ops(sc), 12)
            self.assertEqual(sc["params"]["hops"], w.MIX_HOPS)
            self.assertTrue(0.48 <= sc["params"]["u_total"] <= 0.52)
            qs = w.gen_queries(seed, 0)
            self.assertEqual(len(qs), 2 * w.BLOCK)
            # H is stratified: instance i's H lies in stratum i of the
            # density-∝-H distribution, so the multiset barely moves.
            hs = sorted(q["hops"] for q in qs[::2])
            lows = [max(1, int(30 * (i / w.BLOCK) ** 0.5)) for i in range(w.BLOCK)]
            highs = [int(-(-30 * ((i + 1) / w.BLOCK) ** 0.5 // 1)) for i in range(w.BLOCK)]
            for h, lo, hi in zip(hs, lows, highs):
                self.assertTrue(lo <= h <= hi, (h, lo, hi))
            mc, _ = w.gen_mc(seed, 0)
            self.assertEqual(mc, w.gen_mc(0, 0)[0])

    def test_queries_pair_every_instance_with_bmux(self):
        qs = w.gen_queries(5, 0)
        for i in range(0, len(qs), 2):
            a, b = qs[i], qs[i + 1]
            self.assertEqual({k: a[k] for k in a if k != "sched"},
                             {k: b[k] for k in b if k != "sched"})
            self.assertEqual(sorted([a["sched"] == "bmux", b["sched"] == "bmux"]), [False, True])
            for q in (a, b):
                self.assertTrue(1 <= q["hops"] <= 30)
                self.assertGreaterEqual(q["through"], 1)
                self.assertGreaterEqual(q["cross"], 1)


class Percentiles(unittest.TestCase):
    def test_interpolation(self):
        self.assertEqual(common.percentile([3, 1, 2], 0.5), 2)
        self.assertEqual(common.percentile([1, 2, 3, 4], 0.5), 2.5)
        self.assertAlmostEqual(common.percentile(list(range(11)), 0.9), 9.0)
        self.assertIsNone(common.percentile([], 0.5))

    def test_ten_samples_beyond_the_reported_percentile(self):
        self.assertIsNone(common.max_reported_percentile(10))
        for n in (11, 40, 100, 120, 1000):
            p = common.max_reported_percentile(n)
            self.assertGreaterEqual(n - p * n, 10 - 1e-9, n)
        # The path-queries run is sized so that p90 is reportable.
        self.assertGreaterEqual(common.max_reported_percentile(w.MIN_QUERIES), 0.9)


PROM = """# HELP core_solver_calls_total solver calls
# TYPE core_solver_calls_total counter
core_solver_calls_total 1436011
core_s_evals_total 1836
sim_node_queue_depth_count{node="0"} 3000000
sim_node_queue_depth_count{node="1"} 2000000
core_solver_seconds_bucket{le="+Inf"} 12
"""

BOUND_OUT = """H = 10, C = 100 Mbps, N0 = 150, Nc = 200 (U = 52.0%), scheduler FIFO
P(W > 155.819 ms) < 1e-7   [s = 0.0444, γ = 0.2992, σ = 6537.8 kb]
"""

MIX_OUT = """# N_total = 333, eps = 1e-9

## H = 10
  Uc/U     N0     Nc       BMUX       FIFO   EDF(d0<dc)   EDF(d0>dc)
  0.47    177    156     142.93     142.63       131.06       142.93

## H = 2
  Uc/U     N0     Nc       BMUX       FIFO   EDF(d0<dc)   EDF(d0>dc)
  0.47    177    156      32.12      31.83        22.12        32.12
"""

VALIDATE_OUT = """# Analytical bounds vs simulation (C = 20 kb/ms, eps = 1e-3)

## H = 1, N0 = 40, Nc = 60 (U ≈ 74%)
         scheduler      bound sim q(1-eps)          q spread   P(W>bound)              P spread          valid
              FIFO      59.88         9.00     [7.00, 11.00]       0.00e0        [0.0e0, 0.0e0]            yes
    SP(through hi)      59.88         0.00      [0.00, 0.00]       0.00e0        [0.0e0, 0.0e0]            yes
          GPS(1:1)     148.85         8.00      [6.00, 9.00]          n/a                   n/a  yes (vs BMUX)

# min-plus cross-check (H = 4, BMUX, leaky buckets): optimizer 6.363636 vs convolution pipeline 6.363636 -> consistent
"""


class Parsers(unittest.TestCase):
    def test_prometheus(self):
        m = common.parse_prometheus(PROM)
        self.assertEqual(m["core_solver_calls_total"], 1436011)
        self.assertEqual(common.series_sum(m, "sim_node_queue_depth_count"), 5e6)
        self.assertEqual(common.series_sum(m, "core_s_evals_total"), 1836)
        self.assertIsNone(common.series_sum(m, "core_edf_fixed_point_iterations_total"))
        # A prefix of another metric's name is not that metric.
        self.assertIsNone(common.series_sum(m, "core_solver"))

    def test_missing_counter_is_absent_not_zero(self):
        c = layers.core_counts(common.parse_prometheus(PROM), edf_expected=True)
        self.assertIsNone(c["edf_iterations"])
        self.assertIsNone(c["cache_hits"])
        self.assertEqual(layers.core_counts({}, edf_expected=False)["edf_iterations"], 0.0)
        only_misses = {"core_solver_cache_misses_total": 7.0}
        c = layers.core_counts(only_misses, edf_expected=False)
        self.assertEqual((c["cache_hits"], c["cache_misses"]), (0.0, 7.0))

    def test_bound(self):
        self.assertEqual(common.parse_bound(BOUND_OUT), "155.819")
        self.assertIsNone(common.parse_bound("error: infeasible\n"))

    def test_mix_sweep(self):
        rows = common.parse_mix_sweep(MIX_OUT)
        self.assertEqual(rows[0], (10, "0.47", 177, 156, ["142.93", "142.63", "131.06", "142.93"]))
        self.assertEqual(rows[1][0], 2)

    def test_validate(self):
        cells, verdict = common.parse_validate(VALIDATE_OUT)
        self.assertEqual(verdict, "consistent")
        self.assertEqual(cells[(1, "FIFO")], ("59.88", "9.00", "yes"))
        self.assertEqual(cells[(1, "SP(through hi)")], ("59.88", "0.00", "yes"))
        self.assertEqual(cells[(1, "GPS(1:1)")], ("148.85", "8.00", "yes"))


class Checks(unittest.TestCase):
    def test_queries(self):
        qs = [{"sched": "bmux"}, {"sched": "fifo"}, {"sched": "sp"}, {"sched": "bmux"}]
        ok = [(0, "10.000"), (0, "9.999"), (0, "5.0"), (0, "6.0")]
        self.assertEqual(w.check_queries(qs, ok), 0)
        # FIFO above BMUX fails both queries of the instance.
        self.assertEqual(w.check_queries(qs, [(0, "10.000"), (0, "10.500"), (0, "5"), (0, "6")]), 2)
        # A non-zero exit or a missing bound fails that query.
        self.assertEqual(w.check_queries(qs, [(7, None), (0, "9.0"), (0, "inf"), (0, "6")]), 2)

    def test_mix(self):
        sc = w.gen_mix(1, 0, [10, 2])
        self.assertEqual(w.check_mix(MIX_OUT, 0, sc)[:2], (8, 0))
        self.assertEqual(w.check_mix(MIX_OUT, 6, sc)[:2], (8, 8))
        broken = MIX_OUT.replace("142.63", "150.00")  # FIFO above BMUX
        self.assertEqual(w.check_mix(broken, 0, sc)[:2], (8, 4))


class CoSchedule(unittest.TestCase):
    def test_every_command_finishes_its_runs_and_none_is_left(self):
        cmds = [[sys.executable, "-c", f"print({i})"] for i in (1, 2)]
        a, b = common.co_schedule(cmds, 2)
        self.assertGreaterEqual(len(a), 2)
        self.assertGreaterEqual(len(b), 2)
        self.assertEqual({(p.out, p.code) for p in a}, {("1\n", 0)})
        self.assertEqual({(p.out, p.code) for p in b}, {("2\n", 0)})
        with self.assertRaises(ChildProcessError):
            os.wait()


class Attribution(unittest.TestCase):
    def rec(self, top, search, sigma, solve, path_at=1e-7):
        return {"t_top": top, "t_search": search, "t_sigma": sigma, "t_solve": solve,
                "t_path_at": path_at}

    def test_without_cache_hits_self_times_add_up_to_the_top_call(self):
        c = {"s_evals": 51, "gamma_searches": 51, "gamma_evals": 51 * 78,
             "sigma_calls": 51 * 78, "eq38_solves": 51 * 78}
        r = self.rec(top=0.1, search=1.9e-3, sigma=1e-6, solve=2.2e-5)
        selfs = layers.attribute(c, [r], [])
        self.assertAlmostEqual(sum(selfs.values()), 0.1)
        self.assertAlmostEqual(selfs["core.eq38.self_s"], 51 * 78 * 2.2e-5)
        self.assertEqual(selfs["core.edf_fixed_point.self_s"], 0.0)

    def test_cache_hits_remove_solver_time(self):
        c = {"s_evals": 51, "gamma_searches": 51, "gamma_evals": 51 * 78,
             "sigma_calls": 51 * 60, "eq38_solves": 51 * 60}
        r = self.rec(top=0.1, search=1.9e-3, sigma=1e-6, solve=2.2e-5)
        selfs = layers.attribute(c, [r], [])
        self.assertAlmostEqual(sum(selfs.values()), 0.1 - 51 * 18 * (1e-6 + 2.2e-5))

    def test_absent_counter_gives_no_attribution(self):
        c = {"s_evals": None, "gamma_searches": 1, "gamma_evals": 1, "sigma_calls": 1,
             "eq38_solves": 1}
        self.assertIsNone(layers.attribute(c, [self.rec(1, 1, 1, 1)], []))

    def test_tracer_records_average_key_by_key(self):
        rounds = [[{"t": 1.0}, {"t": 5.0}], [{"t": 3.0}, {"t": 7.0}]]
        self.assertEqual(layers.mean_records(rounds), [{"t": 2.0}, {"t": 6.0}])


if __name__ == "__main__":
    unittest.main()
