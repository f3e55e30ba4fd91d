"""The three workloads: seeded input generators, the end-to-end
measurement loop, and the correctness checks of every run.

A workload is made of *batches*. Batch `k` of seed `n` is generated from
`(workload, n, k)` alone, so the same seed always gives the same inputs.
The seed varies values only: every batch of a workload holds the same
number of ops, and grids are stratified so the work per batch barely
moves with the seed.
"""

import json
import math
import os
import random
import time

from common import (
    WORK,
    is_bound,
    max_reported_percentile,
    median,
    not_above,
    parse_bound,
    parse_mix_sweep,
    parse_validate,
    percentile,
    spawn,
)

PINNED_SEED = 1
REFERENCE_DIR = os.path.join("perfbench", "reference")
SETUP_REPEATS = 31


def rng(workload, seed, batch):
    return random.Random(f"perfbench/{workload}/{seed}/{batch}")


def write_json(name, obj):
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, name)
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


# ---------------------------------------------------------------- mix-sweep

MIX_HOPS = [10, 5, 2]  # the long paths first, so two workers finish together
MIX_COLUMNS = ["BMUX", "FIFO", "EDF(d0<dc)", "EDF(d0>dc)"]
MIX_THREADS = 2


def gen_mix(seed, batch, hops=None):
    """A Fig. 3-shaped mix sweep over H ∈ {10, 5, 2}: U within ±2% of
    50% and one traffic mix Uc/U in [40, 49]%, both drawn per batch."""
    r = rng("mix-sweep", seed, batch)
    u = round(0.48 + 0.04 * r.random(), 3)
    mix = 40 + r.randrange(10)
    return {
        "name": f"mix-{seed}-{batch}",
        "experiment": "mix_sweep",
        "params": {
            "hops": hops or MIX_HOPS,
            "u_total": u,
            "mix_start": mix,
            "mix_stop": mix,
            "mix_step": 10,
            "edf_ratio_short": 2.0,
            "edf_ratio_long": 0.5,
            "epsilon": 1e-9,
        },
    }


def mix_ops(scenario):
    p = scenario["params"]
    mixes = len(range(p["mix_start"], p["mix_stop"] + 1, p["mix_step"]))
    return len(p["hops"]) * mixes * len(MIX_COLUMNS)


def check_mix(stdout, code, scenario):
    """(bounds checked, failures, printed bounds) for one sweep run."""
    expected = mix_ops(scenario)
    rows = parse_mix_sweep(stdout)
    bounds = [b for row in rows for b in row[4]]
    if code != 0 or len(bounds) != expected:
        return expected, expected, bounds
    failed = 0
    for _, _, _, _, (bmux, fifo, edf_short, edf_long) in rows:
        ok = all(is_bound(b) for b in (bmux, fifo, edf_short, edf_long))
        # FIFO ≤ BMUX; EDF with the shorter through deadline (Δ < 0)
        # ≤ FIFO; EDF with the longer one (Δ > 0) ≤ BMUX.
        ok = ok and not_above(fifo, bmux, 2) and not_above(edf_short, fifo, 2)
        ok = ok and not_above(edf_long, bmux, 2)
        failed += 0 if ok else 4
    return expected, failed, bounds


# ------------------------------------------------------------- path-queries

BLOCK = 20  # instances per batch; each is queried twice
FLOW_MEAN = 0.15  # Mbps per MMOO flow: U = N·FLOW_MEAN/C at C = 100 Mbps
MIN_QUERIES = 120  # ≥ 10 queries beyond p90
QUERY_SCHEDS = ["fifo", "sp", "delta"]


def gen_queries(seed, batch):
    """One batch: BLOCK instances, each queried under BMUX and under one
    of FIFO / SP / delta:v, so `X ≤ BMUX` is checkable on every instance.

    H is drawn with density ∝ H on [1, 30] (long paths weigh more) and U
    uniform on [0.1, 0.9], both stratified over the batch so that every
    seed puts the same number of instances in each stratum."""
    r = rng("path-queries", seed, batch)
    hs = [max(1, math.ceil(30 * math.sqrt((i + r.random()) / BLOCK))) for i in range(BLOCK)]
    us = [0.1 + 0.8 * (i + r.random()) / BLOCK for i in range(BLOCK)]
    r.shuffle(us)
    scheds = [QUERY_SCHEDS[i % len(QUERY_SCHEDS)] for i in range(BLOCK)]
    r.shuffle(scheds)
    queries = []
    for h, u, s in zip(hs, us, scheds):
        n_total = max(2, round(u * 100.0 / FLOW_MEAN))
        share = 0.1 + 0.8 * r.random()
        n_cross = min(n_total - 1, max(1, round(share * n_total)))
        eps = f"{r.randint(1, 9)}e-{r.randint(3, 9)}"
        if s == "delta":
            s = f"delta:{r.uniform(-20.0, 20.0):.3f}"
        inst = {"hops": h, "through": n_total - n_cross, "cross": n_cross, "eps": eps}
        pair = [dict(inst, sched="bmux"), dict(inst, sched=s)]
        r.shuffle(pair)
        queries.append(pair)
    r.shuffle(queries)
    return [q for pair in queries for q in pair]


def query_cmd(binary, q):
    return [
        binary,
        "bound",
        "--hops",
        str(q["hops"]),
        "--through",
        str(q["through"]),
        "--cross",
        str(q["cross"]),
        "--eps",
        q["eps"],
        "--sched",
        q["sched"],
    ]


def check_queries(queries, results):
    """results[i] = (exit code, printed bound or None). Returns the
    number of failed queries: a query fails if it did not exit 0 or
    printed no finite positive bound, and both queries of an instance
    fail if the non-BMUX bound exceeds the BMUX one."""
    failed = 0
    for i in range(0, len(queries), 2):
        pair = [(queries[j], results[j]) for j in (i, i + 1)]
        good = [code == 0 and is_bound(b) for _, (code, b) in pair]
        if all(good):
            bmux = next(b for q, (_, b) in pair if q["sched"] == "bmux")
            other = next(b for q, (_, b) in pair if q["sched"] != "bmux")
            if not not_above(other, bmux, 3):
                good = [False, False]
        failed += good.count(False)
    return failed


# --------------------------------------------------------------- montecarlo

MC_THREADS = 2
MC_REPS = 4
MC_SLOTS = 60_000
MC_SCHEDULERS = [
    ("FIFO", "fifo"),
    ("BMUX", "bmux"),
    ("SP(through hi)", "sp"),
    ("EDF(10,40)", "edf:10,40"),
    ("GPS(1:1)", "gps:1,1"),
]
MC_HOPS = [1, 2, 4]
MC_OPS = len(MC_HOPS) * len(MC_SCHEDULERS) * MC_REPS


def gen_mc(seed, batch):
    """validate's scenario at a fixed size; the seed only picks the
    master seed of the Monte Carlo replications."""
    master = rng("montecarlo", seed, batch).getrandbits(48)
    scenario = {
        "name": "validate",
        "experiment": "validate",
        "params": {
            "capacity": 20.0,
            "epsilon": 1e-3,
            "sections": [{"hops": h, "through": 40, "cross": 60} for h in MC_HOPS],
            "schedulers": [{"label": l, "sched": s} for l, s in MC_SCHEDULERS],
            "minplus_hops": 4,
        },
        "sim": {"reps": MC_REPS, "slots": MC_SLOTS},
    }
    return scenario, master


def check_mc(stdout, code):
    """(replications checked, failures, parsed cells). A cell's
    replications fail together if the cell is missing, its bound is not
    finite and positive, the simulated quantile exceeds it (`valid` is
    not yes), or FIFO > BMUX in its section."""
    cells, verdict = parse_validate(stdout)
    if code != 0 or verdict != "consistent":
        return MC_OPS, MC_OPS, cells
    failed = 0
    for h in MC_HOPS:
        for label, _ in MC_SCHEDULERS:
            cell = cells.get((h, label))
            ok = cell is not None and is_bound(cell[0]) and cell[2] == "yes"
            if ok and label == "FIFO":
                bmux = cells.get((h, "BMUX"))
                ok = bmux is not None and is_bound(bmux[0]) and not_above(cell[0], bmux[0], 2)
            failed += 0 if ok else MC_REPS
    return MC_OPS, failed, cells


# ------------------------------------------------------------ reference data


def load_reference(workload):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path) as f:
        return json.load(f)


def pinned_outputs(workload, binaries, subset=None):
    """The printed results of the pinned seed's first batch, in the
    reference file's layout. `subset` restricts it: a list of path
    lengths for mix-sweep, a number of queries for path-queries."""
    if workload == "mix-sweep":
        sc = gen_mix(PINNED_SEED, 0, subset)
        p = spawn([binaries["linksched"], "run", write_json("pin.json", sc), "--threads", "2"])
        return {"bounds": [[h, mix] + b for h, mix, _, _, b in parse_mix_sweep(p.out)]}
    if workload == "path-queries":
        qs = gen_queries(PINNED_SEED, 0)[:subset]
        return {"bounds": [parse_bound(spawn(query_cmd(binaries["linksched"], q)).out) for q in qs]}
    sc, master = gen_mc(PINNED_SEED, 0)
    p = spawn(mc_cmd(binaries["linksched"], write_json("pin.json", sc), master))
    cells, _ = parse_validate(p.out)
    return {"cells": sorted([h, l, *v] for (h, l), v in cells.items())}


def reference_failures(workload, binaries, seed, outputs):
    """Compares against the stored reference at the printed precision.

    Every run checks a small pinned slice; a run with the pinned seed
    also checks all of its first batch (`outputs`). Returns the number
    of mismatching bounds."""
    ref = load_reference(workload)
    if workload == "mix-sweep":
        got = pinned_outputs(workload, binaries, subset=[2])["bounds"]
        want = [row for row in ref["bounds"] if row[0] == 2]
        bad = sum(a != b for a, b in zip(got, want)) * 4 + abs(len(got) - len(want)) * 4
        if seed == PINNED_SEED:
            rows = [[h, mix] + b for h, mix, _, _, b in outputs]
            bad += sum(a != b for a, b in zip(rows, ref["bounds"])) * 4
            bad += abs(len(rows) - len(ref["bounds"])) * 4
        return bad
    if workload == "path-queries":
        n = 4
        got = pinned_outputs(workload, binaries, subset=n)["bounds"]
        bad = sum(a != b for a, b in zip(got, ref["bounds"][:n]))
        if seed == PINNED_SEED:
            bad += sum(a != b for a, b in zip(outputs, ref["bounds"]))
            bad += abs(len(outputs) - len(ref["bounds"]))
        return bad
    # montecarlo: the analytical bounds do not depend on the seed, so
    # every run checks all of them; the simulated quantiles are checked
    # under the pinned seed.
    want = {(h, l): (b, q) for h, l, b, q, _ in ref["cells"]}
    bad = 0
    for key, (b, q, _) in outputs.items():
        ref_b, ref_q = want.get(key, (None, None))
        if b != ref_b or (seed == PINNED_SEED and q != ref_q):
            bad += MC_REPS
    bad += abs(len(outputs) - len(want)) * MC_REPS
    return bad


def mc_cmd(binary, path, master, threads=MC_THREADS):
    return [binary, "run", path, "--threads", str(threads), "--seed", str(master)]


# ------------------------------------------------------------ end to end


def setup_time(workload, seed, binaries):
    """Median over SETUP_REPEATS of the time before the first op can
    start: input generation, binary start-up and scenario parse. For
    the scenario workloads `run <file> --help` loads and validates the
    scenario, then exits 2 without running it."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if workload == "path-queries":
            gen_queries(seed, 0)
            p = spawn([binaries["linksched"], "help"])
            ok = p.code == 0
        else:
            sc = gen_mix(seed, 0) if workload == "mix-sweep" else gen_mc(seed, 0)[0]
            p = spawn([binaries["linksched"], "run", write_json("setup.json", sc), "--help"])
            ok = p.code == 2 and "unknown option" not in p.err
        samples.append(time.perf_counter() - t0)
        if not ok:
            raise RuntimeError(f"set-up probe failed (exit {p.code}): {p.err.strip()}")
    return median(samples)


def run_batch(workload, seed, batch, binaries):
    """Runs one batch. Returns (ops, failures, per-op latencies, peak
    RSS in MB, CPU/wall, printed results for the reference check)."""
    if workload == "path-queries":
        qs = gen_queries(seed, batch)
        procs = [spawn(query_cmd(binaries["linksched"], q)) for q in qs]
        results = [(p.code, parse_bound(p.out)) for p in procs]
        return (len(qs), check_queries(qs, results), [p.wall for p in procs],
                max(p.maxrss_mb for p in procs), median([p.cpu / p.wall for p in procs]),
                [b for _, b in results])
    if workload == "mix-sweep":
        sc = gen_mix(seed, batch)
        p = spawn([binaries["linksched"], "run", write_json("batch.json", sc),
                   "--threads", str(MIX_THREADS)])
        n, bad, _ = check_mix(p.out, p.code, sc)
        printed = parse_mix_sweep(p.out)
    else:
        sc, master = gen_mc(seed, batch)
        p = spawn(mc_cmd(binaries["linksched"], write_json("batch.json", sc), master))
        n, bad, printed = check_mc(p.out, p.code)
    # A batch program prints its bounds at the end, so an op's latency
    # is only observable as the invocation's time per op.
    return n, bad, [p.wall / n], p.maxrss_mb, p.cpu / p.wall, printed


def run_end_to_end(workload, seed, seconds, binaries):
    """Measures `workload` for at least `seconds`, in whole batches.

    Throughput is the median over batches of ops per second of batch
    wall time; latency percentiles pool every op of the run (every
    invocation for the batch workloads). Returns (metrics, attempted,
    failed, meta)."""
    setup_s = setup_time(workload, seed, binaries)
    lat, rates, rss, cpu_wall = [], [], [], []
    attempted = failed = 0
    first = None
    t0 = time.perf_counter()
    batch = 0
    while True:
        tb = time.perf_counter()
        n, bad, op_lat, peak, cpu, printed = run_batch(workload, seed, batch, binaries)
        rates.append(n / (time.perf_counter() - tb))
        lat += op_lat
        rss.append(peak)
        cpu_wall.append(cpu)
        first = printed if first is None else first
        attempted += n
        failed += bad
        batch += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and (workload != "path-queries" or attempted >= MIN_QUERIES):
            break
    # The pinned-seed reference check runs outside the timed window.
    wrong = reference_failures(workload, binaries, seed, first)
    failed = min(attempted, failed + wrong)
    metrics = {
        "ops_per_s": (median(rates), "1/s"),
        "op_p50_ms": (1e3 * percentile(lat, 0.5), "ms"),
        "op_p90_ms": (1e3 * percentile(lat, 0.9), "ms"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (setup_s, "s"),
    }
    meta = {
        "batches": batch,
        "elapsed_s": elapsed,
        "latency_samples": len(lat),
        "latency_unit": "query" if workload == "path-queries" else "invocation time per op",
        "max_reported_percentile": max_reported_percentile(len(lat)),
        "failed_frac": failed / attempted,
        "reference_mismatches": wrong,
        "threads_requested": {"mix-sweep": MIX_THREADS, "montecarlo": MC_THREADS}.get(workload, 1),
        "cpu_per_wall": median(cpu_wall),
    }
    return metrics, attempted, failed, meta
