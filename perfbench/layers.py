"""The traced run (`--trace 1`): per-layer metrics for one workload.

It runs the workload's first batch several ways and combines three
sources, none of them inside the program:

* exact op counts from the program's own `--metrics-out` export;
* CPU times of the program run serially, and wall times of it run at
  two threads and built without telemetry;
* `perfbench-tracer`, which times the crates' public functions on the
  batch's own instances (whole s-searches, then the child functions at
  the witness s*/γ*; one replication of each simulated cell, then its
  parts).

A layer's self time is its calls (counted by the program) times its
cost per call (timed by the tracer), minus the time of the child layers
inside it. The coverage check requires the self times to add up to the
measured serial CPU time within COVERAGE_BOUND, so no cost hides
between layers.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import workloads as w
from common import (
    WORK,
    co_schedule,
    parse_bound,
    parse_mix_sweep,
    parse_prometheus,
    series_sum,
    spawn,
)

# The end-to-end bound of the timing metrics in BENCHMARK.json.
COVERAGE_BOUND = 0.25

# Tracer runs per mix-sweep cell and per montecarlo batch. The program
# and the tracer run together on one CPU (see `co_schedule`) and are
# compared by CPU time: machine speed on a shared host can change by 30%
# from one second to the next, and a program run against a tracer run
# taken one after the other has missed the coverage bound on noise alone.
TRACE_RUNS = 2

# Per-layer metric → unit, in report order.
UNITS = {
    "core.s_evals": "count",
    "core.gamma_searches": "count",
    "core.gamma_evals": "count",
    "core.eq38_solves": "count",
    "core.eq38_evals": "count",
    "core.eq38_evals_per_solve": "count",
    "core.edf_iterations": "count",
    "core.edf_iterations_per_bound": "count",
    "core.cache_hit_ratio": "ratio",
    "core.s_search.self_s": "s",
    "core.edf_fixed_point.self_s": "s",
    "core.gamma_search.self_s": "s",
    "core.sigma.self_s": "s",
    "core.eq38.self_s": "s",
    "core.eq38.us_per_solve": "us",
    "traffic.path_at.self_s": "s",
    "parallel_eff": "ratio",
    "sim.node_slots": "count",
    "sim.delay_samples": "count",
    "sim.step_ns_per_node_slot": "ns",
    "sim.source.self_s": "s",
    "sim.serve_slot_ns.fifo": "ns",
    "sim.serve_slot_ns.bmux": "ns",
    "sim.serve_slot_ns.sp": "ns",
    "sim.serve_slot_ns.edf": "ns",
    "sim.serve_slot_ns.gps": "ns",
    "sim.stats.record.self_s": "s",
    "sim.stats.merge_s": "s",
    "sim.stats.quantile_s": "s",
    "minplus.crosscheck_ms": "ms",
    "telemetry.overhead_frac": "ratio",
    "trace.serial_cpu_s": "s",
    "trace.attributed_frac": "ratio",
}

# Program counters behind the core counts.
CORE_COUNTERS = {
    "s_evals": "core_s_evals_total",
    "gamma_searches": "core_delay_bound_calls_total",
    "gamma_evals": "core_gamma_evals_total",
    "sigma_calls": "core_netbound_sigma_calls_total",
    "eq38_solves": "core_solver_calls_total",
    "eq38_evals": "core_solver_evals_total",
    "edf_iterations": "core_edf_fixed_point_iterations_total",
    "cache_hits": "core_solver_cache_hits_total",
    "cache_misses": "core_solver_cache_misses_total",
}


def core_counts(prom, edf_expected):
    """Program counters → counts; a missing counter is `None` (absent),
    except the EDF iterations of a workload that runs no EDF fixed
    point, and a cache family with one of its two counters exported
    (the other then simply never fired)."""
    c = {k: series_sum(prom, v) for k, v in CORE_COUNTERS.items()}
    if not edf_expected and c["edf_iterations"] is None:
        c["edf_iterations"] = 0.0
    if (c["cache_hits"] is None) != (c["cache_misses"] is None):
        c["cache_hits"] = c["cache_hits"] or 0.0
        c["cache_misses"] = c["cache_misses"] or 0.0
    return c


def add_counts(a, b):
    return {k: None if a.get(k) is None or b[k] is None else a[k] + b[k] for k in b}


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def attribute(c, plain, edf):
    """Self times of the analysis layers for one group of bounds.

    `c`: the program's counts for the group; `plain`/`edf`: tracer
    records of its plain s-searches and EDF s-searches. Returns
    {layer: seconds}, or `None` if a needed counter is absent."""
    need = ["s_evals", "gamma_searches", "gamma_evals", "sigma_calls", "eq38_solves"]
    if any(c[k] is None for k in need) or not plain:
        return None
    k = c["s_evals"] / (len(plain) + len(edf))  # s-evals per s-search
    searches = c["gamma_searches"]
    plain_searches = k * len(plain)
    edf_searches = max(0.0, searches - plain_searches)

    def leaf(recs, key, weights=None):
        if not recs:
            return 0.0
        weights = weights or [1.0] * len(recs)
        return sum(wt * r[key] for wt, r in zip(weights, recs)) / sum(weights)

    ew = [r["t_top"] for r in edf]  # EDF columns weighted by their time
    t = {key: (leaf(plain, key), leaf(edf, key, ew))
         for key in ("t_search", "t_sigma", "t_solve", "t_path_at")}

    def per(key):  # mean cost per γ-search's evaluation, over both kinds
        return (plain_searches * t[key][0] + edf_searches * t[key][1]) / searches

    evals = c["gamma_evals"] / searches  # γ-evaluations per γ-search
    gamma_self = sum(n * (t["t_search"][i] - evals * (t["t_sigma"][i] + t["t_solve"][i]))
                     for i, n in enumerate((plain_searches, edf_searches)))
    # s-loop bookkeeping per s-eval, net of path_at and the γ-search.
    s_over = mean([r["t_top"] / k - r["t_path_at"] - r["t_search"] for r in plain])
    edf_incl = sum(r["t_top"] for r in edf) - k * len(edf) * (t["t_path_at"][1] + s_over)
    return {
        "core.s_search.self_s": c["s_evals"] * s_over,
        "traffic.path_at.self_s": c["s_evals"] * mean([r["t_path_at"] for r in plain + edf]),
        "core.edf_fixed_point.self_s": edf_incl - edf_searches * t["t_search"][1] if edf else 0.0,
        "core.gamma_search.self_s": gamma_self,
        "core.sigma.self_s": c["sigma_calls"] * per("t_sigma"),
        "core.eq38.self_s": c["eq38_solves"] * per("t_solve"),
    }


def mean_records(rounds):
    """Tracer records averaged key by key over rounds of the same
    tasks."""
    return [{k: mean([r[i][k] for r in rounds]) for k in rec} for i, rec in enumerate(rounds[0])]


def add_selfs(a, b):
    if a is None or b is None:
        return None
    return {k: a.get(k, 0.0) + v for k, v in b.items()}


def tracer_cmd(binaries, tasks):
    """The tracer command for `tasks`, written to a task file."""
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "tasks.txt")
    with open(path, "w") as f:
        f.write("\n".join(tasks) + "\n")
    return [binaries["tracer"], path]


def records(p):
    """A finished tracer run's records."""
    if p.code != 0:
        raise RuntimeError(f"tracer failed: {p.err.strip()}")
    return [json.loads(line) for line in p.out.splitlines()]


def tracer(binaries, tasks):
    return records(spawn(tracer_cmd(binaries, tasks)))


def run_metrics(binary, scenario, args):
    """`linksched run` with `--metrics-out`: (process, parsed metrics)."""
    path = w.write_json("trace.json", scenario)
    prom = os.path.join(WORK, "trace.prom")
    if os.path.exists(prom):
        os.remove(prom)
    p = spawn([binary, "run", path, *args, "--metrics-out", prom])
    text = open(prom).read() if os.path.exists(prom) else ""
    return p, parse_prometheus(text)


# ------------------------------------------------------------ simulator


def mc_sim_tasks(seed, bounds):
    """Tracer tasks for one replication of every montecarlo cell."""
    tasks = []
    for i, h in enumerate(w.MC_HOPS):
        for j, (label, sched) in enumerate(w.MC_SCHEDULERS):
            tasks.append(f"sim 20 {h} 40 60 {sched} {w.MC_SLOTS} 10000 "
                         f"{(seed * 1000 + i * 10 + j) % (1 << 64)} {bounds[(h, label)]}")
    return tasks


def sim_layers(recs, reps):
    """Simulator self times for `reps` replications of each cell
    (records in MC_HOPS × MC_SCHEDULERS order)."""
    out = {k: 0.0 for k in ("rep", "source", "record", "merge", "quantile", "node_slots")}
    serve = {}
    cells = [(h, lab) for h in w.MC_HOPS for lab, _ in w.MC_SCHEDULERS]
    for (h, label), r in zip(cells, recs):
        slots = reps * w.MC_SLOTS
        out["rep"] += reps * r["t_rep"]
        out["source"] += slots * r["t_source_slot"]
        out["record"] += reps * r["samples"] * r["t_record"]
        out["merge"] += reps * r["t_merge"]
        out["quantile"] += (1 + reps) * r["t_quantile"]
        out["node_slots"] += slots * h
        key = label.split("(")[0].lower()
        tot, n = serve.get(key, (0.0, 0))
        serve[key] = (tot + slots * h * r["t_serve"], n + slots * h)
    out["serve_ns"] = {k: 1e9 * t / n for k, (t, n) in serve.items()}
    return out


def sim_metrics(sim, simulated, counts):
    """Per-layer simulator metrics. `simulated` says whether the
    workload ran the simulator; if not, its self times and counts are 0
    and the per-call costs come from the montecarlo probe."""
    m = {
        "sim.step_ns_per_node_slot": 1e9 * sim["rep"] / sim["node_slots"],
        **{f"sim.serve_slot_ns.{k}": v for k, v in sim["serve_ns"].items()},
    }
    if not simulated:
        m.update({k: 0.0 for k in ("sim.node_slots", "sim.delay_samples", "sim.source.self_s",
                                    "sim.stats.record.self_s", "sim.stats.merge_s",
                                    "sim.stats.quantile_s")})
        return m
    m.update({
        "sim.node_slots": counts.get("node_slots"),
        "sim.delay_samples": counts.get("delay_samples"),
        "sim.source.self_s": sim["source"],
        "sim.stats.record.self_s": sim["record"],
        "sim.stats.merge_s": sim["merge"],
        "sim.stats.quantile_s": sim["quantile"],
    })
    return m


# ------------------------------------------------------------ workloads


def abba(run_a, run_b):
    """Runs a, b, b, a and returns (mean a, mean b, the four results):
    the order cancels a linear drift in machine speed."""
    r = [run_a(), run_b(), run_b(), run_a()]
    return (r[0].wall + r[3].wall) / 2, (r[1].wall + r[2].wall) / 2, r


def trace_mix(seed, binaries):
    sc = w.gen_mix(seed, 0)
    p = sc["params"]
    counts, selfs, serial = None, {}, 0.0
    failed = attempted = 0
    for h in p["hops"]:
        for mix in range(p["mix_start"], p["mix_stop"] + 1, p["mix_step"]):
            cell = w.gen_mix(seed, 0, [h])
            cell["params"].update(mix_start=mix, mix_stop=mix)
            proc, prom = run_metrics(binaries["linksched"], cell, ["--threads", "1"])
            n, bad, printed = w.check_mix(proc.out, proc.code, cell)
            attempted += n
            failed += bad
            c = core_counts(prom, edf_expected=True)
            counts = c if counts is None else add_counts(counts, c)
            rows = parse_mix_sweep(proc.out)
            if not rows:
                continue
            _, _, n0, nc, _ = rows[0]
            progs, traces = co_schedule([
                [binaries["linksched"], "run", w.write_json("cell.json", cell), "--threads", "1"],
                tracer_cmd(binaries, [
                    f"bound {n0} {nc} 100 {h} bmux 1e-9",
                    f"bound {n0} {nc} 100 {h} fifo 1e-9",
                    f"edf {n0} {nc} 100 {h} {p['edf_ratio_short']} 1e-9",
                    f"edf {n0} {nc} 100 {h} {p['edf_ratio_long']} 1e-9",
                ]),
            ], TRACE_RUNS)
            rounds = [records(t) for t in traces]
            # The tracer must reproduce the program's bounds.
            failed += sum(f"{r['delay']:.2f}" != b for recs in rounds for r, b in zip(recs, printed))
            failed += sum(w.check_mix(q.out, q.code, cell)[1] for q in progs)
            serial += mean([q.cpu for q in progs])
            recs = mean_records(rounds)
            selfs = add_selfs(selfs, attribute(c, recs[:2], recs[2:]))
    proc2, prom2 = run_metrics(binaries["linksched"], sc, ["--threads", str(w.MIX_THREADS)])
    path = w.write_json("notel.json", sc)
    two, notel, runs = abba(
        lambda: spawn([binaries["linksched"], "run", path, "--threads", str(w.MIX_THREADS)]),
        lambda: spawn([binaries["linksched-notel"], "run", path, "--threads", str(w.MIX_THREADS)]))
    for r in [proc2] + runs:
        failed += w.check_mix(r.out, r.code, sc)[1]
    return finish(counts, selfs, attempted, failed, serial, reference_probe(binaries, seed),
                  parallel_eff=serial / (w.MIX_THREADS * two), overhead=two / notel - 1.0,
                  meta={"threads_used": series_sum(prom2, "sweep_workers"), "ops": attempted})


def trace_queries(seed, binaries):
    qs = w.gen_queries(seed, 0)
    counts, selfs = None, {}
    results, walls, cpus, notels = [], [], [], []
    failed = 0
    for q in qs:
        sc = {"name": "q", "experiment": "bound",
              "params": {"hops": q["hops"], "through": q["through"], "cross": q["cross"],
                         "capacity": 100.0, "epsilon": float(q["eps"]), "sched": q["sched"]}}
        proc, prom = run_metrics(binaries["linksched"], sc, ["--threads", "1"])
        results.append((proc.code, parse_bound(proc.out)))
        c = core_counts(prom, edf_expected=False)
        counts = c if counts is None else add_counts(counts, c)
        # The serial time is taken without --metrics-out (writing the
        # artifacts is not part of a query), around the tracer's timing
        # of the same instance.
        a = spawn(w.query_cmd(binaries["linksched"], q))
        n = spawn(w.query_cmd(binaries["linksched-notel"], q))
        (r,) = tracer(binaries, [
            f"bound {q['through']} {q['cross']} 100 {q['hops']} {q['sched']} {q['eps']}"])
        n2 = spawn(w.query_cmd(binaries["linksched-notel"], q))
        b = spawn(w.query_cmd(binaries["linksched"], q))
        walls.append((a.wall + b.wall) / 2)
        cpus.append((a.cpu + b.cpu) / 2)
        notels.append((n.wall + n2.wall) / 2)
        failed += sum(f"{r['delay']:.3f}" != parse_bound(x.out) for x in (proc, a, n, n2, b))
        selfs = add_selfs(selfs, attribute(c, [r], []))
    failed += w.check_queries(qs, results)
    with ThreadPoolExecutor(2) as pool:
        two = sum(p.wall for p in pool.map(
            lambda q: spawn(w.query_cmd(binaries["linksched"], q)), qs)) / 2
    one = sum(walls)
    return finish(counts, selfs, len(qs), failed, sum(cpus), reference_probe(binaries, seed),
                  parallel_eff=one / (2 * two), overhead=one / sum(notels) - 1.0,
                  meta={"threads_used": 1, "ops": len(qs), "parallel": "2 clients vs 1"})


def trace_mc(seed, binaries):
    sc, master = w.gen_mc(seed, 0)
    path = w.write_json("mc.json", sc)
    two, notel, runs = abba(lambda: spawn(w.mc_cmd(binaries["linksched"], path, master)),
                            lambda: spawn(w.mc_cmd(binaries["linksched-notel"], path, master)))
    proc, prom = run_metrics(binaries["linksched"], sc, ["--threads", str(w.MC_THREADS),
                                                         "--seed", str(master)])
    attempted, failed, cells = w.check_mc(proc.out, proc.code)
    bounds = {key: v[0] for key, v in cells.items()}
    analysis = {"fifo": "fifo", "bmux": "bmux", "sp": "sp", "edf:10,40": "delta:-30",
                "gps:1,1": "bmux"}
    keys = [(h, lab, sched) for h in w.MC_HOPS for lab, sched in w.MC_SCHEDULERS]
    tasks = [f"bound 40 60 20 {h} {analysis[s]} 1e-3" for h, _, s in keys]
    ones, traces = co_schedule([w.mc_cmd(binaries["linksched"], path, master, threads=1),
                                tracer_cmd(binaries, tasks + probe_tasks(seed, bounds))],
                               TRACE_RUNS)
    rounds = [records(t) for t in traces]
    failed += sum(f"{r['delay']:.2f}" != bounds.get((h, lab))
                  for recs in rounds for r, (h, lab, _) in zip(recs, keys))
    for p in runs + ones:
        failed += w.check_mc(p.out, p.code)[1]
    recs = mean_records(rounds)
    one = mean([p.cpu for p in ones])
    c = core_counts(prom, edf_expected=False)
    sim_counts = {"node_slots": series_sum(prom, "sim_node_queue_depth_count"),
                  "delay_samples": series_sum(prom, "sim_delay_samples_total")}
    return finish(c, attribute(c, recs[:len(keys)], []), attempted, failed, one,
                  recs[len(keys):], parallel_eff=one / (w.MC_THREADS * two),
                  overhead=two / notel - 1.0,
                  meta={"threads_used": series_sum(prom, "mc_workers"), "ops": attempted},
                  sim_counts=sim_counts)


def probe_tasks(seed, bounds):
    """One replication of every montecarlo cell, then the min-plus
    cross-check; `bounds` are the cells' printed bounds (thresholds)."""
    return mc_sim_tasks(seed, bounds) + ["minplus 20 4"]


def reference_probe(binaries, seed):
    """The simulator probe for workloads that simulate nothing, on the
    montecarlo cells (whose bounds do not depend on the seed)."""
    ref = w.load_reference("montecarlo")["cells"]
    return tracer(binaries, probe_tasks(seed, {(h, l): b for h, l, b, _, _ in ref}))


def finish(counts, selfs, attempted, failed, serial, probe, parallel_eff, overhead, meta,
           sim_counts=None):
    """Assembles the per-layer metrics and runs the coverage check.
    `probe` holds the tracer records of `probe_tasks`; `sim_counts` is
    set only for a workload that runs the simulator."""
    failed = min(failed, attempted)  # one op can fail several checks
    m = {}
    if counts is not None:
        c = counts
        for k in ("s_evals", "gamma_searches", "gamma_evals", "eq38_solves", "eq38_evals",
                  "edf_iterations"):
            m[f"core.{k}"] = c[k]
        if c["eq38_evals"] is not None and c["eq38_solves"]:
            m["core.eq38_evals_per_solve"] = c["eq38_evals"] / c["eq38_solves"]
        if c["edf_iterations"] is not None:
            m["core.edf_iterations_per_bound"] = c["edf_iterations"] / meta["ops"]
        if c["cache_hits"] is not None:
            probes = c["cache_hits"] + c["cache_misses"]
            m["core.cache_hit_ratio"] = c["cache_hits"] / probes if probes else 0.0
    if selfs:
        m.update(selfs)
        if counts and counts["eq38_solves"]:
            m["core.eq38.us_per_solve"] = 1e6 * selfs["core.eq38.self_s"] / counts["eq38_solves"]
    attributed = sum(selfs.values()) if selfs else None

    sim = sim_layers(probe[:-1], w.MC_REPS)
    m.update(sim_metrics(sim, sim_counts is not None, sim_counts or {}))
    m["minplus.crosscheck_ms"] = 1e3 * probe[-1]["t_crosscheck"]
    if sim_counts is not None and attributed is not None:
        attributed += sim["rep"] + sim["merge"] + sim["quantile"] + probe[-1]["t_crosscheck"]
    m["parallel_eff"] = parallel_eff
    m["telemetry.overhead_frac"] = overhead
    m["trace.serial_cpu_s"] = serial
    coverage_ok = False
    if attributed is not None:
        m["trace.attributed_frac"] = attributed / serial
        coverage_ok = abs(m["trace.attributed_frac"] - 1.0) <= COVERAGE_BOUND
    absent = sorted(k for k in UNITS if m.get(k) is None)
    metrics = {k: (m[k], UNITS[k]) for k in UNITS if m.get(k) is not None}
    meta = dict(meta, absent=absent, coverage_ok=coverage_ok, coverage_bound=COVERAGE_BOUND,
                failed_frac=failed / max(1, attempted))
    return metrics, attempted, failed, meta


def run_traced(workload, seed, binaries):
    return {"mix-sweep": trace_mix, "path-queries": trace_queries,
            "montecarlo": trace_mc}[workload](seed, binaries)
