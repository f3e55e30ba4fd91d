//! Per-layer timing probe for `perfbench/run.py --trace 1`.
//!
//! Times calls into the public functions of `nc-core`, `nc-traffic`,
//! `nc-sim` and `nc-minplus` on the instances a benchmark workload
//! generated. It reads one task per line from the file named on the
//! command line and prints one JSON object per task. Times are seconds
//! of this thread's CPU time per call unless a key says otherwise.
//!
//! ```text
//! bound   <n_through> <n_cross> <capacity> <hops> <fifo|bmux|sp|delta:v> <eps>
//! edf     <n_through> <n_cross> <capacity> <hops> <cross_over_through> <eps>
//! sim     <capacity> <hops> <n_through> <n_cross> <sched> <slots> <warmup> <seed> <threshold>
//! minplus <capacity> <hops>
//! ```
//!
//! `bound` and `edf` time the whole s-search once (`t_top`), then the
//! child functions at the witness `s*`/`γ*` the search returned. `sim`
//! times one full replication (`t_rep`) and the simulator's parts fed
//! that replication's traffic.

use nc_core::e2e::netbound::sigma_for;
use nc_core::e2e::optimizer::{solve, NodeParams};
use nc_core::{deterministic_delay_bound, LeakyBucket, MmooTandem, PathScheduler};
use nc_minplus::Curve;
use nc_sim::{
    Chunk, DelayStats, MmooAggregate, Node, SchedulerKind, SimConfig, Source, TandemSim,
    DEFAULT_RESERVOIR,
};
use nc_traffic::Mmoo;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::process::ExitCode;

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: perfbench-tracer <tasks-file>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match run_task(line) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: task `{line}`: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_task(line: &str) -> Result<String, String> {
    let f: Vec<&str> = line.split_whitespace().collect();
    match f.as_slice() {
        ["bound", nt, nc, cap, hops, sched, eps] => {
            let tandem = MmooTandem {
                source: Mmoo::paper_source(),
                n_through: num(nt)?,
                n_cross: num(nc)?,
                capacity: num(cap)?,
                hops: num(hops)?,
                scheduler: path_sched(sched)?,
            };
            let eps: f64 = num(eps)?;
            let start = thread_cpu_s();
            let b = black_box(tandem.delay_bound(eps)).ok_or("no bound")?;
            let t_top = thread_cpu_s() - start;
            Ok(leaves(&tandem, b.s, b.bound.gamma, eps, t_top, b.bound.delay))
        }
        ["edf", nt, nc, cap, hops, ratio, eps] => {
            let tandem = MmooTandem {
                source: Mmoo::paper_source(),
                n_through: num(nt)?,
                n_cross: num(nc)?,
                capacity: num(cap)?,
                hops: num(hops)?,
                scheduler: PathScheduler::Fifo,
            };
            let ratio: f64 = num(ratio)?;
            let eps: f64 = num(eps)?;
            let start = thread_cpu_s();
            let (b, d0) =
                black_box(tandem.edf_delay_bound_fixed_point(eps, ratio)).ok_or("no bound")?;
            let t_top = thread_cpu_s() - start;
            // The converged deadline gives the Δ the last γ-searches ran at.
            let at_witness =
                MmooTandem { scheduler: PathScheduler::Delta((1.0 - ratio) * d0), ..tandem };
            Ok(leaves(&at_witness, b.s, b.bound.gamma, eps, t_top, b.bound.delay))
        }
        ["sim", cap, hops, nt, nc, sched, slots, warmup, seed, threshold] => sim_task(
            SimConfig {
                capacity: num(cap)?,
                hops: num(hops)?,
                n_through: num(nt)?,
                n_cross: num(nc)?,
                source: Mmoo::paper_source(),
                scheduler: sim_sched(sched)?,
                warmup: num(warmup)?,
                packet_size: None,
            },
            num(slots)?,
            num(seed)?,
            num(threshold)?,
        ),
        ["minplus", cap, hops] => {
            let (cap, hops): (f64, usize) = (num(cap)?, num(hops)?);
            let t = per_call(|| {
                black_box(minplus_cross_check(black_box(cap), black_box(hops)));
            });
            Ok(format!("{{\"t_crosscheck\":{t:e}}}"))
        }
        _ => Err("unknown task".into()),
    }
}

/// Child-layer costs of one bound at its witness `(s, γ)`: `path_at`,
/// one whole γ-search at `s`, σ inversion and the Eq. (38) solve.
fn leaves(tandem: &MmooTandem, s: f64, gamma: f64, eps: f64, t_top: f64, delay: f64) -> String {
    let path = tandem.path_at(s).expect("the witness s is stable");
    let through = *path.through();
    let cross_nodes = vec![*path.cross(); path.hops()];
    let sigma = sigma_for(&through, &cross_nodes, gamma, eps);
    let params: Vec<NodeParams> = (1..=path.hops())
        .map(|h| NodeParams {
            c_eff: path.capacity() - (h as f64 - 1.0) * gamma,
            r: path.cross().rho() + gamma,
            delta: path.scheduler().delta(),
        })
        .collect();
    let [t_path_at, t_search, t_sigma, t_solve] = per_call_each([
        &mut || {
            black_box(black_box(tandem).path_at(black_box(s)));
        },
        &mut || {
            black_box(black_box(&path).delay_bound(black_box(eps)));
        },
        &mut || {
            black_box(sigma_for(&through, &cross_nodes, black_box(gamma), black_box(eps)));
        },
        &mut || {
            black_box(solve(black_box(&params), black_box(sigma)));
        },
    ]);
    format!(
        "{{\"t_top\":{t_top:e},\"t_path_at\":{t_path_at:e},\"t_search\":{t_search:e},\
         \"t_sigma\":{t_sigma:e},\"t_solve\":{t_solve:e},\"s\":{s:e},\"gamma\":{gamma:e},\
         \"delay\":{delay:e}}}"
    )
}

/// One replication exactly as the Monte Carlo engine runs it (streaming
/// collector with the cell's bound as threshold), then its parts.
fn sim_task(cfg: SimConfig, slots: u64, seed: u64, threshold: f64) -> Result<String, String> {
    if cfg.hops == 0 || cfg.n_through == 0 || slots <= cfg.warmup {
        return Err("bad sim task".into());
    }
    let collector = || DelayStats::streaming_with_thresholds(DEFAULT_RESERVOIR, &[threshold]);
    // The median of three runs: a cold start does not count, and unlike
    // the fastest run the median is not biased low when machine speed
    // varies.
    let mut reps = Vec::new();
    let mut stats = collector();
    for _ in 0..3 {
        let start = thread_cpu_s();
        let mut sim = TandemSim::new(cfg, seed);
        sim.set_stats_collector(collector());
        stats = black_box(sim.run(slots));
        reps.push(thread_cpu_s() - start);
    }
    let t_rep = median(&mut reps);

    // Source::pull as a replication makes it: per slot, the through
    // aggregate and each node's cross aggregate.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut through = MmooAggregate::stationary(cfg.source, cfg.n_through, &mut rng);
    let mut crosses: Vec<MmooAggregate> = (0..cfg.hops)
        .map(|_| MmooAggregate::stationary(cfg.source, cfg.n_cross, &mut rng))
        .collect();
    let t_source_slot = per_call(|| {
        black_box(through.pull(&mut rng));
        for c in crosses.iter_mut() {
            black_box(c.pull(&mut rng));
        }
    });
    let cross = &mut crosses[0];

    // Node::serve_slot fed one node's worth of this workload's arrivals
    // (through + cross): per slot, the arrivals' `enqueue` and the
    // `serve_slot` that drains them, on a fresh node per batch.
    let arrivals: Vec<(f64, f64)> =
        (0..20_000).map(|_| (through.pull(&mut rng), cross.pull(&mut rng))).collect();
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut node = Node::new(cfg.capacity, cfg.scheduler.node_policy(), 2);
            let mut out: Vec<Chunk> = Vec::new();
            let st = thread_cpu_s();
            for (t, &(a, c)) in (0u64..).zip(&arrivals) {
                if a > 0.0 {
                    node.enqueue(Chunk { class: 0, bits: a, entry: t, node_arrival: t });
                }
                if c > 0.0 {
                    node.enqueue(Chunk { class: 1, bits: c, entry: t, node_arrival: t });
                }
                out.clear();
                node.serve_slot(t, &mut out);
                black_box(&out);
            }
            (thread_cpu_s() - st) / arrivals.len() as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    let t_serve = batches[2];

    // DelayStats: record one replication's worth of samples, merge a
    // replication into an accumulator, and a quantile query.
    let samples: Vec<f64> = stats.samples().to_vec();
    let n_rec = (slots - cfg.warmup) as usize;
    let t_record = if samples.is_empty() {
        0.0
    } else {
        let mut fresh = collector();
        let st = thread_cpu_s();
        for i in 0..n_rec {
            fresh.record(black_box(samples[i % samples.len()]));
        }
        (thread_cpu_s() - st) / n_rec as f64
    };
    let t_clone = per_call(|| {
        black_box(black_box(&stats).clone());
    });
    let t_merge = per_call(|| {
        let mut acc = stats.clone();
        acc.merge(black_box(&stats));
        black_box(acc);
    }) - t_clone;
    let q = 1.0 - 1e-3;
    let t_quantile = per_call(|| {
        let mut m = stats.clone();
        black_box(m.quantile(black_box(q)));
    }) - t_clone;
    Ok(format!(
        "{{\"t_rep\":{t_rep:e},\"t_source_slot\":{t_source_slot:e},\
         \"t_serve\":{t_serve:e},\"t_record\":{t_record:e},\
         \"t_merge\":{:e},\"t_quantile\":{:e},\"samples\":{}}}",
        t_merge.max(0.0),
        t_quantile.max(0.0),
        stats.len()
    ))
}

/// The γ = 0 BMUX optimizer bound and the min-plus convolution
/// pipeline for validate's leaky-bucket tandem.
fn minplus_cross_check(capacity: f64, hops: usize) -> (Option<f64>, Option<f64>) {
    let through = LeakyBucket::new(6.0, 10.0);
    let cross = LeakyBucket::new(9.0, 15.0);
    let opt = deterministic_delay_bound(capacity, hops, through, cross, PathScheduler::Bmux);
    let leftover =
        Curve::rate_latency(capacity - cross.rate, cross.burst / (capacity - cross.rate));
    let mut net = Curve::delta(0.0);
    for _ in 0..hops {
        net = net.convolve(&leftover);
    }
    let env = Curve::token_bucket(through.rate, through.burst);
    (opt, env.h_deviation(&net))
}

/// Median seconds per call of `f`, over five batches of at least 2 ms.
fn per_call(mut f: impl FnMut()) -> f64 {
    let n = batch_size(&mut f);
    let mut v: Vec<f64> = (0..5).map(|_| time_batch(&mut f, n)).collect();
    median(&mut v)
}

/// Median seconds per call of each function, over nine rounds that time
/// one batch of at least 2 ms of every function in turn, so a change in
/// machine speed reaches all of them alike and their ratios hold.
fn per_call_each<const N: usize>(mut fs: [&mut dyn FnMut(); N]) -> [f64; N] {
    let sizes: Vec<usize> = fs.iter_mut().map(|f| batch_size(f)).collect();
    let mut times = vec![Vec::new(); N];
    for _ in 0..9 {
        for ((f, &n), t) in fs.iter_mut().zip(&sizes).zip(times.iter_mut()) {
            t.push(time_batch(f, n));
        }
    }
    std::array::from_fn(|i| median(&mut times[i]))
}

/// The smallest power-of-two call count whose batch takes at least 2 ms.
fn batch_size(f: &mut dyn FnMut()) -> usize {
    let mut n = 1usize;
    while time_batch(f, n) * (n as f64) < 2e-3 && n < 1 << 24 {
        n *= 2;
    }
    n
}

/// Seconds per call of `n` back-to-back calls of `f`.
fn time_batch(f: &mut dyn FnMut(), n: usize) -> f64 {
    let st = thread_cpu_s();
    for _ in 0..n {
        f();
    }
    (thread_cpu_s() - st) / n as f64
}

// `thread_cpu_s` lays out `struct timespec` as two 64-bit fields.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench-tracer needs 64-bit Linux");

/// This thread's CPU time in seconds. The tracer can share its CPU with
/// the program it is compared with, so it times the work it does, not
/// the wall clock.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec, and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number `{s}`"))
}

fn path_sched(s: &str) -> Result<PathScheduler, String> {
    match s {
        "fifo" => Ok(PathScheduler::Fifo),
        "bmux" => Ok(PathScheduler::Bmux),
        "sp" => Ok(PathScheduler::ThroughPriority),
        _ => match s.strip_prefix("delta:") {
            Some(v) => Ok(PathScheduler::Delta(num(v)?)),
            None => Err(format!("unknown scheduler `{s}`")),
        },
    }
}

fn sim_sched(s: &str) -> Result<SchedulerKind, String> {
    let pair = |v: &str| -> Result<(f64, f64), String> {
        let (a, b) = v.split_once(',').ok_or_else(|| format!("bad pair `{v}`"))?;
        Ok((num(a)?, num(b)?))
    };
    match s {
        "fifo" => Ok(SchedulerKind::Fifo),
        "bmux" => Ok(SchedulerKind::Bmux),
        "sp" => Ok(SchedulerKind::ThroughPriority),
        _ => {
            if let Some(v) = s.strip_prefix("edf:") {
                let (d_through, d_cross) = pair(v)?;
                Ok(SchedulerKind::Edf { d_through, d_cross })
            } else if let Some(v) = s.strip_prefix("gps:") {
                let (w_through, w_cross) = pair(v)?;
                Ok(SchedulerKind::Gps { w_through, w_cross })
            } else {
                Err(format!("unknown scheduler `{s}`"))
            }
        }
    }
}
