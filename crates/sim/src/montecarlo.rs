//! Parallel Monte Carlo replication engine.
//!
//! Validating a probabilistic delay bound at violation level ε needs
//! on the order of `100/ε` independent delay samples; at the paper's
//! deeper tails a single sequential [`TandemSim`] run is wall-clock
//! bound. This module fans independent replications of a simulation
//! out across OS threads and merges their [`DelayStats`]:
//!
//! * per-replication seeds are derived from one **master seed** via
//!   the SplitMix64 sequence, so replication `i` always sees the same
//!   RNG stream no matter which thread runs it;
//! * workers pull replication indices from a shared counter (dynamic
//!   load balancing), but results are collected **by index** and
//!   merged in index order — the merged statistics are therefore
//!   bitwise-identical for any thread count, including 1;
//! * replications collect into bounded-memory streaming stats by
//!   default (see [`DelayStats::streaming_with_thresholds`]), so
//!   multi-million-slot runs do not hold every sample in memory.
//!
//! # Example
//!
//! ```
//! use nc_sim::{MonteCarlo, SchedulerKind, SimConfig};
//!
//! let cfg = SimConfig {
//!     capacity: 20.0,
//!     hops: 2,
//!     n_through: 10,
//!     n_cross: 20,
//!     scheduler: SchedulerKind::Fifo,
//!     warmup: 500,
//!     ..SimConfig::default()
//! };
//! let mc = MonteCarlo::new(4, 5_000, 42);
//! let mut report = mc.run(cfg);
//! assert_eq!(report.per_rep.len(), 4);
//! assert!(report.merged.len() > 10_000);
//! let (lo, hi) = report.quantile_spread(0.99).unwrap();
//! assert!(lo <= hi);
//! ```

use crate::checkpoint::{Checkpoint, CheckpointCfg};
use crate::error::Error;
use crate::faults::FaultPlan;
use crate::stats::{DelayStats, StatsState};
use crate::tandem::{SimConfig, TandemSim};
use nc_telemetry::{Histogram, MetricSet};
use rand::splitmix64;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-replication outcome: statistics, telemetry shard, wall seconds,
/// and whether the replication completed without panicking.
type RepResult = (DelayStats, MetricSet, f64, bool);

/// Shared checkpoint-writer state: how many completed replications the
/// last written checkpoint covered, and the first write error (writes
/// stop after the first failure; the error surfaces when the run ends).
struct WriterState {
    last_written: usize,
    error: Option<Error>,
}

/// Default reservoir capacity per replication for streaming runs:
/// large enough that the merged reservoir still resolves the 10⁻³
/// quantile tail with a few percent relative rank error.
pub const DEFAULT_RESERVOIR: usize = 65_536;

/// How each replication collects its delay samples.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsMode {
    /// Retain every sample (exact quantiles, memory grows with slots).
    Exact,
    /// Bounded memory: a reservoir of the given capacity per
    /// replication, plus exact violation counters for the given
    /// thresholds.
    Streaming {
        /// Reservoir capacity per replication.
        reservoir: usize,
        /// Thresholds whose violation counts are tracked exactly.
        thresholds: Vec<f64>,
    },
}

/// A parallel replication plan: how many independent simulations to
/// run, for how long, from which master seed, on how many threads.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarlo {
    /// Number of independent replications.
    pub reps: usize,
    /// Worker threads; `0` auto-detects from available parallelism.
    pub threads: usize,
    /// Master seed; per-replication seeds derive from it via SplitMix64.
    pub master_seed: u64,
    /// Simulated slots per replication.
    pub slots: u64,
    /// Per-replication collection mode.
    pub mode: StatsMode,
    /// Live progress reporting on stderr: exact completed/total
    /// replication counts from the shared work counter, throughput,
    /// and an ETA (works with or without the `telemetry` feature).
    pub progress: bool,
    /// Collect per-replication simulator telemetry into
    /// [`MonteCarloReport::metrics`] (effective only with the
    /// `telemetry` feature compiled in).
    pub collect_metrics: bool,
    /// Optional fault plan injected into every replication's tandem
    /// (applies to [`MonteCarlo::run`]/[`MonteCarlo::try_run`], which
    /// construct the simulators; custom jobs inject their own faults).
    pub faults: Option<FaultPlan>,
    /// Optional crash-safe checkpointing of completed replications.
    pub checkpoint: Option<CheckpointCfg>,
    /// Load the checkpoint file before running and skip the
    /// replications it records as completed.
    pub resume: bool,
}

impl MonteCarlo {
    /// A plan with auto-detected thread count and exact statistics.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero.
    pub fn new(reps: usize, slots: u64, master_seed: u64) -> Self {
        assert!(reps > 0, "MonteCarlo: need at least one replication");
        MonteCarlo {
            reps,
            threads: 0,
            master_seed,
            slots,
            mode: StatsMode::Exact,
            progress: false,
            collect_metrics: false,
            faults: None,
            checkpoint: None,
            resume: false,
        }
    }

    /// Attaches (or clears) a fault plan for the built-in tandem runs.
    pub fn faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Enables periodic crash-safe checkpoints of completed
    /// replications.
    pub fn checkpoint(mut self, cfg: CheckpointCfg) -> Self {
        self.checkpoint = Some(cfg);
        self
    }

    /// Enables or disables resuming from the checkpoint file. Requires
    /// a [`MonteCarlo::checkpoint`] config (for the path), and the file
    /// must exist and fingerprint-match the run.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Sets the worker thread count (`0` = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables live progress/ETA reporting on stderr.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Enables or disables per-replication telemetry collection.
    pub fn collect_metrics(mut self, on: bool) -> Self {
        self.collect_metrics = on;
        self
    }

    /// Switches to bounded-memory streaming collection with the default
    /// reservoir and exact tracking of the given thresholds.
    pub fn streaming(mut self, thresholds: &[f64]) -> Self {
        self.mode =
            StatsMode::Streaming { reservoir: DEFAULT_RESERVOIR, thresholds: thresholds.to_vec() };
        self
    }

    /// Sets the per-replication reservoir capacity (switching to
    /// streaming mode if not already).
    pub fn reservoir(mut self, cap: usize) -> Self {
        self.mode = match self.mode {
            StatsMode::Streaming { thresholds, .. } => {
                StatsMode::Streaming { reservoir: cap, thresholds }
            }
            StatsMode::Exact => StatsMode::Streaming { reservoir: cap, thresholds: Vec::new() },
        };
        self
    }

    /// The per-replication seeds: the first `reps` outputs of the
    /// SplitMix64 sequence started at the master seed.
    pub fn seeds(&self) -> Vec<u64> {
        let mut state = self.master_seed;
        (0..self.reps).map(|_| splitmix64(&mut state)).collect()
    }

    /// The effective worker count.
    pub fn effective_threads(&self) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        };
        t.min(self.reps).max(1)
    }

    /// An empty collector configured per [`MonteCarlo::mode`].
    fn collector(&self) -> DelayStats {
        match &self.mode {
            StatsMode::Exact => DelayStats::new(),
            StatsMode::Streaming { reservoir, thresholds } => {
                DelayStats::streaming_with_thresholds(*reservoir, thresholds)
            }
        }
    }

    /// Runs the tandem simulation [`MonteCarlo::reps`] times and merges
    /// the per-replication delay statistics (and, with
    /// [`MonteCarlo::collect_metrics`], the per-replication simulator
    /// telemetry).
    ///
    /// # Panics
    ///
    /// Panics on fault-plan/topology mismatch and on checkpoint
    /// errors; [`MonteCarlo::try_run`] is the fallible variant.
    pub fn run(&self, cfg: SimConfig) -> MonteCarloReport {
        self.try_run(cfg).unwrap_or_else(|e| panic!("Monte Carlo run failed: {e}"))
    }

    /// [`MonteCarlo::run`], with fault injection, checkpointing, and
    /// resume surfacing their failures as typed [`Error`]s instead of
    /// panics.
    pub fn try_run(&self, cfg: SimConfig) -> Result<MonteCarloReport, Error> {
        if let Some(plan) = &self.faults {
            plan.check_hops(cfg.hops)?;
        }
        let collect = self.collect_metrics;
        self.try_run_instrumented(|_, seed| {
            let mut sim = match &self.faults {
                Some(plan) => TandemSim::with_faults(cfg, plan, seed)
                    .expect("fault plan validated against cfg.hops above"),
                None => TandemSim::new(cfg, seed),
            };
            sim.set_stats_collector(self.collector());
            if collect {
                sim.enable_telemetry();
            }
            let stats = sim.run(self.slots);
            let metrics = if collect { sim.metrics() } else { MetricSet::new() };
            (stats, metrics)
        })
    }

    /// Runs an arbitrary per-replication job `(rep index, seed) →
    /// DelayStats` across the worker threads and merges the results in
    /// replication order.
    ///
    /// The merged statistics are bitwise-identical for every thread
    /// count. The per-replication job must itself be deterministic in
    /// `(index, seed)`.
    ///
    /// A replication that panics does **not** abort the run: the
    /// panic is caught, the replication contributes an empty
    /// collector, and [`MonteCarloReport::panicked`] (plus the
    /// `mc_replications_panicked_total` counter) records the
    /// degradation.
    ///
    /// # Panics
    ///
    /// Panics on checkpoint errors, or (in streaming mode) if the job
    /// returns collectors with mismatched thresholds.
    pub fn run_with<F>(&self, job: F) -> MonteCarloReport
    where
        F: Fn(usize, u64) -> DelayStats + Sync,
    {
        self.run_instrumented(|i, seed| (job(i, seed), MetricSet::new()))
    }

    /// [`MonteCarlo::run_with`] for jobs that also return a telemetry
    /// shard. Shards are merged in replication order — like the delay
    /// statistics, the merged metrics do not depend on the thread
    /// count. The engine adds its own `mc_*` series (replication
    /// timings, wall time, per-worker busy time) on top.
    pub fn run_instrumented<F>(&self, job: F) -> MonteCarloReport
    where
        F: Fn(usize, u64) -> (DelayStats, MetricSet) + Sync,
    {
        self.try_run_instrumented(job).unwrap_or_else(|e| panic!("Monte Carlo run failed: {e}"))
    }

    /// [`MonteCarlo::run_instrumented`] with checkpoint/resume errors
    /// surfaced as typed [`Error`]s instead of panics.
    pub fn try_run_instrumented<F>(&self, job: F) -> Result<MonteCarloReport, Error>
    where
        F: Fn(usize, u64) -> (DelayStats, MetricSet) + Sync,
    {
        let t0 = Instant::now();
        let seeds = self.seeds();
        let preloaded = self.load_resume_state(&seeds)?;
        let skip: Vec<bool> = preloaded.iter().map(Option::is_some).collect();
        let resumed = skip.iter().filter(|s| **s).count();
        let workers = self.effective_threads();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(resumed);
        let panicked = AtomicUsize::new(0);
        let finished_workers = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<RepResult>>> = Mutex::new(
            preloaded
                .into_iter()
                .map(|p| p.map(|stats| (stats, MetricSet::new(), 0.0, true)))
                .collect(),
        );
        let writer = Mutex::new(WriterState { last_written: resumed, error: None });
        let busy: Mutex<Vec<f64>> = Mutex::new(vec![0.0; workers]);
        std::thread::scope(|scope| {
            let (job, seeds, skip) = (&job, &seeds, &skip);
            let (next, done, finished) = (&next, &done, &finished_workers);
            let (results, busy, writer, panicked) = (&results, &busy, &writer, &panicked);
            for w in 0..workers {
                scope.spawn(move || {
                    let mut my_busy = 0.0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= seeds.len() {
                            break;
                        }
                        if skip[i] {
                            // Preloaded from the resume checkpoint.
                            continue;
                        }
                        let rep_start = Instant::now();
                        // Panic isolation: one poisoned replication
                        // degrades the run (recorded below) instead of
                        // killing every worker's progress.
                        let outcome =
                            std::panic::catch_unwind(AssertUnwindSafe(|| job(i, seeds[i])));
                        let secs = rep_start.elapsed().as_secs_f64();
                        my_busy += secs;
                        let (stats, metrics, ok) = match outcome {
                            Ok((stats, metrics)) => (stats, metrics, true),
                            Err(_) => {
                                panicked.fetch_add(1, Ordering::Relaxed);
                                (self.collector(), MetricSet::new(), false)
                            }
                        };
                        results.lock().expect("result mutex poisoned")[i] =
                            Some((stats, metrics, secs, ok));
                        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                        self.maybe_checkpoint(d, seeds, results, writer);
                    }
                    busy.lock().expect("busy mutex poisoned")[w] = my_busy;
                    finished.fetch_add(1, Ordering::Release);
                });
            }
            if self.progress {
                scope.spawn(|| self.report_progress(done, finished, workers));
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let ws = writer.into_inner().expect("writer mutex poisoned");
        if let Some(e) = ws.error {
            return Err(e);
        }
        let mut per_rep = Vec::with_capacity(self.reps);
        let mut metrics = MetricSet::new();
        let mut rep_seconds = Histogram::new();
        let slots = results.into_inner().expect("result mutex poisoned");
        for (i, slot) in slots.into_iter().enumerate() {
            let (stats, shard, secs, _) = slot.expect("worker completed every claimed replication");
            // Replication order: merged metrics are deterministic in
            // structure regardless of which thread ran which rep.
            metrics.merge(&shard);
            if !skip[i] {
                rep_seconds.record(secs);
            }
            per_rep.push(stats);
        }
        // Merge in replication order: determinism does not depend on
        // which thread finished first.
        let mut merged = self.collector();
        for s in &per_rep {
            merged.merge(s);
        }
        let panicked = panicked.into_inner();
        metrics.counter_add("mc_replications_total", &[], self.reps as u64);
        if resumed > 0 {
            metrics.counter_add("mc_replications_resumed_total", &[], resumed as u64);
        }
        if panicked > 0 {
            metrics.counter_add("mc_replications_panicked_total", &[], panicked as u64);
        }
        // Wall and busy time are histogram observations, one per run:
        // their `_sum`s then add up over every run merged into the same
        // set (e.g. the cells of a sweep), and utilization and
        // throughput over the whole merge are ratios of these totals.
        metrics.gauge_set("mc_workers", &[], workers as f64);
        metrics.observe("mc_wall_seconds", &[], wall);
        metrics.histogram_merge("mc_replication_seconds", &[], &rep_seconds);
        for (w, b) in busy.into_inner().expect("busy mutex poisoned").iter().enumerate() {
            let idx = w.to_string();
            metrics.observe("mc_worker_busy_seconds", &[("worker", idx.as_str())], *b);
        }
        Ok(MonteCarloReport { per_rep, merged, metrics, resumed, panicked })
    }

    /// Loads the resume checkpoint (when [`MonteCarlo::resume`] is
    /// set), validates its fingerprint and per-replication seeds, and
    /// rebuilds the completed collectors by replication index.
    ///
    /// A *missing* checkpoint file is not an error: it means no
    /// replication finished before the previous run died (or this cell
    /// of a multi-cell sweep was never reached), so the run starts
    /// fresh. Any other load failure — unreadable, corrupt, or
    /// mismatched — is surfaced, never silently discarded.
    fn load_resume_state(&self, seeds: &[u64]) -> Result<Vec<Option<DelayStats>>, Error> {
        let mut preloaded: Vec<Option<DelayStats>> = vec![None; self.reps];
        if !self.resume {
            return Ok(preloaded);
        }
        let cfg = self.checkpoint.as_ref().ok_or_else(|| Error::Checkpoint {
            path: String::new(),
            detail: "resume requested without a checkpoint config".into(),
        })?;
        let cp = match Checkpoint::load(&cfg.path) {
            Ok(cp) => cp,
            Err(Error::CheckpointIo { ref source, .. })
                if source.kind() == std::io::ErrorKind::NotFound =>
            {
                return Ok(preloaded);
            }
            Err(e) => return Err(e),
        };
        if let Some(detail) =
            cp.mismatch(self.master_seed, self.reps, self.slots, &self.mode, &cfg.workload)
        {
            return Err(Error::CheckpointMismatch { path: cfg.path.clone(), detail });
        }
        for (rep, seed, state) in cp.completed {
            if seeds[rep] != seed {
                return Err(Error::CheckpointMismatch {
                    path: cfg.path.clone(),
                    detail: format!("replication {rep} seed does not match the master sequence"),
                });
            }
            self.check_state_mode(&state)
                .and_then(|()| DelayStats::from_state(state))
                .map(|stats| preloaded[rep] = Some(stats))
                .map_err(|detail| Error::Checkpoint { path: cfg.path.clone(), detail })?;
        }
        Ok(preloaded)
    }

    /// A completed entry's collector must agree with the run's stats
    /// mode, or the index-order merge would panic or lose determinism.
    fn check_state_mode(&self, state: &StatsState) -> Result<(), String> {
        match &self.mode {
            StatsMode::Exact => {
                if state.reservoir.is_some() {
                    return Err("streaming statistics in an exact-mode checkpoint".into());
                }
            }
            StatsMode::Streaming { reservoir, thresholds } => {
                let cap_ok = state.reservoir.is_some_and(|(cap, _)| cap == *reservoir);
                let thr_ok = state.thresholds.len() == thresholds.len()
                    && state.thresholds.iter().zip(thresholds).all(|(&(d, _), t)| d == t.to_bits());
                if !cap_ok || !thr_ok {
                    return Err(
                        "completed statistics disagree with the fingerprint's streaming mode"
                            .into(),
                    );
                }
            }
        }
        Ok(())
    }

    /// Writes a checkpoint covering every completed replication when
    /// `completions` has advanced by at least
    /// [`CheckpointCfg::every`] since the last write. Uses `try_lock`
    /// so checkpointing never serializes the workers — when another
    /// thread is mid-write, this completion simply rides along with
    /// the next write.
    fn maybe_checkpoint(
        &self,
        completions: usize,
        seeds: &[u64],
        results: &Mutex<Vec<Option<RepResult>>>,
        writer: &Mutex<WriterState>,
    ) {
        let Some(cfg) = &self.checkpoint else { return };
        if cfg.every == 0 {
            return;
        }
        let Ok(mut ws) = writer.try_lock() else { return };
        if ws.error.is_some() || completions < ws.last_written + cfg.every {
            return;
        }
        let completed: Vec<(usize, u64, StatsState)> = {
            let r = results.lock().expect("result mutex poisoned");
            r.iter()
                .enumerate()
                .filter_map(|(i, slot)| match slot {
                    // Panicked replications are *not* checkpointed:
                    // a resumed run retries them.
                    Some((stats, _, _, true)) => Some((i, seeds[i], stats.state())),
                    _ => None,
                })
                .collect()
        };
        let covered = completed.len();
        let mut cp = Checkpoint::empty(
            self.master_seed,
            self.reps,
            self.slots,
            self.mode.clone(),
            &cfg.workload,
        );
        cp.completed = completed;
        match cp.save(&cfg.path) {
            Ok(()) => ws.last_written = covered,
            Err(e) => ws.error = Some(e),
        }
    }

    /// Progress loop (runs on its own thread inside the worker scope):
    /// prints `completed/total` from the shared counter — exact even
    /// when `reps` is not a multiple of the worker count — plus
    /// throughput and ETA, every 200 ms until all replications finish
    /// (or every worker has exited, should one panic).
    fn report_progress(&self, done: &AtomicUsize, finished: &AtomicUsize, workers: usize) {
        use std::io::Write;
        let t0 = Instant::now();
        loop {
            std::thread::sleep(std::time::Duration::from_millis(200));
            let d = done.load(Ordering::Relaxed);
            let elapsed = t0.elapsed().as_secs_f64();
            let mut line = format!("\r[mc] {d}/{} reps", self.reps);
            if d > 0 && d < self.reps && elapsed > 0.0 {
                let rate = d as f64 / elapsed;
                let eta = (self.reps - d) as f64 / rate;
                line.push_str(&format!("  {rate:.2} reps/s  ETA {eta:.0}s"));
            }
            eprint!("{line}        ");
            let _ = std::io::stderr().flush();
            if d >= self.reps || finished.load(Ordering::Acquire) >= workers {
                break;
            }
        }
        let d = done.load(Ordering::Relaxed);
        let elapsed = t0.elapsed().as_secs_f64();
        eprintln!(
            "\r[mc] {d}/{} reps done in {elapsed:.1}s ({:.2} reps/s)        ",
            self.reps,
            d as f64 / elapsed.max(1e-9)
        );
    }
}

/// The outcome of a [`MonteCarlo`] run: the order-merged statistics
/// plus each replication's own, for across-replication dispersion.
#[derive(Debug, Clone)]
pub struct MonteCarloReport {
    /// Per-replication statistics, in replication order.
    pub per_rep: Vec<DelayStats>,
    /// All replications merged (in replication order).
    pub merged: DelayStats,
    /// Engine metrics (`mc_*`) plus, with
    /// [`MonteCarlo::collect_metrics`], the replication-order merge of
    /// every simulator telemetry shard (`sim_*`). Empty without the
    /// `telemetry` feature.
    pub metrics: MetricSet,
    /// Replications preloaded from a resume checkpoint instead of
    /// being re-run.
    pub resumed: usize,
    /// Replications that panicked and contributed empty statistics:
    /// the run is degraded (also exported as the
    /// `mc_replications_panicked_total` counter).
    pub panicked: usize,
}

impl MonteCarloReport {
    /// The spread `(min, max)` of the per-replication `q`-quantiles —
    /// an across-replication confidence envelope for the merged
    /// quantile. `None` if every replication is empty.
    pub fn quantile_spread(&mut self, q: f64) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for rep in &mut self.per_rep {
            if let Some(v) = rep.quantile(q) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo <= hi).then_some((lo, hi))
    }

    /// The spread `(min, max)` of the per-replication empirical
    /// violation fractions `P(W > d)`. `None` if every replication is
    /// empty.
    pub fn violation_spread(&self, d: f64) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for rep in &self.per_rep {
            if rep.is_empty() {
                continue;
            }
            let v = rep.violation_fraction(d);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo <= hi).then_some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerKind;

    fn cfg() -> SimConfig {
        // ~90% utilized so delays are nonzero within a few thousand slots.
        SimConfig {
            capacity: 10.0,
            hops: 2,
            n_through: 10,
            n_cross: 50,
            scheduler: SchedulerKind::Fifo,
            warmup: 200,
            ..SimConfig::default()
        }
    }

    #[test]
    fn seeds_are_splitmix_and_stable() {
        let mc = MonteCarlo::new(3, 100, 1234567);
        let s = mc.seeds();
        assert_eq!(s.len(), 3);
        // Reference SplitMix64 outputs for seed 1234567.
        assert_eq!(s[0], 6457827717110365317);
        assert_eq!(s[1], 3203168211198807973);
        assert_eq!(s[2], 9817491932198370423);
        assert_eq!(s, MonteCarlo::new(3, 100, 1234567).seeds());
    }

    #[test]
    fn merged_equals_manual_merge_of_reps() {
        let mc = MonteCarlo::new(3, 2_000, 7).threads(2);
        let mut report = mc.run(cfg());
        let mut manual = DelayStats::new();
        for rep in &report.per_rep {
            manual.merge(rep);
        }
        assert_eq!(report.merged.len(), manual.len());
        assert_eq!(report.merged.mean(), manual.mean());
        assert_eq!(report.merged.quantile(0.9), manual.quantile(0.9));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads: usize| {
            let mc = MonteCarlo::new(6, 2_000, 99).threads(threads).streaming(&[5.0]);
            let mut r = mc.run(cfg());
            (
                r.merged.len(),
                r.merged.mean().unwrap().to_bits(),
                r.merged.variance().unwrap().to_bits(),
                r.merged.max().unwrap().to_bits(),
                r.merged.quantile(0.999).unwrap().to_bits(),
                r.merged.violation_fraction(5.0).to_bits(),
                r.merged.samples().to_vec(),
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(5));
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = MonteCarlo::new(2, 2_000, 1).run(cfg());
        let b = MonteCarlo::new(2, 2_000, 2).run(cfg());
        assert_ne!(a.merged.mean(), b.merged.mean());
    }

    #[test]
    fn spreads_bracket_merged_point_estimates() {
        let mc = MonteCarlo::new(5, 4_000, 11);
        let mut report = mc.run(cfg());
        let q = 0.99;
        let (lo, hi) = report.quantile_spread(q).unwrap();
        let merged_q = report.merged.quantile(q).unwrap();
        assert!(lo <= merged_q && merged_q <= hi, "{lo} ≤ {merged_q} ≤ {hi}");
        let d = 3.0;
        let (vlo, vhi) = report.violation_spread(d).unwrap();
        let merged_v = report.merged.violation_fraction(d);
        assert!(vlo <= merged_v && merged_v <= vhi);
    }

    #[test]
    fn run_with_custom_job() {
        let mc = MonteCarlo::new(4, 0, 5).threads(2);
        let report = mc.run_with(|i, seed| {
            let mut s = DelayStats::new();
            s.record(i as f64);
            s.record((seed % 7) as f64);
            s
        });
        assert_eq!(report.merged.len(), 8);
        assert_eq!(report.per_rep[3].samples()[0], 3.0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn collect_metrics_merges_sim_shards_deterministically() {
        let run = |threads| {
            MonteCarlo::new(5, 2_000, 3).threads(threads).collect_metrics(true).run(cfg())
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.metrics.counter_value("sim_slots_total", &[]), 5 * 2_000);
        assert_eq!(
            a.metrics.counter_value("sim_delay_samples_total", &[]),
            b.metrics.counter_value("sim_delay_samples_total", &[]),
            "sim metric merge must not depend on thread count"
        );
        assert_eq!(a.metrics.counter_value("mc_replications_total", &[]), 5);
        assert!(a.metrics.get("mc_replication_seconds", &[]).is_some());
        assert!(a.metrics.get("mc_worker_busy_seconds", &[("worker", "0")]).is_some());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn worker_time_adds_up_over_cells() {
        // Two cells of one run, merged the way the scenario engine
        // merges each cell into the run's metrics.
        let cell = |seed| MonteCarlo::new(4, 2_000, seed).threads(2).run(cfg()).metrics;
        let cells = [cell(1), cell(2)];
        let mut run = MetricSet::new();
        for c in &cells {
            run.merge(c);
        }
        let sum = |m: &MetricSet, name: &str, labels: &[(&str, &str)]| match m.get(name, labels) {
            Some(nc_telemetry::MetricValue::Histogram(h)) => (h.sum(), h.count()),
            other => panic!("`{name}` {labels:?} is not a histogram: {other:?}"),
        };
        for series in [("mc_wall_seconds", &[][..]), ("mc_worker_busy_seconds", &[("worker", "0")])]
        {
            let (total, n) = sum(&run, series.0, series.1);
            let (a, b) = (sum(&cells[0], series.0, series.1), sum(&cells[1], series.0, series.1));
            assert_eq!(n, 2, "{series:?}: one observation per cell");
            assert_eq!(total, a.0 + b.0, "{series:?}: run total is the sum over its cells");
            assert!(a.0 > 0.0 && b.0 > 0.0, "{series:?}: every cell takes time");
        }
        assert_eq!(run.get("mc_workers", &[]), Some(&nc_telemetry::MetricValue::Gauge(2.0)));
    }

    #[test]
    fn progress_reporting_does_not_disturb_results() {
        let quiet = MonteCarlo::new(3, 1_000, 21).run(cfg());
        let chatty = MonteCarlo::new(3, 1_000, 21).progress(true).run(cfg());
        assert_eq!(quiet.merged.len(), chatty.merged.len());
        assert_eq!(quiet.merged.mean(), chatty.merged.mean());
    }

    #[test]
    fn effective_threads_is_clamped() {
        assert_eq!(MonteCarlo::new(2, 1, 0).threads(16).effective_threads(), 2);
        assert!(MonteCarlo::new(64, 1, 0).effective_threads() >= 1);
    }

    fn tmp_path(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("nc_mc_{name}_{}.checkpoint.json", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    }

    fn fault_plan() -> FaultPlan {
        FaultPlan::uniform(vec![
            crate::faults::FaultModel::GilbertElliott {
                p_fail: 0.05,
                p_repair: 0.3,
                capacity_factor: 0.4,
            },
            crate::faults::FaultModel::Drop { prob: 0.01 },
        ])
        .unwrap()
    }

    #[test]
    fn panicking_replication_degrades_instead_of_aborting() {
        let mc = MonteCarlo::new(4, 0, 5).threads(2);
        let report = mc.run_with(|i, _| {
            assert!(i != 2, "replication 2 poisons itself");
            let mut s = DelayStats::new();
            s.record(i as f64);
            s
        });
        assert_eq!(report.panicked, 1);
        assert_eq!(report.per_rep[2].len(), 0);
        assert_eq!(report.merged.len(), 3);
    }

    #[test]
    fn faulted_runs_are_thread_count_invariant() {
        let run = |threads: usize| {
            let mc = MonteCarlo::new(5, 2_000, 77)
                .threads(threads)
                .streaming(&[5.0])
                .faults(Some(fault_plan()));
            let mut r = mc.run(cfg());
            (
                r.merged.len(),
                r.merged.mean().unwrap().to_bits(),
                r.merged.quantile(0.99).unwrap().to_bits(),
                r.merged.violation_fraction(5.0).to_bits(),
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    fn merged_bits(r: &MonteCarloReport) -> (usize, u64, u64, u64) {
        let mut m = r.merged.clone();
        (
            m.len(),
            m.mean().unwrap().to_bits(),
            m.variance().unwrap().to_bits(),
            m.quantile(0.999).unwrap().to_bits(),
        )
    }

    #[test]
    fn resume_from_partial_checkpoint_is_bitwise_identical() {
        let path = tmp_path("partial");
        let ckpt = || CheckpointCfg::new(&path, 1).workload("unit");
        let plan = || {
            MonteCarlo::new(6, 2_000, 99).threads(1).streaming(&[5.0]).faults(Some(fault_plan()))
        };
        // Uninterrupted run; every=1 on one thread checkpoints after
        // every replication, so the file ends up covering all six.
        let full = plan().checkpoint(ckpt()).try_run(cfg()).unwrap();
        // Simulate a crash after three replications by truncating the
        // checkpoint, then resume.
        let mut cp = Checkpoint::load(&path).unwrap();
        assert_eq!(cp.completed.len(), 6);
        cp.completed.truncate(3);
        cp.save(&path).unwrap();
        let resumed = plan().checkpoint(ckpt()).resume(true).try_run(cfg()).unwrap();
        assert_eq!(resumed.resumed, 3);
        assert_eq!(merged_bits(&resumed), merged_bits(&full));
        // Resuming a fully-covered checkpoint re-runs nothing.
        let all = plan().checkpoint(ckpt()).resume(true).try_run(cfg()).unwrap();
        assert_eq!(all.resumed, 6);
        assert_eq!(merged_bits(&all), merged_bits(&full));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_refuses_a_foreign_checkpoint() {
        let path = tmp_path("foreign");
        let ckpt = || CheckpointCfg::new(&path, 2).workload("unit");
        MonteCarlo::new(3, 500, 1).threads(1).checkpoint(ckpt()).try_run(cfg()).unwrap();
        // Different master seed: fingerprint must not match.
        let err = MonteCarlo::new(3, 500, 2)
            .threads(1)
            .checkpoint(ckpt())
            .resume(true)
            .try_run(cfg())
            .unwrap_err();
        assert!(matches!(err, Error::CheckpointMismatch { .. }), "{err}");
        // Different workload tag: also a mismatch.
        let err = MonteCarlo::new(3, 500, 1)
            .threads(1)
            .checkpoint(CheckpointCfg::new(&path, 2).workload("other"))
            .resume(true)
            .try_run(cfg())
            .unwrap_err();
        assert!(matches!(err, Error::CheckpointMismatch { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_without_checkpoint_file_starts_fresh() {
        // A cell whose checkpoint never made it to disk (killed before
        // the first replication finished, or never reached in a sweep)
        // must start from scratch, not refuse to run.
        let path = tmp_path("missing_never_written");
        let mc = MonteCarlo::new(2, 3_000, 1).checkpoint(CheckpointCfg::new(&path, 1)).resume(true);
        let report = mc.try_run(cfg()).expect("fresh start");
        assert_eq!(report.resumed, 0);
        let baseline = MonteCarlo::new(2, 3_000, 1).run(cfg());
        assert_eq!(merged_bits(&report), merged_bits(&baseline));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fault_plan_hops_mismatch_is_a_typed_error() {
        let plan = FaultPlan::per_node(vec![vec![], vec![], vec![]]).unwrap();
        let err = MonteCarlo::new(2, 100, 1).faults(Some(plan)).try_run(cfg()).unwrap_err();
        assert!(matches!(err, Error::FaultConfig(_)), "{err}");
    }
}
