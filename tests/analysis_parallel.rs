//! Differential checks of the parallel analytic sweep engine: for
//! every sweep experiment, `linksched run … --threads N` must produce
//! stdout byte-identical to the serial run at N = 1, 2, and 8.
//!
//! The engine guarantees this by construction (cells are pure
//! functions of their index, results are stored by index and printed
//! serially in order, and the shared solver cache only ever returns
//! bit-exact values) — these tests pin the guarantee at the binary
//! boundary, where a regression would silently corrupt figure output.
//!
//! Small purpose-built grids keep the fast tests fast; the shipped
//! full-size Fig. 3 scenario has an `#[ignore]`d variant for the
//! release CI step, next to an `#[ignore]`d wall-clock guard that the
//! 2-thread sweep is not slower than the serial one.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[String]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_linksched")).args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "linksched {args:?} failed ({:?}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn stdout_at_threads(scenario_path: &str, threads: usize) -> String {
    let args = vec![
        "run".to_string(),
        scenario_path.to_string(),
        "--threads".to_string(),
        threads.to_string(),
    ];
    String::from_utf8(run(&args).stdout).expect("stdout is UTF-8")
}

/// Asserts the serial (1-thread) stdout is byte-identical at 2 and 8
/// worker threads, and non-trivial.
fn assert_thread_invariant(scenario_path: &str, label: &str) {
    let serial = stdout_at_threads(scenario_path, 1);
    assert!(serial.lines().count() > 3, "{label}: suspiciously short output:\n{serial}");
    for threads in [2, 8] {
        let parallel = stdout_at_threads(scenario_path, threads);
        assert_eq!(serial, parallel, "{label}: stdout diverged between 1 and {threads} threads");
    }
}

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("linksched-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn write(&self, name: &str, content: &str) -> String {
        let p = self.0.join(name);
        std::fs::write(&p, content).expect("write scenario");
        p.to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn utilization_sweep_is_thread_invariant() {
    // The shipped CI scenario exercises the real utilization_sweep
    // path including the shared-cache FIFO/EDF columns.
    assert_thread_invariant(
        &repo_path("examples/scenarios/sweep_small.json"),
        "sweep_small (utilization_sweep)",
    );
}

#[test]
fn mix_sweep_is_thread_invariant() {
    let scratch = Scratch::new("mix-par");
    let path = scratch.write(
        "mix_small.json",
        r#"{
  "name": "mix_small",
  "experiment": "mix_sweep",
  "params": {
    "hops": [2],
    "u_total": 0.30,
    "mix_start": 25,
    "mix_stop": 75,
    "mix_step": 50,
    "edf_ratio_short": 2.0,
    "edf_ratio_long": 0.5,
    "epsilon": 1e-6
  },
  "sim": {"reps": 1, "slots": 2000}
}"#,
    );
    assert_thread_invariant(&path, "mix_small (mix_sweep)");
}

#[test]
fn path_sweep_is_thread_invariant() {
    let scratch = Scratch::new("path-par");
    let path = scratch.write(
        "path_small.json",
        r#"{
  "name": "path_small",
  "experiment": "path_sweep",
  "params": {
    "hops": [1, 2],
    "utilizations": [0.30],
    "edf_cross_ratio": 10.0,
    "epsilon": 1e-6
  },
  "sim": {"reps": 1, "slots": 2000}
}"#,
    );
    assert_thread_invariant(&path, "path_small (path_sweep)");
}

#[test]
fn cross_sweep_is_thread_invariant() {
    // `linksched sweep` goes through the same engine; its CrossSweep
    // experiment parallelizes over the cross-flow axis.
    let base = ["sweep", "--hops", "2", "--through", "20", "--cross-max", "100"];
    let at = |threads: usize| {
        let mut args: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        args.push("--threads".to_string());
        args.push(threads.to_string());
        String::from_utf8(run(&args).stdout).expect("stdout is UTF-8")
    };
    let serial = at(1);
    assert!(serial.lines().count() > 3, "cross sweep output too short:\n{serial}");
    for threads in [2, 8] {
        assert_eq!(serial, at(threads), "cross sweep diverged at {threads} threads");
    }
}

/// Held by each `#[ignore]`d test: they load every CPU, and run side
/// by side (the harness default) they would skew the perf guard.
static CPU_BOUND: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    CPU_BOUND.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Full-size Fig. 3 at 1 vs 8 threads — the release-CI variant of the
/// fast grids above (minutes of analysis).
#[test]
#[ignore = "full-size figure scenario; run in the release CI step"]
fn fig3_full_is_thread_invariant() {
    let _exclusive = exclusive();
    assert_thread_invariant(&repo_path("examples/scenarios/fig3.json"), "fig3 (mix_sweep)");
}

/// Noise margin of the perf guard: the 2-thread sweep's *fastest* run
/// may be at most this factor slower than the serial sweep's fastest.
/// Minima (not medians) because they are the robust estimator under
/// scheduler noise on shared CI machines; the margin absorbs the
/// residual jitter.
const GUARD_MARGIN: f64 = 1.15;

/// The fastest of 3 timed runs of `linksched run <path> --threads N`,
/// after 1 warm-up run.
fn fastest_run(path: &str, threads: usize) -> Duration {
    stdout_at_threads(path, threads);
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            stdout_at_threads(path, threads);
            t0.elapsed()
        })
        .min()
        .expect("three timed runs")
}

/// Perf guard: the smoke-size Fig. 3 grid (H ∈ {2, 5}, mix 25/50/75 %,
/// U = 50 %, ε = 1e-6) must not run slower at 2 threads than at 1.
/// On a single CPU the 2 threads merely time-slice the same work, so
/// the property is not observable there: the test passes and prints
/// the timings.
#[test]
#[ignore = "wall-clock perf guard; run in the release CI step"]
fn two_thread_fig3_sweep_is_not_slower_than_serial() {
    let _exclusive = exclusive();
    let scratch = Scratch::new("perf-guard");
    let path = scratch.write(
        "fig3_smoke.json",
        r#"{
  "name": "fig3_smoke",
  "experiment": "mix_sweep",
  "params": {
    "hops": [2, 5],
    "u_total": 0.50,
    "mix_start": 25,
    "mix_stop": 75,
    "mix_step": 25,
    "edf_ratio_short": 2.0,
    "edf_ratio_long": 0.5,
    "epsilon": 1e-6
  },
  "sim": {"reps": 1, "slots": 2000}
}"#,
    );
    let serial = fastest_run(&path, 1);
    let parallel = fastest_run(&path, 2);
    println!("fig3 smoke sweep, fastest of 3: {serial:?} at 1 thread, {parallel:?} at 2 threads");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        println!("single-CPU machine: the guard is not observable, passing");
        return;
    }
    assert!(
        parallel.as_secs_f64() <= GUARD_MARGIN * serial.as_secs_f64(),
        "fig3 smoke sweep is slower at 2 threads ({parallel:?}) than at 1 ({serial:?}) \
         beyond the {GUARD_MARGIN}x margin"
    );
}
