//! End-to-end artifact checks for `linksched run` on the shipped
//! `validate` scenario: the Prometheus export, the Chrome trace, the
//! JSONL event stream, the run manifest, and the `--json` results
//! document must all exist and parse, and the run must stay
//! deterministic (same seed ⇒ byte-identical stdout and results JSON).
//! No external tooling: the JSON checks use the crate-internal
//! validator.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("linksched-artifacts-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Absolute path of a shipped scenario: the runs below change into a
/// temporary directory, so a relative path would not resolve.
fn scenario(name: &str) -> String {
    format!("{}/examples/scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

fn run_validate(dir: &TempDir, extra: &[&str]) -> Output {
    // 11k slots = 10k warmup + 1k measured: enough for every artifact
    // while keeping the suite fast.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_linksched"));
    cmd.arg("run").arg(scenario("validate"));
    cmd.args(["--reps", "2", "--slots", "11000", "--threads", "2"]);
    cmd.args(extra);
    cmd.current_dir(&dir.0);
    let out = cmd.output().expect("spawn linksched");
    assert!(out.status.success(), "validate failed: {}", String::from_utf8_lossy(&out.stderr));
    out
}

fn read(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

#[test]
fn validate_emits_parsable_artifacts_and_stays_deterministic() {
    let dir = TempDir::new("full");
    let flags = [
        "--metrics-out",
        "m.prom",
        "--trace-out",
        "t.json",
        "--events-out",
        "e.jsonl",
        "--json",
        "v.json",
    ];
    let first = run_validate(&dir, &flags);

    // Prometheus exposition: when instrumented, at least 10 distinct
    // series spanning the simulator, solver, and min-plus namespaces.
    let prom = read(&dir.path("m.prom"));
    let series: BTreeSet<&str> = prom
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split(['{', ' ']).next().unwrap())
        .collect();
    if cfg!(feature = "telemetry") {
        assert!(series.len() >= 10, "only {} distinct series: {series:?}", series.len());
        for prefix in ["sim_", "core_", "minplus_", "mc_"] {
            assert!(
                series.iter().any(|s| s.starts_with(prefix)),
                "no `{prefix}*` series in {series:?}"
            );
        }
    }

    // Chrome trace: valid JSON; instrumented builds must show the
    // solver span hierarchy (path-level spans nested under the
    // source-tandem root).
    let trace = read(&dir.path("t.json"));
    nc_telemetry::json::validate(&trace).expect("trace JSON parses");
    if cfg!(feature = "telemetry") {
        for name in
            ["core.source_tandem.delay_bound", "core.path.delay_bound", "core.path.gamma_grid"]
        {
            assert!(trace.contains(name), "trace lacks span `{name}`");
        }
    }

    // JSONL event stream: every line is one JSON object.
    let events = read(&dir.path("e.jsonl"));
    for (i, line) in events.lines().enumerate() {
        nc_telemetry::json::validate(line).unwrap_or_else(|e| panic!("events line {}: {e}", i + 1));
    }

    // Run manifest: derived path, parses, lists every artifact.
    let manifest = read(&dir.path("m.prom.manifest.json"));
    nc_telemetry::json::validate(&manifest).expect("manifest parses");
    assert!(manifest.contains("\"binary\": \"validate\""));
    for kind in ["\"metrics\"", "\"trace\"", "\"events\"", "\"results\""] {
        assert!(manifest.contains(kind), "manifest lacks {kind} artifact");
    }

    // --json results: parses and carries the table plus the min-plus
    // cross-check of two independent bound implementations.
    let results = read(&dir.path("v.json"));
    nc_telemetry::json::validate(&results).expect("results JSON parses");
    for key in ["\"sections\"", "\"scheduler\"", "\"minplus_check\"", "\"abs_diff\""] {
        assert!(results.contains(key), "results lack {key}");
    }

    // Determinism: a second identical run (fresh paths) reproduces
    // stdout and the results document byte for byte.
    let dir2 = TempDir::new("repeat");
    let second = run_validate(&dir2, &["--json", "v.json"]);
    assert_eq!(first.stdout, second.stdout, "stdout differs between identical runs");
    assert_eq!(results, read(&dir2.path("v.json")), "results JSON differs between runs");
}

#[test]
fn figure_scenario_rejects_json_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_linksched"))
        .arg("run")
        .arg(scenario("fig2"))
        .args(["--json", "x.json"])
        .output()
        .expect("spawn linksched");
    assert!(!out.status.success(), "fig2 accepted --json");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}
