//! Golden-output regression tests: `linksched run` on the shipped
//! figure scenarios must print byte-identical stdout to the
//! pre-scenario-engine implementation (captures in `tests/golden/`,
//! see its README for the exact invocations).
//!
//! The full-size figure analyses take on the order of a minute each in
//! release, so these tests are `#[ignore]`d by default and run in the
//! release-mode CI step (`cargo test --release -q -- --ignored`).

use std::process::Command;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// `linksched run examples/scenarios/<scenario>.json <args>`.
fn run(scenario: &str, args: &[&str]) -> String {
    let path = format!("{}/examples/scenarios/{scenario}.json", env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_linksched"))
        .arg("run")
        .arg(&path)
        .args(args)
        .output()
        .expect("spawn linksched");
    assert!(
        out.status.success(),
        "linksched run {scenario} failed ({:?}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn assert_identical(name: &str, actual: &str) {
    let expected = golden(name);
    if expected != actual {
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(e, a, "{name}: first divergence at line {}", i + 1);
        }
        panic!(
            "{name}: line counts differ (golden {} vs actual {})",
            expected.lines().count(),
            actual.lines().count()
        );
    }
}

/// Strips the nondeterministic wall-clock fields from the ablation
/// output: the two trailing `t(...)[µs]` columns of the ablation-1
/// rows and every digit of the ablation-4 timing/speedup line. All
/// other numbers (bounds, σ values, grid losses, the streaming-vs-
/// exact comparison) are deterministic and compared exactly.
fn mask_timings(text: &str) -> String {
    let mut out = Vec::new();
    let mut in_optimizer_table = false;
    for line in text.lines() {
        if line.starts_with("# Ablation") {
            in_optimizer_table = line.starts_with("# Ablation 1");
        }
        let first = line.trim_start().chars().next();
        let masked = if in_optimizer_table && first.is_some_and(|c| c.is_ascii_digit() || c == '-')
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            fields[..fields.len().saturating_sub(2)].join(" ")
        } else if line.starts_with("threads=") {
            line.chars().map(|c| if c.is_ascii_digit() { '#' } else { c }).collect()
        } else {
            line.to_string()
        };
        out.push(masked);
    }
    out.join("\n")
}

#[test]
#[ignore = "full-size run (~minutes); exercised in the release CI step"]
fn validate_matches_pre_refactor_output() {
    let actual = run("validate", &["--reps", "2", "--slots", "11000"]);
    assert_identical("validate.txt", &actual);
}

#[test]
#[ignore = "full-size run (~minutes); exercised in the release CI step"]
fn fig2_matches_pre_refactor_output() {
    let actual = run("fig2", &["--sim", "--reps", "2", "--slots", "6000"]);
    assert_identical("fig2.txt", &actual);
}

#[test]
#[ignore = "full-size run (~minutes); exercised in the release CI step"]
fn fig3_matches_pre_refactor_output() {
    let actual = run("fig3", &["--sim", "--reps", "2", "--slots", "6000"]);
    assert_identical("fig3.txt", &actual);
}

#[test]
#[ignore = "full-size run (~minutes); exercised in the release CI step"]
fn fig4_matches_pre_refactor_output() {
    let actual = run("fig4", &["--sim", "--reps", "2", "--slots", "6000"]);
    assert_identical("fig4.txt", &actual);
}

#[test]
#[ignore = "full-size run (~minutes); exercised in the release CI step"]
fn ablation_matches_pre_refactor_output_modulo_timings() {
    let actual = run("ablation", &["--reps", "2", "--slots", "6000"]);
    let expected = mask_timings(&golden("ablation.txt"));
    let actual = mask_timings(&actual);
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "ablation.txt: first divergence at line {}", i + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count(), "ablation.txt: line counts");
}
