#!/usr/bin/env python3
"""linksched benchmark: `mix-sweep`, `path-queries` and `montecarlo`.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mix-sweep --seed 3 --seconds 15 --trace 0

It builds the shipped `linksched` binary (default features), the same
binary with `--no-default-features`, and the per-layer probe in
`perfbench/tracer`, all into `$CARGO_TARGET_DIR` (default
`.bench_build`), and copies them to `perfbench/.bin`. The workload's
inputs are generated from `--seed`.

`--trace 0` measures the end-to-end metrics with tracing off; `--trace
1` makes the separate traced run that reports the per-layer metrics
(see perfbench/README.md). The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line
before it is `# meta {...}` with the run's metadata.

`--write-reference` regenerates perfbench/reference/<workload>.json
from the pinned seed (use only when the program's output is meant to
change).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

import layers
import workloads

WORKLOADS = ["mix-sweep", "path-queries", "montecarlo"]
BIN = os.path.join("perfbench", ".bin")


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    p = subprocess.run(["cargo", "build", "--release", "--offline", "-q", *args], env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed:\n{p.stderr}")


def build():
    """Builds the three binaries and returns their paths."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        fail("run from the root of a linksched source checkout (no Cargo.toml/crates here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(BIN, exist_ok=True)
    out = {}
    for name, args, built in [
        ("linksched", ["--bin", "linksched"], "linksched"),
        ("linksched-notel", ["--bin", "linksched", "--no-default-features"], "linksched"),
        ("tracer", ["--manifest-path", os.path.join("perfbench", "tracer", "Cargo.toml")],
         "perfbench-tracer"),
    ]:
        cargo(args, target)
        dst = os.path.join(BIN, name)
        # Copy, then rename over the old binary, which may still be
        # running in another process.
        shutil.copy2(os.path.join(target, "release", built), dst + ".tmp")
        os.replace(dst + ".tmp", dst)
        out[name] = dst
    return out


def source_digest():
    """SHA-256 over the sources the binaries are built from (the
    checkout need not be a git repository)."""
    h = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock"]
    for top in ("src", "crates"):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names if n.endswith((".rs", ".toml"))]
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def metadata(trace):
    def cmd(args):
        try:
            return subprocess.run(args, capture_output=True, text=True).stdout.strip() or None
        except OSError:
            return None

    return {
        "nproc": os.cpu_count(),
        "rustc": cmd(["rustc", "--version"]),
        "git_rev": cmd(["git", "rev-parse", "--short", "HEAD"]),
        "source_sha256": source_digest(),
        "features": "default (telemetry)" + ("; tracer: telemetry; notel: none" if trace else ""),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true")
    a = ap.parse_args()
    if a.seconds <= 0:
        fail("--seconds must be positive")
    binaries = build()
    if a.write_reference:
        ref = workloads.pinned_outputs(a.workload, binaries)
        path = os.path.join(workloads.REFERENCE_DIR, f"{a.workload}.json")
        with open(path, "w") as f:
            json.dump(dict(ref, seed=workloads.PINNED_SEED), f, indent=1)
            f.write("\n")
        print(f"wrote {path}")
        return
    meta = metadata(a.trace)
    if a.trace:
        metrics, attempted, failed, extra = layers.run_traced(a.workload, a.seed, binaries)
    else:
        metrics, attempted, failed, extra = workloads.run_end_to_end(
            a.workload, a.seed, a.seconds, binaries)
    meta.update(extra, workload=a.workload, seed=a.seed, trace=a.trace)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and meta.get("coverage_ok", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
