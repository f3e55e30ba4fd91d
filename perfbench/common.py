"""Shared helpers: process spawning, parsers, percentiles and checks.

Everything here is pure Python 3 standard library so the benchmark runs
in any checkout that can build the Rust workspace.
"""

import math
import os
import re
import subprocess
import tempfile
import time
from dataclasses import dataclass

WORK = os.path.join("perfbench", ".work")


@dataclass
class Proc:
    """One finished child process."""

    out: str
    err: str
    code: int
    wall: float
    cpu: float
    maxrss_mb: float


def spawn(cmd):
    """Runs `cmd` to completion and returns its output, exit code, wall
    time, CPU time and peak resident memory (from wait4's rusage, so
    only this child is counted)."""
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as fo, tempfile.TemporaryFile(dir=WORK) as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return Proc(
            out=fo.read().decode("utf-8", "replace"),
            err=fe.read().decode("utf-8", "replace"),
            code=p.returncode,
            wall=wall,
            cpu=ru.ru_utime + ru.ru_stime,
            maxrss_mb=ru.ru_maxrss / 1024.0,
        )


def co_schedule(cmds, runs):
    """Runs every command of `cmds` over and over at the same time, all
    pinned to one CPU, until each has finished `runs` times, and returns
    each command's finished runs as lists of `Proc`.

    Sharing one CPU in time slices of a few milliseconds, the commands
    see the same machine speed, so their CPU times compare even on a
    host whose speed changes from one second to the next; their wall
    times mean nothing. A command that has reached its count keeps
    running to keep the others company; the run still going at the end
    is killed and dropped."""
    cpu = min(os.sched_getaffinity(0))
    os.makedirs(WORK, exist_ok=True)
    done = [[] for _ in cmds]
    live = {}

    def start(i):
        fo = tempfile.TemporaryFile(dir=WORK)
        fe = tempfile.TemporaryFile(dir=WORK)
        p = subprocess.Popen(cmds[i], stdout=fo, stderr=fe, stdin=subprocess.DEVNULL,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        live[p.pid] = (i, p, fo, fe, time.perf_counter())

    try:
        for i in range(len(cmds)):
            start(i)
        while any(len(d) < runs for d in done):
            pid, status, ru = os.wait4(-1, 0)
            i, p, fo, fe, t0 = live.pop(pid)
            wall = time.perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
            with fo, fe:
                fo.seek(0)
                fe.seek(0)
                done[i].append(Proc(out=fo.read().decode("utf-8", "replace"),
                                    err=fe.read().decode("utf-8", "replace"),
                                    code=p.returncode, wall=wall,
                                    cpu=ru.ru_utime + ru.ru_stime,
                                    maxrss_mb=ru.ru_maxrss / 1024.0))
            start(i)
    finally:
        for _, p, fo, fe, _ in live.values():
            p.kill()
            p.wait()
            fo.close()
            fe.close()
    return done


def percentile(values, q):
    """The q-quantile (0 ≤ q ≤ 1) by linear interpolation between order
    statistics, as numpy's default; `None` for no values."""
    if not values:
        return None
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def max_reported_percentile(n):
    """The highest percentile (as a fraction) with at least ten samples
    beyond it, or `None` if there are fewer than eleven samples."""
    if n < 11:
        return None
    return math.floor(100.0 * (n - 10) / n) / 100.0


def median(values):
    return percentile(values, 0.5)


def parse_prometheus(text):
    """Prometheus text exposition → {series: value}. A series keeps its
    label set verbatim, e.g. `sim_node_queue_depth_count{node="0"}`; comments are
    skipped."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def series_sum(metrics, name):
    """Sum of every series of metric `name` (over all label sets), or
    `None` if the program exported no such series."""
    vals = [v for k, v in metrics.items() if k == name or k.startswith(name + "{")]
    return sum(vals) if vals else None


_BOUND_LINE = re.compile(r"^P\(W > (\S+) ms\) < (\S+)")


def parse_bound(stdout):
    """`linksched bound` stdout → the printed bound string, e.g.
    '155.819', or `None`."""
    for line in stdout.splitlines():
        m = _BOUND_LINE.match(line.strip())
        if m:
            return m.group(1)
    return None


def parse_mix_sweep(stdout):
    """mix_sweep stdout → [(hops, mix, n0, nc, [BMUX, FIFO, EDF(d0<dc),
    EDF(d0>dc)])] with the bounds as printed strings."""
    rows = []
    hops = None
    for line in stdout.splitlines():
        m = re.match(r"^## H = (\d+)", line)
        if m:
            hops = int(m.group(1))
            continue
        f = line.split()
        if hops is not None and len(f) == 7 and re.match(r"^\d+\.\d+$", f[0]):
            rows.append((hops, f[0], int(f[1]), int(f[2]), f[3:7]))
    return rows


def parse_validate(stdout):
    """validate stdout → ({(hops, label): (bound, sim_q, valid)},
    min-plus verdict). Strings are kept as printed."""
    cells = {}
    hops = None
    verdict = None
    for line in stdout.splitlines():
        m = re.match(r"^## H = (\d+)", line)
        if m:
            hops = int(m.group(1))
            continue
        m = re.match(r"^# min-plus cross-check .* -> (\S+)", line)
        if m:
            verdict = m.group(1)
            continue
        m = re.match(r"^\s*(\S.*?)\s+(\S+)\s+(\S+)\s+\[[^\]]*\]\s+.*?\s(yes|NO|-)(?:\s|$)", line)
        if hops is not None and m and m.group(1) != "scheduler":
            cells[(hops, m.group(1))] = (m.group(2), m.group(3), m.group(4))
    return cells, verdict


def is_bound(s):
    """A printed bound is a finite positive number."""
    try:
        v = float(s)
    except (TypeError, ValueError):
        return False
    return math.isfinite(v) and v > 0.0


def not_above(a, b, digits):
    """a ≤ b at `digits` printed decimals (one unit of the last digit
    of slack for the two roundings)."""
    return float(a) <= float(b) + 10.0 ** (-digits)
