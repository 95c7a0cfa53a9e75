#!/usr/bin/env python3
"""Benchmark of the nocsprint CLI and the nocsprintd job daemon.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig11 --seed 1 --seconds 30 --trace 0

It builds the programs from source into .bench_build/ (Go build cache
included), runs the workload with one sweep worker for --seconds seconds,
checks every output byte for byte against digests recorded in
perfbench/expected.json, and prints one JSON object as its last line of
output. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics of a separate in-process traced run.
A "record" line before it carries the run's hygiene data (steal time,
involuntary context switches, load average) and the machine fingerprint.

    python3 perfbench/run.py --record

re-records perfbench/expected.json from the current programs.
See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import datetime
import hashlib
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
WORK = os.path.join(BUILD, "work")
EXPECTED = os.path.join(BENCH, "expected.json")
GOLDEN_FIG11 = os.path.join(ROOT, "cmd", "nocsprint", "testdata", "golden", "fig11_fast.json")

# The JSON experiments of the dark_lowload workload, in run order.
DARK = ["fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig12", "duration",
        "feedback", "dimdark", "wires", "gating", "scale", "faults", "llc"]
CLI_EXPERIMENTS = {"fig11": ["fig11"], "dark_lowload": DARK}

# The daemon_jobs session: 300 fast jobs, shuffled by the seed. Measured
# daemon CPU per fast job on a 2-core Xeon host: fig2 2.6 ms (almost all of
# it per-job overhead: HTTP, JSON, snapshots), duration 3.5, fig12 16,
# scale 29, faults 80 and fig11 214 ms. The counts keep every kind of job
# but weight the analytic ones, so per-job and per-point overhead, not the
# simulator, takes most of a session's CPU (see README.md).
JOB_MIX = [("fig2", 140), ("duration", 140), ("fig12", 14), ("scale", 4), ("faults", 1), ("fig11", 1)]
# Finished jobs the daemon recovers at start-up.
BASE_MIX = [(exp, 3) for exp, _ in JOB_MIX]
# Job seed fields cycle through this many values, all with recorded digests.
SPEC_SEEDS = 64
# Client wait between status polls of a job; the last entry repeats.
POLL_DELAYS = [0.001, 0.002, 0.004, 0.005]

TABLE1_RUNS = 10      # CLI set-up samples before the first unit and after each
DAEMON_STARTS = 5     # extra daemon start-ups for set-up samples
MIN_UNITS = 2


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


# Program defects seen during the run that fail no operation; they go to the
# record line.
NOTES = []


def go_env():
    """Environment that keeps the Go toolchain's files inside the checkout."""
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
    })
    for d in (home, env["TMPDIR"]):
        os.makedirs(d, exist_ok=True)
    return env


def source_hash():
    """SHA-256 over the Go sources, module files and benchmark sources."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for f in sorted(files):
            if f.endswith((".go", ".mod", ".sum", ".py", ".json")):
                p = os.path.join(top, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(env):
    """Builds nocsprint, nocsprintd and the benchmark's helpers, unless the
    sources are unchanged since the last build in this checkout."""
    for need in ("go.mod", os.path.join("cmd", "nocsprint"), os.path.join("cmd", "nocsprintd")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found: run from the root of a nocsprint checkout")
    src = source_hash()
    stamp = os.path.join(BIN, "stamp.json")
    try:
        with open(stamp) as fh:
            info = json.load(fh)
        if info["source"] == src:
            return info
    except (OSError, ValueError, KeyError):
        pass
    os.makedirs(BIN, exist_ok=True)
    for cwd, pkgs in ((ROOT, ["./cmd/nocsprint", "./cmd/nocsprintd"]), (BENCH, ["./spawn", "./trace"])):
        r = subprocess.run(["go", "build", "-o", BIN + os.sep] + pkgs, cwd=cwd, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            raise BenchError("go build failed:\n" + r.stdout)
    gover = subprocess.run(["go", "env", "GOVERSION"], env=env, stdout=subprocess.PIPE,
                           text=True, check=True).stdout.strip()
    info = {"source": src, "go": gover}
    with open(stamp, "w") as fh:
        json.dump(info, fh)
    return info


def binary(name):
    return os.path.join(BIN, name)


def sha(b):
    return hashlib.sha256(b).hexdigest()


def percentile(xs, q):
    """Nearest-rank percentile, as the trace computes it."""
    xs = sorted(xs)
    return xs[max(0, min(len(xs) - 1, math.ceil(q * len(xs)) - 1))]


# ---------------------------------------------------------------- processes

class Spawned:
    """A program started through the spawn helper, which reports the kernel's
    measurements (exec-to-exit wall, CPU, peak RSS, involuntary switches)
    once the program exits."""

    def __init__(self, argv, env, out=None, stderr=None):
        self.proc = subprocess.Popen([binary("spawn"), "-out", out or "", "--"] + argv,
                                     stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=BUILD)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("pid "):
            self.proc.wait()
            raise BenchError(f"could not start {argv[0]}")
        self.pid = int(line.split()[1])

    def wait(self):
        line = self.proc.stdout.readline()
        self.proc.wait()
        if not line:
            raise BenchError("spawn helper failed")
        return json.loads(line)

    def kill(self):
        for pid in (self.pid, self.proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()


def run_cli(args, env, out):
    """Runs nocsprint once; returns the spawn measurements and its stdout."""
    r = Spawned([binary("nocsprint")] + args, env, out=out).wait()
    with open(out, "rb") as fh:
        r["stdout"] = fh.read()
    return r


# ---------------------------------------------------------------- checking

class Checker:
    """Counts operations and checks each output against the recorded digests;
    repeats of a daemon job spec must also match their first result."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first = {}
        self.problems = []

    def op(self, name, ok, data=None, want=None):
        self.attempted += 1
        if ok and data is not None:
            if want is not None and sha(data) != want:
                ok = False
                self.problems.append(f"{name}: output digest differs from the recorded one")
            elif name in self.first and self.first[name] != data:
                ok = False
                self.problems.append(f"{name}: repeat differs from its first result")
            self.first.setdefault(name, data)
        if not ok:
            self.failed += 1
        return ok

    def cli(self, exp, r):
        ok = r["exit"] == 0
        if not ok:
            self.problems.append(f"nocsprint {exp}: exit {r['exit']}")
        return self.op("cli:" + exp, ok, r["stdout"], self.expected["cli"].get(exp))

    def digest(self, name, digest, want):
        self.attempted += 1
        if digest != want:
            self.failed += 1
            self.problems.append(f"{name}: digest {digest} != recorded {want}")


# ---------------------------------------------------------------- CLI workloads

def cli_setup(env, chk, setup):
    """Set-up samples: `nocsprint table1` from exec to exit (process start,
    core.New, activation order and floorplan; no simulation)."""
    out = os.path.join(WORK, "table1.out")
    for _ in range(TABLE1_RUNS):
        r = run_cli(["table1"], env, out)
        chk.cli("table1", r)
        setup["cpu"].append(r["user_s"] + r["sys_s"])
        setup["wall"].append(r["wall_s"])


def cli_unit(env, chk, exps):
    """One unit: each experiment once, back to back, as separate processes."""
    u = {"cpu_s": 0.0, "wall_s": 0.0, "rss_kb": 0, "nivcsw": 0, "ops_ms": []}
    out = os.path.join(WORK, "cli.out")
    for exp in exps:
        r = run_cli(["-workers", "1", "-json", exp], env, out)
        chk.cli(exp, r)
        u["cpu_s"] += r["user_s"] + r["sys_s"]
        u["wall_s"] += r["wall_s"]
        u["rss_kb"] = max(u["rss_kb"], r["maxrss_kb"])
        u["nivcsw"] += r["nivcsw"]
        u["ops_ms"].append(r["wall_s"] * 1e3)
    return u


# ---------------------------------------------------------------- daemon

def splitmix(seed):
    x = seed & 0xFFFFFFFFFFFFFFFF
    while True:
        x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        yield z ^ (z >> 31)


def job_sequence(seed, mix):
    """The seeded job order; every job carries the seed's spec seed."""
    exps = [exp for exp, n in mix for _ in range(n)]
    rng = splitmix(seed)
    for i in range(len(exps) - 1, 0, -1):
        j = next(rng) % (i + 1)
        exps[i], exps[j] = exps[j], exps[i]
    spec_seed = seed % SPEC_SEEDS
    return [{"experiment": e, "fast": True, "workers": 1, "seed": spec_seed} for e in exps]


class Daemon:
    """A job API server (nocsprintd, or the trace serving the same handler),
    with one keep-alive client connection. It logs "job API on http://ADDR"
    once it serves."""

    def __init__(self, env, argv, out=None):
        self.name = os.path.basename(argv[0])
        self.lines = []
        self.addr = None
        self.ready = threading.Event()
        t0 = time.perf_counter()
        self.sp = Spawned(argv, env, out=out, stderr=subprocess.PIPE)
        self.reader = threading.Thread(target=self._read_log, daemon=True)
        self.reader.start()
        try:
            if not self.ready.wait(60) or self.addr is None:
                raise BenchError(f"{self.name} did not start:\n" + "".join(self.lines[-20:]))
            host, port = self.addr.rsplit(":", 1)
            self.conn = http.client.HTTPConnection(host, int(port), timeout=120)
            status, _ = self.request("GET", "/healthz")
            if status != 200:
                raise BenchError(f"/healthz answered {status}")
        except BaseException:
            self.sp.kill()
            raise
        # Exec until the first 200 from /healthz, recovery included: the
        # daemon's CPU and the wall time.
        self.setup_wall_s = time.perf_counter() - t0
        self.setup_s = thread_cpu_s(self.sp.pid)

    def _read_log(self):
        for raw in self.sp.proc.stderr:
            line = raw.decode(errors="replace")
            if self.addr is None and "job API on http://" in line:
                self.addr = line.split("job API on http://", 1)[1].split("/", 1)[0]
                self.ready.set()
            self.lines.append(line)
            del self.lines[:-50]
        self.ready.set()

    def request(self, method, path, body=None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def total_alloc(self):
        status, data = self.request("GET", "/debug/vars")
        if status != 200:
            raise BenchError(f"/debug/vars answered {status}")
        return json.loads(data)["memstats"]["TotalAlloc"]

    def job(self, spec):
        """Submits one job and polls it to completion. Returns (ok, result
        bytes, client latency in seconds, polls, final job view)."""
        t0 = time.perf_counter()
        status, data = self.request("POST", "/v1/jobs", json.dumps(spec))
        if status != 202:
            return False, data, time.perf_counter() - t0, 0, None
        view = json.loads(data)
        polls = 0
        while view["state"] in ("queued", "running"):
            time.sleep(POLL_DELAYS[min(polls, len(POLL_DELAYS) - 1)])
            polls += 1
            status, data = self.request("GET", "/v1/jobs/" + view["id"])
            if status != 200:
                return False, data, time.perf_counter() - t0, polls, None
            view = json.loads(data)
        lat = time.perf_counter() - t0
        if view["state"] != "done":
            return False, view.get("error", "").encode(), lat, polls, view
        status, res = self.request("GET", f"/v1/jobs/{view['id']}/result")
        return status == 200, res, lat, polls, view

    def stop(self):
        """Drains the daemon (SIGTERM) and returns its measurements."""
        self.conn.close()
        os.kill(self.sp.pid, signal.SIGTERM)
        r = self.sp.wait()
        self.reader.join()
        if r["exit"] == 128 + signal.SIGTERM:
            # cmd/nocsprintd starts serving before it installs its SIGTERM
            # handler, so a SIGTERM right after the first /healthz can kill
            # it undrained. Its jobs are all finished here; the rusage holds.
            NOTES.append("nocsprintd died of SIGTERM sent right after start-up (handler not yet installed)")
        elif r["exit"] != 0:
            raise BenchError(f"{self.name} exited {r['exit']}:\n" + "".join(self.lines[-20:]))
        return r


def nocsprintd(env, state):
    return Daemon(env, [binary("nocsprintd"), "-addr", "127.0.0.1:0", "-state", state])


def fresh_state(base, name):
    state = os.path.join(WORK, name)
    shutil.rmtree(state, ignore_errors=True)
    shutil.copytree(base, state)
    return state


def make_base_state(env, seed):
    """A state directory holding finished jobs, for start-up recovery."""
    base = os.path.join(WORK, "base")
    shutil.rmtree(base, ignore_errors=True)
    d = nocsprintd(env, base)
    try:
        for spec in job_sequence(seed, BASE_MIX):
            ok, res, *_ = d.job(spec)
            if not ok:
                raise BenchError(f"base-state job {spec} failed: {res[:200]!r}")
    finally:
        d.stop()
    return base


def daemon_setup(env, base, setup):
    """Extra start-ups (exec to first /healthz 200) on fresh state copies."""
    for _ in range(DAEMON_STARTS):
        d = nocsprintd(env, fresh_state(base, "start"))
        setup["cpu"].append(d.setup_s)
        setup["wall"].append(d.setup_wall_s)
        d.stop()


def job_name(spec):
    return f"job:{spec['experiment']}:{spec['seed']}"


def drive(d, chk, jobs):
    """Runs the job sequence on a started daemon with the closed-loop client
    and checks every result. Returns the client latencies in ms, the poll
    count, and the final view and latency of each job that succeeded."""
    ops_ms, polls, views = [], 0, []
    for spec in jobs:
        ok, res, lat, n, view = d.job(spec)
        name = job_name(spec)
        want = chk.expected["jobs"].get(str(spec["seed"]), {}).get(spec["experiment"])
        if not ok:
            chk.problems.append(f"{name}: {res[:200]!r}")
        chk.op(name, ok, res if ok else None, want)
        ops_ms.append(lat * 1e3)
        polls += n
        if ok:
            views.append((view, lat))
    return ops_ms, polls, views


def daemon_unit(env, chk, base, jobs):
    """One unit: a daemon session over a fresh copy of the base state."""
    d = nocsprintd(env, fresh_state(base, "session"))
    u = {}
    try:
        a0 = d.total_alloc()
        u["ops_ms"], u["polls"], _ = drive(d, chk, jobs)
        u["alloc_mb"] = (d.total_alloc() - a0) / 1e6
    except BaseException:
        d.sp.kill()
        raise
    r = d.stop()
    u.update(cpu_s=r["user_s"] + r["sys_s"], wall_s=r["wall_s"], rss_kb=r["maxrss_kb"],
             nivcsw=r["nivcsw"], setup_s=d.setup_s, setup_wall_s=d.setup_wall_s)
    return u


def golden_crosscheck(env, chk):
    """At spec seed 0 the daemon's fast fig11 result must equal the result
    field of `nocsprint -fast -json fig11` and the committed golden file."""
    d = nocsprintd(env, fresh_state(os.path.join(WORK, "base"), "golden"))
    try:
        ok, res, *_ = d.job({"experiment": "fig11", "fast": True, "workers": 1, "seed": 0})
    finally:
        d.stop()
    cli = run_cli(["-workers", "1", "-fast", "-json", "fig11"], env, os.path.join(WORK, "golden.out"))
    with open(GOLDEN_FIG11, "rb") as fh:
        golden = json.load(fh)
    same = ok and cli["exit"] == 0 and json.loads(res) == json.loads(cli["stdout"])["result"] == golden
    chk.attempted += 2
    if not same:
        chk.failed += 1
        chk.problems.append("daemon fig11 (fast, seed 0) differs from the CLI result or fig11_fast.json")


# ---------------------------------------------------------------- hygiene

def thread_cpu_s(pid):
    """CPU seconds a live process has run so far: the nanosecond run time in
    schedstat, summed over its threads."""
    ns = 0
    task = f"/proc/{pid}/task"
    for tid in os.listdir(task):
        try:
            with open(os.path.join(task, tid, "schedstat")) as fh:
                ns += int(fh.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass  # the thread exited between listing and reading
    return ns / 1e9


def steal_jiffies():
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def fingerprint(info, seed):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        commit = r.stdout.strip() or commit
    return {"cpu_model": model, "nproc": os.cpu_count(), "go": info["go"], "commit": commit,
            "source_sha256": info["source"], "seed": seed}


# ---------------------------------------------------------------- main

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(args, env, chk, base):
    """Untraced run: units until --seconds is used. Set-up samples are spread
    over the run (CLI) or come with every session (daemon), so one busy
    moment on the host cannot shift them all."""
    setup = {"cpu": [], "wall": []}
    if args.workload == "daemon_jobs":
        daemon_setup(env, base, setup)
        jobs = job_sequence(args.seed, JOB_MIX)
        unit = lambda: daemon_unit(env, chk, base, jobs)
        between = lambda: None
    else:
        unit = lambda: cli_unit(env, chk, CLI_EXPERIMENTS[args.workload])
        between = lambda: cli_setup(env, chk, setup)
    units, took = [], []
    t0 = time.perf_counter()
    between()
    while True:
        u0 = time.perf_counter()
        units.append(unit())
        took.append(time.perf_counter() - u0)
        between()
        elapsed = time.perf_counter() - t0
        if len(units) >= MIN_UNITS and elapsed + statistics.median(took) > args.seconds:
            break
    for u in units:
        if "setup_s" in u:
            setup["cpu"].append(u["setup_s"])
            setup["wall"].append(u["setup_wall_s"])
    return units, setup


def summarize(units, setup):
    """End-to-end metrics of an untraced run, and the wall-clock figures that
    go to the record line: on a shared host they follow other tenants' load
    too closely to hold a bound (see README.md)."""
    ops = [x for u in units for x in u["ops_ms"]]
    metrics = {
        "cpu_s": statistics.median(u["cpu_s"] for u in units),
        "max_rss_mb": statistics.median(u["rss_kb"] for u in units) / 1024,
        "setup_s": statistics.median(setup["cpu"]),
    }
    extra = {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "op_p50_ms": percentile(ops, 0.5), "op_p90_ms": percentile(ops, 0.9), "op_samples": len(ops),
        "units": len(units), "unit_cpu_s": [round(u["cpu_s"], 4) for u in units],
        "setup_wall_s": statistics.median(setup["wall"]), "setup_samples": len(setup["cpu"]),
    }
    if "alloc_mb" in units[0]:
        extra["alloc_mb"] = statistics.median(u["alloc_mb"] for u in units)
        extra["polls_per_job"] = sum(u["polls"] for u in units) / len(ops)
    return metrics, extra


def traced(args, env, chk, base):
    """Traced run: one untraced unit as the overhead baseline, then the same
    workload in process under the tracer. For daemon_jobs the trace serves
    the job API and the same client drives the same job sequence."""
    work = os.path.join(WORK, "trace")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary("trace"), "-workload", args.workload, "-work", work]
    out = os.path.join(work, "report.json")
    serve = {}
    if args.workload == "daemon_jobs":
        jobs = job_sequence(args.seed, JOB_MIX)
        base_unit = daemon_unit(env, chk, base, jobs)
        d = Daemon(env, cmd + ["-state", fresh_state(base, "trace-state")], out=out)
        try:
            _, polls, views = drive(d, chk, jobs)
        except BaseException:
            d.sp.kill()
            raise
        r = d.stop()
        serve = serve_times(views)
        serve["serve.polls_per_job"] = polls / len(jobs)
        serve["serve.job_p50_ms"] = percentile(base_unit["ops_ms"], 0.5)
        serve["serve.job_p90_ms"] = percentile(base_unit["ops_ms"], 0.9)
    else:
        base_unit = cli_unit(env, chk, CLI_EXPERIMENTS[args.workload])
        cmd += ["-experiments", ",".join(CLI_EXPERIMENTS[args.workload])]
        log = os.path.join(work, "trace.log")
        with open(log, "wb") as fh:
            r = Spawned(cmd, env, out=out, stderr=fh).wait()
        if r["exit"] != 0:
            with open(log, errors="replace") as fh:
                raise BenchError(f"trace exited {r['exit']}:\n" + fh.read()[-2000:])
    with open(out) as fh:
        rep = json.load(fh)
    outputs = rep["outputs"] or []  # daemon_jobs: the client checked the results
    chk.attempted += rep["attempted"] - len(outputs)
    chk.failed += rep["failed"]
    chk.problems += rep.get("errors", [])
    for o in outputs:
        chk.digest("trace " + o["name"], o["sha256"], chk.expected["cli"].get(o["name"]))
    m = rep["metrics"]
    m.update(serve)
    m["baseline.cpu_s"] = base_unit["cpu_s"]
    m["baseline.wall_s"] = base_unit["wall_s"]
    m["trace.overhead"] = m["trace.cpu_s"] / base_unit["cpu_s"]
    m["trace.wall_s"] = r["wall_s"]
    return m, base_unit["nivcsw"] + r["nivcsw"]


def serve_times(views):
    """Median queue wait (Started-Created), run time (Ended-Started) and
    client overhead (client latency - (Ended-Created)) in ms, from the final
    job views and client latencies of a session."""
    t = lambda v, k: datetime.datetime.fromisoformat(v[k])
    queue = [(t(v, "started") - t(v, "created")).total_seconds() * 1e3 for v, _ in views]
    run = [(t(v, "ended") - t(v, "started")).total_seconds() * 1e3 for v, _ in views]
    over = [lat * 1e3 - (t(v, "ended") - t(v, "created")).total_seconds() * 1e3 for v, lat in views]
    return {"serve.queue_wait_ms": percentile(queue, 0.5), "serve.run_ms": percentile(run, 0.5),
            "serve.overhead_ms": percentile(over, 0.5)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["fig11", "dark_lowload", "daemon_jobs"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true", help="re-record perfbench/expected.json")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")

    env = go_env()
    info = build(env)
    os.makedirs(WORK, exist_ok=True)
    if args.record:
        record(env)
        return

    bench = load_benchmark()
    with open(EXPECTED) as fh:
        chk = Checker(json.load(fh))
    load = os.getloadavg()
    steal0 = steal_jiffies()
    t0 = time.perf_counter()
    base = None
    if args.workload == "daemon_jobs":
        base = make_base_state(env, args.seed)
        if args.seed % SPEC_SEEDS == 0:
            golden_crosscheck(env, chk)

    if args.trace:
        metrics, nivcsw = traced(args, env, chk, base)
        names = bench["per_layer"]
        extra = {}
    else:
        units, setup = measure(args, env, chk, base)
        metrics, extra = summarize(units, setup)
        nivcsw = sum(u["nivcsw"] for u in units)
        names = bench["end_to_end"]

    record_line = {
        "workload": args.workload, "trace": args.trace, "seconds": round(time.perf_counter() - t0, 3),
        "steal_jiffies": steal_jiffies() - steal0, "nivcsw": nivcsw, "loadavg_start": load,
        "error_rate": chk.failed / max(chk.attempted, 1), "problems": chk.problems[:20], "notes": NOTES,
        "machine": fingerprint(info, args.seed), **extra,
    }
    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(BUILD, "records", f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json"), "w") as fh:
        json.dump({"record": record_line, "metrics": metrics}, fh, indent=2)
    print("record " + json.dumps(record_line))
    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in names},
    }))


def record(env):
    """Records the digests of every CLI output and of every daemon job spec
    the workloads can submit."""
    exp = {"cli": {}, "jobs": {}}
    out = os.path.join(WORK, "record.out")
    for name in ["table1", "fig11"] + DARK:
        args = ["table1"] if name == "table1" else ["-workers", "1", "-json", name]
        r = run_cli(args, env, out)
        if r["exit"] != 0:
            raise BenchError(f"nocsprint {name} exited {r['exit']}")
        exp["cli"][name] = sha(r["stdout"])
    state = os.path.join(WORK, "record-state")
    shutil.rmtree(state, ignore_errors=True)
    d = nocsprintd(env, state)
    try:
        for s in range(SPEC_SEEDS):
            for name, _ in JOB_MIX:
                ok, res, *_ = d.job({"experiment": name, "fast": True, "workers": 1, "seed": s})
                if not ok:
                    raise BenchError(f"job {name} seed {s} failed: {res[:200]!r}")
                exp["jobs"].setdefault(str(s), {})[name] = sha(res)
    finally:
        d.stop()
    with open(EXPECTED, "w") as fh:
        json.dump(exp, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
