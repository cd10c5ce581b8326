#!/usr/bin/env python3
"""gpm's benchmark: seeded traffic against a real gpmd, measured from the client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

It builds gpmd (from this checkout's sources), the load generator and the
traced replay into .bench_build/ (or $CARGO_TARGET_DIR), then:

1. set-up: starts gpmd SETUP_STARTS times over a warm profile store and an
   empty result cache, timing each start from exec to serving (listening and
   all 12 suite profiles ready); setup_s is the median. The last daemon
   serves the load.
2. load: a closed loop (each client waits for its reply) with the
   workload's connections (workload.hh), for --seconds after a one-second
   warm-up. The end-to-end figure is gpmd's CPU time (user + system, from
   /proc) per scenario served: what each scenario costs the machine that
   serves it. Wall-clock throughput and latency are reported too, in traced
   runs, as medians over one-second windows; on shared virtual machines
   they swing with the host's load (consecutive runs differed by up to 3.7x
   while the host stole CPU), which process CPU time does not count.
3. checks: every response ok, never degraded and never cached (every
   scenario is new), a seeded sample of served payloads recomputed
   in-process by the sweep engine and compared, and the
   engine's payloads for golden-<workload>.txt (seed 0) matching the digests
   recorded there: payloads are part of gpm's behaviour contract, so an
   optimisation that changes a single byte of one fails the run.
4. with --trace 1: gpmd's own counters for the load, and the first requests
   of the same stream replayed in-process with a span around each module
   (see replay.cc); these are the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

SCALE = 0.05          # workload length scale, as the repository's benches use
SETUP_STARTS = 15     # daemon starts per run; setup_s is their median
TRACE_REQUESTS = 4000  # replayed requests in a traced run (at most)

# Defined, with their client shapes, in workload.hh.
WORKLOADS = ("cold", "manycore")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then (re)build the three targets; quiet on success."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target", "gpmd",
                      "gpm_loadgen", "gpm_replay",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return {
        "gpmd": os.path.join(build_dir, "gpm", "src", "service", "gpmd"),
        "loadgen": os.path.join(build_dir, "gpm_loadgen"),
        "replay": os.path.join(build_dir, "gpm_replay"),
    }


def request(port, line, timeout=10.0):
    """One NDJSON request on a fresh connection; the parsed reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall((line + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("gpmd closed the connection")
            buf += chunk
    return json.loads(buf)


def stats(port):
    reply = request(port, '{"id":0,"verb":"stats"}')
    if not reply.get("ok"):
        raise RuntimeError("stats failed: %r" % reply)
    return reply["result"]


class Daemon:
    """One gpmd over the shared profile store, with an empty result cache.

    The disk result tier stays off: its fsync per write-through swings by
    more than any bound on shared storage. replay.cc times its writes.
    """

    def __init__(self, exe, run_dir, store, tag):
        self.log_path = os.path.join(run_dir, "gpmd-%s.log" % tag)
        self.log = open(self.log_path, "w")
        self.t0 = time.perf_counter()
        # stdout carries only the lifecycle lines (listening, draining,
        # shutdown complete), so the pipe never fills; logs go to a file.
        self.proc = subprocess.Popen(
            [exe, "--port", "0", "--scale", str(SCALE),
             "--profile-cache-dir", store],
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        self.port = None
        self.lines = []

    def wait_ready(self, timeout=120.0):
        """Seconds from exec until listening with every profile ready."""
        deadline = time.perf_counter() + timeout
        for line in self.proc.stdout:
            self.lines.append(line)
            if line.startswith("gpmd: listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                break
        if self.port is None:
            raise RuntimeError("gpmd did not start: " + self.tail())
        while stats(self.port)["profileReady"] < 12:
            if time.perf_counter() > deadline:
                raise RuntimeError("gpmd profiles never became ready")
        return time.perf_counter() - self.t0

    def tail(self):
        self.log.flush()
        with open(self.log_path) as f:
            return f.read()[-2000:]

    def stop(self):
        """SIGTERM and wait; True when the drain completed cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.log.close()
        self.lines.append(out or "")
        return (self.proc.returncode == 0
                and "gpmd: shutdown complete" in "".join(self.lines))


def cpu_seconds(pid):
    """User plus system CPU time of a live process."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def run_json(cmd):
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=150)
    if out.returncode != 0 or not out.stdout.strip():
        raise RuntimeError("%s failed (exit %d)" % (cmd[0], out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    # A terminated run still stops its daemons (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "service", "gpmd_main.cc")):
        fail("run from the root of a gpm source checkout")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)
    store = os.path.join(build_dir, "profiles")
    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(run_dir)
    daemons = []
    try:
        # Fill the profile store once per checkout, unmeasured.
        d = Daemon(exe["gpmd"], run_dir, store, "prepare")
        daemons.append(d)
        d.wait_ready(timeout=600.0)
        clean = d.stop()

        setup = []
        for k in range(SETUP_STARTS):
            d = Daemon(exe["gpmd"], run_dir, store, str(k))
            daemons.append(d)
            setup.append(d.wait_ready())
            if k + 1 < SETUP_STARTS:
                clean = d.stop() and clean

        checks = os.path.join(run_dir, "digests.txt")
        cpu0 = cpu_seconds(d.proc.pid)
        load = run_json([exe["loadgen"], "--port", str(d.port),
                         "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--digests", checks])
        cpu = cpu_seconds(d.proc.pid) - cpu0
        served = stats(d.port)
        clean = d.stop() and clean

        def verify(seed, digests):
            return run_json([exe["replay"], "--workload", args.workload,
                             "--seed", str(seed), "--scale", str(SCALE),
                             "--store", store, "--verify", digests])

        verified = verify(args.seed, checks)
        golden = verify(0, os.path.join(BENCH_DIR, "golden-%s.txt" % args.workload))
        problems = {
            "load errors": load["errors"],
            "payload mismatches": verified["mismatches"],
            "golden payload mismatches": golden["mismatches"],
            "cache hits": load["cached"],
            "degraded responses": load["degraded"] + served["degradedRequests"],
            "rejections": served["rejectedBusy"] + served["shedOverload"],
            "unclean shutdowns": int(not clean),
        }
        ok = (load["failed"] == 0 and load["measured"] > 0
              and verified["checked"] > 0 and golden["checked"] > 0
              and not any(problems.values()))
        if not ok:
            print("perfbench: checks failed: %r" % problems, file=sys.stderr)

        if args.trace:
            replay = run_json([exe["replay"], "--workload", args.workload,
                               "--seed", str(args.seed), "--scale", str(SCALE),
                               "--store", store,
                               "--trace", str(TRACE_REQUESTS),
                               "--disk-dir", os.path.join(run_dir, "trace-disk")])
            ok = ok and replay["mismatches"] == 0
            metrics = {
                "client_throughput_rps": (load["rps"], "1/s"),
                "client_latency_p50_ms": (load["p50_ms"], "ms"),
                "client_latency_p99_ms": (load["p99_ms"], "ms"),
                "gpmd_epoll_wakeups_per_req":
                    (served["epollWakeups"] / max(1, load["ok"]), "count"),
                "policy_decide_max_us": (replay["policy_decide_max_us"], "us"),
                "policy_overruns": (replay["policy_overruns"], "count"),
            }
            for name in ("json_parse_us", "scenario_parse_us",
                         "scenario_hash_us", "profile_fetch_us",
                         "sim_reference_us", "sim_run_us", "policy_decide_us",
                         "metrics_us", "serialize_us", "disk_put_us",
                         "modules_us", "service_submit_us"):
                metrics[name] = (replay[name], "us")
        else:
            metrics = {
                "cpu_us_per_req": (cpu * 1e6 / max(1, load["ok"]), "us"),
                "setup_s": (statistics.median(setup), "s"),
            }
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        for d in daemons:
            d.stop()
        fail(str(e))
    finally:
        for d in daemons:
            if d.proc.poll() is None:
                d.proc.kill()
                d.proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "correct": bool(ok),
        "attempted": load["attempted"],
        "failed": load["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
