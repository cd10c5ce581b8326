#!/usr/bin/env python3
"""Where one gpmd's CPU goes, thread by thread, under perfbench load.

Run from the root of a source checkout, after perfbench/run.py has built
its programs and filled its profile store (or with --gpmd/--loadgen/--store
pointing at others):

    python3 scripts/gpmd_threads.py --workload cold --seed 1 --seconds 8

It starts one gpmd (--scale 0.05, as perfbench runs it) over the warm
profile store, waits until every suite profile is ready, then drives
perfbench's gpm_loadgen against it for --seconds (plus the load generator's
one-second warm-up). Around the load it reads, for every thread of the
daemon, /proc/<pid>/task/<tid>/comm, stat (user and system time), status
(voluntary context switches) and io (syscr and syscw: read-like and
write-like system calls). It prints each thread's share per scenario served,
then the totals per thread name (gpmd names its threads gpm-reactor,
gpm-worker and gpm-pool) and for the whole process.

The script only reads /proc and runs the given programs; it writes nothing
but the daemon's log and the load generator's digests, in a temporary
directory removed at exit.
A thread that exits during the load is not counted.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

SCALE = 0.05  # as perfbench/run.py
SUITE_PROFILES = 12


def fail(msg):
    print("gpmd_threads: " + msg, file=sys.stderr)
    sys.exit(1)


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
        fail("stats failed: %r" % reply)
    return reply["result"]


def read_fields(path):
    """'key: value' lines of a /proc file, as a dict of strings."""
    out = {}
    with open(path) as f:
        for line in f:
            key, _, value = line.partition(":")
            out[key.strip()] = value.split()[0] if value.split() else ""
    return out


def snapshot(pid):
    """Per thread: name, user and system seconds, voluntary context
    switches, syscr, syscw. Threads that vanish mid-read are skipped."""
    tick = os.sysconf("SC_CLK_TCK")
    threads = {}
    for tid in os.listdir("/proc/%d/task" % pid):
        base = "/proc/%d/task/%s/" % (pid, tid)
        try:
            with open(base + "comm") as f:
                comm = f.read().strip()
            with open(base + "stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            status = read_fields(base + "status")
            io = read_fields(base + "io")
        except (FileNotFoundError, ProcessLookupError):
            continue
        threads[int(tid)] = {
            "comm": comm,
            "user": int(fields[11]) / tick,
            "sys": int(fields[12]) / tick,
            "vcs": int(status["voluntary_ctxt_switches"]),
            "syscr": int(io["syscr"]),
            "syscw": int(io["syscw"]),
        }
    return threads


def per_request(before, after, served):
    """What each thread in the after snapshot spent since the before
    snapshot, per request served (a thread started since counts from 0)."""
    rows = []
    for tid, a in sorted(after.items()):
        b = before.get(tid, {"user": 0, "sys": 0, "vcs": 0, "syscr": 0,
                             "syscw": 0})
        rows.append({
            "tid": tid,
            "comm": a["comm"],
            "user_us": (a["user"] - b["user"]) * 1e6 / served,
            "sys_us": (a["sys"] - b["sys"]) * 1e6 / served,
            "vcs": (a["vcs"] - b["vcs"]) / served,
            "syscr": (a["syscr"] - b["syscr"]) / served,
            "syscw": (a["syscw"] - b["syscw"]) / served,
        })
    return rows


def print_table(title, rows, key):
    print(title)
    print("%-18s %10s %10s %10s %8s %8s" % (key, "user us", "sys us",
                                             "vol cs", "syscr", "syscw"))
    for r in rows:
        print("%-18s %10.2f %10.2f %10.3f %8.3f %8.3f" % (
            r[key], r["user_us"], r["sys_us"], r["vcs"], r["syscr"],
            r["syscw"]))
    print()


def totals(rows, name_of):
    """The rows summed by name_of(row), in first-seen order."""
    out = {}
    for r in rows:
        name = name_of(r)
        t = out.setdefault(name, {"name": name, "user_us": 0.0,
                                  "sys_us": 0.0, "vcs": 0.0, "syscr": 0.0,
                                  "syscw": 0.0})
        for k in ("user_us", "sys_us", "vcs", "syscr", "syscw"):
            t[k] += r[k]
    return list(out.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cold", "manycore"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--build", default=".bench_build",
                    help="perfbench build directory (default .bench_build)")
    ap.add_argument("--gpmd", help="gpmd to measure "
                    "(default BUILD/gpm/src/service/gpmd)")
    ap.add_argument("--loadgen", help="load generator "
                    "(default BUILD/gpm_loadgen)")
    ap.add_argument("--store", help="warm profile store "
                    "(default BUILD/profiles)")
    args = ap.parse_args()

    gpmd = args.gpmd or os.path.join(args.build, "gpm", "src", "service",
                                     "gpmd")
    loadgen = args.loadgen or os.path.join(args.build, "gpm_loadgen")
    store = args.store or os.path.join(args.build, "profiles")
    for path in (gpmd, loadgen):
        if not os.access(path, os.X_OK):
            fail("%s is not an executable; build it first (perfbench/run.py "
                 "does)" % path)
    if not os.path.isdir(store):
        fail("no profile store at %s" % store)

    workdir = tempfile.mkdtemp(prefix="gpmd_threads_")
    log = open(os.path.join(workdir, "gpmd.log"), "w")
    proc = subprocess.Popen(
        [gpmd, "--port", "0", "--scale", str(SCALE), "--profile-cache-dir",
         store], stdout=subprocess.PIPE, stderr=log, text=True)
    try:
        port = None
        for line in proc.stdout:
            if line.startswith("gpmd: listening on "):
                port = int(line.rsplit(":", 1)[1])
                break
        if port is None:
            log.flush()
            with open(log.name) as f:
                fail("gpmd did not start:\n" + f.read()[-2000:])
        deadline = time.monotonic() + 120.0
        while stats(port)["profileReady"] < SUITE_PROFILES:
            if time.monotonic() > deadline:
                fail("gpmd profiles never became ready")
            time.sleep(0.05)

        served0 = stats(port)["served"]
        before = snapshot(proc.pid)
        load = subprocess.run(
            [loadgen, "--port", str(port), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--digests", os.path.join(workdir, "digests.txt")],
            stdout=subprocess.PIPE, text=True, timeout=args.seconds + 120)
        after = snapshot(proc.pid)
        served = stats(port)["served"] - served0
        if load.returncode != 0 or served <= 0:
            fail("the load failed (exit %d, %d served)"
                 % (load.returncode, served))
        summary = json.loads(load.stdout.strip().splitlines()[-1])
        if summary["failed"]:
            fail("%d requests failed: %r" % (summary["failed"],
                                             summary.get("errors")))

        rows = per_request(before, after, served)
        print("gpmd %s: %s workload, seed %d, %d scenarios served; "
              "figures are per scenario\n"
              % (gpmd, args.workload, args.seed, served))
        print_table("per thread", [dict(r, thread="%s/%d" % (r["comm"],
                                                            r["tid"]))
                                   for r in rows], "thread")
        print_table("per thread name", totals(rows, lambda r: r["comm"]),
                    "name")
        print_table("whole process", totals(rows, lambda r: "gpmd"), "name")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        log.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
