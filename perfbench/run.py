#!/usr/bin/env python3
"""axosyslog_ray benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
the line before it records the environment (`info`). Everything else
goes to standard error.

This process only supervises. It marks itself a child subreaper, runs
each step (job.py) in a child process, and after every step kills and
reaps whatever that step left behind, Ray's daemons and workers
included. On SIGTERM, SIGINT or the deadline it kills every descendant,
reaps them, and exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flagship", "config_paths")
DEADLINE_S = 160.0
SETUP_REPS = 3
PR_SET_CHILD_SUBREAPER = 36
# AF_UNIX socket paths are limited to 107 bytes; Ray's session socket path
# adds this many to its temp dir
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_1234567/sockets/plasma_store")


class Deadline(Exception):
    pass


class Interrupted(Exception):
    def __init__(self, signum: int):
        super().__init__(signal.Signals(signum).name)
        self.signum = signum


def children_of(root: int) -> list[int]:
    """Every live descendant of `root` (zombies included), from /proc."""
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            kids.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for pid in kids.get(todo.pop(), []):
            out.append(pid)
            todo.append(pid)
    return out


class Supervisor:
    def __init__(self, deadline: float):
        self.deadline = deadline
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")

    def reap(self) -> dict[int, int]:
        """Reap every exited child; -> {pid: exit code}."""
        done = {}
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return done
            if pid == 0:
                return done
            done[pid] = os.waitstatus_to_exitcode(status)

    def run(self, argv: list[str], env: dict) -> int:
        """Run one step to completion; -> its exit code. Raises Deadline."""
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr.fileno())
        try:
            while True:
                code = self.reap().get(proc.pid)
                if code is not None:
                    proc.returncode = code
                    return code
                if time.monotonic() > self.deadline:
                    raise Deadline(" ".join(argv[1:3]))
                time.sleep(0.05)
        finally:
            self.clean()

    def clean(self, grace: float = 0.5) -> list[int]:
        """Let descendants exit for `grace` s, then SIGTERM, then SIGKILL;
        reap them all. -> pids still alive afterwards."""
        me = os.getpid()
        for sig, wait in ((None, grace), (signal.SIGTERM, 3.0), (signal.SIGKILL, 5.0)):
            live = self._live(me)
            if not live:
                break
            for pid in live:
                if sig is not None:
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
            end = time.monotonic() + wait
            while self._live(me) and time.monotonic() < end:
                time.sleep(0.05)
        return self._live(me)

    def _live(self, me: int) -> list[int]:
        self.reap()
        live = []
        for pid in children_of(me):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                continue
            if state != "Z":
                live.append(pid)
        return live


def nproc() -> int:
    """What `nproc` prints: usable CPUs, capped by OMP_NUM_THREADS."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha1 over the package's Python sources: names the code under test
    where the checkout is not a git repository."""
    h = hashlib.sha1()
    pkg = os.path.join(ROOT, "axosyslog_ray")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                h.update(os.path.relpath(os.path.join(d, f), pkg).encode())
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "axosyslog_ray")):
        print(f"run.py: no axosyslog_ray package under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2

    def on_signal(signum, _frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        raise Interrupted(signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    sup = Supervisor(time.monotonic() + DEADLINE_S)
    cache = os.path.join(HERE, ".cache")
    work = os.path.join(HERE, ".work")
    ray_tmp = os.path.join(HERE, ".ray")
    ncpu = nproc()
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0",
               PYTHONPATH=os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p))
    base = [sys.executable, os.path.join(HERE, "job.py")]
    common = ["--seed", str(args.seed), "--num-cpus", str(ncpu), "--cache", cache, "--work", work]
    if len(ray_tmp) + RAY_SOCKET_SUFFIX <= 107:
        common += ["--ray-tmp", ray_tmp]
    else:
        print(f"run.py: {ray_tmp} is too long for Ray's sockets; Ray uses its default temp dir",
              file=sys.stderr)
    results = []

    def step(mode: str, workload: str, extra=()) -> dict:
        out = os.path.join(work, f"{mode}-{len(results)}.json")
        argv = [*base, mode, "--workload", workload, *common, "--out", out, *extra]
        start = time.monotonic()
        code = sup.run([*argv, "--t0", repr(time.time())], env)
        print(f"run.py: {mode} step took {time.monotonic() - start:.1f} s", file=sys.stderr)
        if code != 0:
            raise RuntimeError(f"{mode} step exited with code {code}")
        with open(out) as fh:
            results.append(json.load(fh))
        return results[-1]

    try:
        for d in (work, ray_tmp):
            shutil.rmtree(d, ignore_errors=True)
        os.makedirs(work)
        os.makedirs(cache, exist_ok=True)
        if args.trace:
            step("prep", "trace")
            res = step("trace", args.workload)
            metrics = res["metrics"]
        else:
            step("prep", args.workload)
            setups = [step("setup", args.workload)["setup_s"] for _ in range(SETUP_REPS - 1)]
            res = step("run", args.workload, ["--seconds", str(args.seconds)])
            setups.append(res["setup_s"])
            metrics = res["metrics"] and dict(res["metrics"], setup_s=statistics.median(setups))
            print(f"setup_s runs: {[round(s, 3) for s in setups]}; passes: {res['passes']}", file=sys.stderr)
    except (Deadline, Interrupted, RuntimeError, OSError) as exc:
        left = sup.clean(grace=0.0)
        print(f"run.py: stopped: {exc!r}; {len(left)} process(es) left", file=sys.stderr)
        return 128 + exc.signum if isinstance(exc, Interrupted) else 3
    left = sup.clean()
    shutil.rmtree(ray_tmp, ignore_errors=True)
    if left:
        print(f"run.py: processes {left} survived SIGKILL", file=sys.stderr)
        return 4

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if metrics and set(metrics) != set(units):
        print(f"run.py: metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
              f"undeclared {sorted(set(metrics) - set(units))}", file=sys.stderr)
        return 6

    info = {
        "workload": args.workload, "seed": args.seed,
        "rows": res["rows"], "nproc": ncpu, "visible_vcpus": os.cpu_count(), "ray_num_cpus": ncpu,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "source_sha1": source_digest(), **res["versions"],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": res["failed"] == 0 and bool(metrics),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    if not metrics:
        print("run.py: no operation succeeded", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
