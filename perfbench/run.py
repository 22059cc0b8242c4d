"""Benchmark launcher for the sconcave toolkit.

Usage, from the repository root:

    python3 perfbench/run.py --workload rate-laplace --seed 1 --seconds 30 --trace 0

Workloads: rate-laplace, rate-pareto, entropy-cover (see perfbench/README.md).
The launcher imports no numpy.  It pins BLAS to one thread in the
environment it hands to every child, so the measuring process and its pool
workers inherit the pin.  It runs ``measure.py``.  With ``--trace 0`` the
measuring process asks for set-up probes between its studies, spread over
the measurement; for each one the launcher times set-up in a fresh
interpreter while the measuring process waits, and it reports the median of
those probes as ``setup_s``.  The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_REQUEST = "@probe"  # a line of the measuring process: time one set-up probe now
TIME_LIMIT_S = 170.0
PROBE_RESERVE_S = 20.0    # a probe is skipped when less time than this is left


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    paths = [str(root / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def time_setup(cmd, env, deadline: float) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - monotonic()))
        line = proc.stdout.readline().strip() if ready else ""
        elapsed = perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the smoke test")
    args = ap.parse_args()

    deadline = monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "sconcave" / "__init__.py").is_file():
        print("perfbench: run from a checkout of the repository root "
              "(src/sconcave not found)", file=sys.stderr)
        return 2
    env = child_env(root)
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")

    # own process group, so a timeout also stops the pool workers
    proc = subprocess.Popen(cmd + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)],
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    timed_out = threading.Event()

    def stop():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(1.0, deadline - monotonic()), stop)
    watchdog.start()
    setup, lines = [], []
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line != PROBE_REQUEST:
                lines.append(line)
                continue
            # the measuring process waits for the answer, so the probe runs alone
            if deadline - monotonic() > PROBE_RESERVE_S:
                setup.append(time_setup(cmd + ["--setup-only"], env, deadline))
            proc.stdin.write("go\n")
            proc.stdin.flush()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:  # a probe failed
            stop()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if timed_out.is_set():
        print(f"perfbench: measuring process exceeded {TIME_LIMIT_S:.0f} s",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("\n".join(lines))
        print(f"perfbench: measuring process failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        if not setup:
            print("perfbench: no set-up probe ran", file=sys.stderr)
            return 1
        print("setup_s probes: " + ", ".join(f"{t:.4f}" for t in setup), flush=True)
        result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                             **result["metrics"]}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
