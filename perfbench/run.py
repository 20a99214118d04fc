"""tpcalc benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; tpcalc is imported from its ``src``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  Lines before it, starting with ``#``, say what was measured.

Set-up (``setup_s``) is timed inside a worker, from its first statement to
its READY line, and host-speed corrected like every timing (see
hostspeed.py).  An untraced run starts ``SETUP_PROBES`` set-up-only workers
before the measuring one and reports the median of all of them.  Workers
run one at a time, so a run never uses more than one core for tpcalc.

Bytecode caching is the same in every run, whatever ran in the checkout
before: each run points ``PYTHONPYCACHEPREFIX`` at a fresh directory of its
own, so ``__pycache__`` directories left by tests or earlier runs are never
read, and fills it with one untimed import of every module the workers and
``cli`` children load, as an installed package would have it.
"""

from __future__ import annotations

import argparse
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
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("expand", "count", "recover", "cli")
SETUP_PROBES = 6
RUN_TIMEOUT = 170  # seconds; the whole run must end within 180
# what workers and `python -m tpcalc.cli` children import before their first job
WARM_IMPORTS = ("argparse, json, resource, runpy, statistics, subprocess, "
                "hostspeed, tracer, workloads, tpcalc.cli")


def communicate(cmd, env, deadline):
    """Run cmd to its end in a process group of its own; return its stdout.
    At the deadline the whole group (a worker and its cli child) is killed."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {' '.join(cmd[1:])} did not end within "
                         f"{RUN_TIMEOUT} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(cmd[1:])} exited with {proc.returncode}")
    return out


def spawn(args, env, deadline):
    """Run a worker to its end; return (its set-up seconds, its other stdout lines)."""
    lines = communicate([sys.executable, WORKER] + args, env, deadline).splitlines()
    if not lines or not lines[0].startswith("READY "):
        raise SystemExit(f"perfbench: worker {' '.join(args)} printed no READY line")
    return float(lines[0].split()[1]), lines[1:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one tpcalc benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tpcalc", "__init__.py")):
        print(f"perfbench: no tpcalc sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT
    pycache = os.path.join(ROOT, ".perfbench_work", f"pycache-{os.getpid()}")
    shutil.rmtree(pycache, ignore_errors=True)
    env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    try:
        communicate([sys.executable, "-c", f"import {WARM_IMPORTS}"],
                    dict(env, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")])),
                    deadline)
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(common + ["--setup-only"], env, deadline)[0])
        setup, lines = spawn(common, env, deadline)
    finally:
        shutil.rmtree(pycache, ignore_errors=True)
    setups.append(setup)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"# setup_s is the median of {len(setups)} worker set-ups; "
              f"the measuring worker's alone: {setup!r} s")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, value in result["metrics"].items():
        metrics[name] = {"value": value, "unit": declared[name]}
    if set(metrics) != set(declared):
        raise SystemExit(f"perfbench: metrics {sorted(set(declared) ^ set(metrics))} "
                         "do not match BENCHMARK.json")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
