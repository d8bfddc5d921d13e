"""Benchmark of the KG engine (``stanford_re_ray``).

    python3 perfbench/run.py --workload kg_bulk --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  One run pins itself to ``nproc`` CPUs,
starts Ray with ``num_cpus`` = ``nproc``, builds the workload's inputs from
``--seed``, trains the model, makes one warm pass (all of that is
set-up), then repeats
whole rounds of the workload's operations until ``--seconds`` have passed
(at least one round), checking every output.  ``--trace 1`` runs one round, then a traced pass, and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Everything else goes to standard error.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
#: scratch space of a run, inside the checkout; also Ray's temp dir
RUN_DIR = os.path.join(ROOT, ".pbrun")
#: longest AF_UNIX path Ray accepts, less what it appends to its temp dir
#: ("/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store")
MAX_RAY_TMP = 107 - 66
OBJECT_STORE_BYTES = 512 * 2**20

def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def n_cpus() -> int:
    """CPUs as ``nproc`` counts them: the affinity mask, overridden by
    ``OMP_NUM_THREADS`` and capped by ``OMP_THREAD_LIMIT``."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        n = int(omp)
    limit = os.environ.get("OMP_THREAD_LIMIT", "").strip()
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


def steal_ticks() -> int:
    """Cumulative CPU steal ticks of the host, all CPUs (0 where not
    reported)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if len(fields) > 8 else 0
    except OSError:
        return 0


def cpu_probe() -> float:
    """Seconds for a fixed pure-Python loop: ~0.1 s on a quiet core."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i * i
    return time.perf_counter() - t0


def start_ray():
    import ray

    # run the driver, Ray's daemons and its workers on nproc CPUs, as on a
    # host that has that many: left to roam over every CPU of the mask, a
    # one-CPU Ray run wakes idle virtual CPUs at each hop and reads the
    # hypervisor's steal (runs spread 100-150 docs/s; pinned, 96-107)
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:n_cpus()])
    os.makedirs(RUN_DIR, exist_ok=True)
    # Ray workers import the package from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kwargs = {}
    if len(RUN_DIR) <= MAX_RAY_TMP:
        kwargs["_temp_dir"] = RUN_DIR
    else:
        log("checkout path too long for Ray's sockets; Ray uses its "
            "default temp dir")
    ray.init(address="local", num_cpus=n_cpus(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return ray


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    work = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.WORKLOADS[name](work, seed)
    host = {"nproc": n_cpus(), "cpu_probe_s": cpu_probe()}
    steal0, t_run = steal_ticks(), time.perf_counter()
    ray = None
    session_dir = None
    correct, ops, rounds = True, [], 0
    metrics: dict = {}
    try:
        t0 = time.perf_counter()
        ray = start_ray()
        session_dir = ray._private.worker._global_node.get_session_dir_path()
        t1 = time.perf_counter()
        wl.setup()
        t2 = time.perf_counter()
        wl.warm()
        setup_s = time.perf_counter() - t0
        log(f"{name}: setup {setup_s:.2f} s (Ray {t1 - t0:.2f}, inputs and "
            f"model {t2 - t1:.2f}, warm pass {t0 + setup_s - t2:.2f})")
        t_start = time.perf_counter()
        # at least one round; a traced run needs just one, for
        # trace.overhead_s, and its traced pass then outlasts any window
        while not rounds or (
                not trace and time.perf_counter() - t_start < seconds):
            got = wl.round()
            rounds += 1
            ops += got
            log(f"{name}: round {rounds}: " + ", ".join(
                f"{o.seconds:.2f} s{' FAILED' if o.failed else ''}"
                for o in got))
        if any(o.failed and not o.known_fault for o in ops):
            correct = False
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        e2e = dict(wl.metrics(ops), setup_s=(setup_s, "s"),
                   driver_peak_rss_mb=(peak_mb, "MB"))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        if trace:
            per_layer = wl.trace(ops)
            units = spec_units("per_layer")
            missing = sorted(set(units) - set(per_layer))
            if missing:
                raise RuntimeError(f"traced run lacks {missing}")
            metrics = {k: {"value": per_layer[k], "unit": units[k]}
                       for k in units}
    except Exception:
        # a wrong output or a crash: report it, never a figure
        log(traceback.format_exc())
        correct = False
    finally:
        if ray is not None:
            ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        if session_dir and session_dir.startswith(RUN_DIR):
            shutil.rmtree(session_dir, ignore_errors=True)
            latest = os.path.join(RUN_DIR, "session_latest")
            if os.path.islink(latest) and not os.path.exists(latest):
                os.unlink(latest)
    # /proc/stat sums steal over every CPU of the host
    host["steal_pct"] = 100 * (steal_ticks() - steal0) / os.sysconf(
        "SC_CLK_TCK") / max(1e-9, time.perf_counter() - t_run) / os.cpu_count()
    log(f"{name}: host {json.dumps(host)}")
    failed = sum(o.failed for o in ops)
    for k, v in metrics.items():
        log(f"{name}: {k} = {v['value']:.6g} {v['unit']}")
    log(f"{name}: attempted {len(ops)}, failed {failed}")
    return {"correct": correct and bool(metrics), "attempted": len(ops),
            "failed": failed, "metrics": metrics}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spec_units(kind: str) -> dict:
    """name → unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


def run_all(args) -> int:
    """Every workload of BENCHMARK.json, each in its own process; one JSON
    line each."""
    names = [w["name"] for w in load_spec()["workloads"]]
    code = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
        print(json.dumps({"workload": name, "result": json.loads(line)})
              if res.returncode == 0 else
              json.dumps({"workload": name, "exit": res.returncode}),
              flush=True)
        code = code or res.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, ROOT)
    try:
        import stanford_re_ray  # noqa: F401  (the program under test)
    except ImportError as e:
        log(f"cannot import the program under test from {ROOT}: {e}")
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; "
            f"one of {sorted(workloads.WORKLOADS)} or 'all'")
        return 2
    # a terminated run still shuts Ray down and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
