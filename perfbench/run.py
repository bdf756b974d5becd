"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-anchor --seed 0 --seconds 60 --trace 0

With ``--trace 0`` the workload runs its untimed warm-up passes, then timed
passes for ``--seconds`` seconds (at least one), with the set-up probes run
between them, and the end-to-end metrics are reported.  With ``--trace 1``
it runs one untraced pass, then the set-up and one pass with every layer
wrapped, and the per-layer metrics are reported; the spans are kept in
``perfbench/.work/spans-<workload>-seed<seed>.jsonl``.

Every output is checked against ``pins.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the run (environment,
pass times, notes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checkout

SETUP_PROBES = 15
MAX_NOTES = 20


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    commit = None
    if (checkout.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((checkout.SRC / "eaqldpc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    finished child (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_seconds(workload_name: str) -> float:
    out = subprocess.run(
        [sys.executable, str(checkout.BENCH / "probe.py"), workload_name],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def untraced(workload, ctx, args, pins, work_dir):
    from workloads import run_pass

    # untimed warm-up: a fresh process pays first-touch costs on its first pass
    passes = [run_pass(workload, ctx, args.seed, pins, work_dir)
              for _ in range(workload.warmup_passes)]
    timed, setups, rss = [], [], None
    t0 = time.perf_counter()
    while not any(p.raised for p in passes):
        timed.append(run_pass(workload, ctx, args.seed, pins, work_dir))
        passes.append(timed[-1])
        if rss is None:
            # read before any probe has ended: probes are children too
            rss = peak_rss_mb()
            setup_seconds(workload.name)  # warm-up: loads the imports into the page cache
        # start another pass only if it should end within the run
        if time.perf_counter() - t0 + timed[-1].seconds > args.seconds:
            break
        # probes spread evenly over the run see the same machine as the passes
        if time.perf_counter() - t0 >= len(setups) * args.seconds / SETUP_PROBES:
            setups.append(setup_seconds(workload.name))
    if not timed:  # the warm-up raised
        timed, rss = passes, peak_rss_mb()
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(workload.name))
    pass_s = statistics.median(p.seconds for p in timed)
    metrics = {
        "pass_s": (pass_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    record = {"warmup_seconds": [p.seconds for p in passes[:workload.warmup_passes]],
              "pass_seconds": [p.seconds for p in timed], "setup_seconds": setups}
    if workload.trials_per_pass:
        record["trials_per_s"] = workload.trials_per_pass / pass_s
    return passes, metrics, record


def traced(workload, ctx, args, pins, work_dir):
    import layers
    import spans
    from workloads import clear_library_caches, run_pass

    base = run_pass(workload, ctx, args.seed, pins, work_dir)
    tracer = spans.Tracer(f"{workload.name}-{args.seed}-{os.getpid()}", work_dir / "spool")
    with layers.Instrumentation(tracer):
        # the traced set-up repeats what setup_s times, from empty caches
        clear_library_caches()
        ctx = workload.setup()
        run = run_pass(workload, ctx, args.seed, pins, work_dir)
    records = tracer.collect()
    with open(checkout.WORK / f"spans-{workload.name}-seed{args.seed}.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")

    values = layers.layer_metrics(records)
    excluded = layers.excluded_seconds(records, os.getpid(), getattr(workload, "workers", 1))
    values["trace.overhead_share"] = (run.seconds - excluded) / base.seconds - 1.0
    units = layers.metric_units()
    metrics = {name: (int(values[name]) if unit == "count" else float(values[name]), unit)
               for name, unit in units.items()}

    # the trace must not change any output, and its failure split must add
    # up to the block errors the simulator returned
    problems = []
    if run.outputs != base.outputs:
        problems.append("traced outputs differ from the untraced pass")
    if not layers.taxonomy_consistent(records):
        problems.append("detected + undetected split disagrees with the block errors")
    if problems and not run.raised:
        run.failed = run.attempted
        run.notes = problems + run.notes
    record = {"pass_seconds": [base.seconds, run.seconds], "excluded_seconds": excluded}
    return [base, run], metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not checkout.use_checkout_source():
        print(f"error: no eaqldpc source under {checkout.SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, PassResult

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    pins = json.loads(checkout.PINS.read_text()) if checkout.PINS.exists() else {}
    work_dir = checkout.WORK / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workload.setup()
        measure = traced if args.trace else untraced
        passes, metrics, record = measure(workload, ctx, args, pins, work_dir)
    except Exception:  # the library failed outside a pass: every op fails
        traceback.print_exc(file=sys.stderr)
        ops = workload.expected_ops(pins)
        passes = [PassResult(0.0, ops, ops, raised=True, notes=["set-up raised"])]
        metrics, record = {}, {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    unverified = sum(p.unverified for p in passes)
    notes = [n for p in passes for n in p.notes]
    record.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "unverified": unverified, "notes": notes[:MAX_NOTES], "env": environment(),
    })
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and unverified == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
