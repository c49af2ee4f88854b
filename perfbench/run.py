#!/usr/bin/env python3
"""The matula benchmark: one parent process, one child process at a time.

    python3 perfbench/run.py --workload prime-reach --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare old.jsonl new.jsonl

A run prints, as its last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Each
run also appends a record (metrics, failures, environment) to the results
file given by ``--results``.  ``--compare`` reads two results files and
prints, per workload and end-to-end metric, both medians, their ratio and
the bound from BENCHMARK.json.  See README.md for the workloads.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time

import layers
import workloads
from workloads import ROOT, WORK, WORKLOADS, Session

DEFAULT_RESULTS = os.path.join(workloads.HERE, "results", "runs.jsonl")


def run_untraced(w, seconds, started):
    setup_ops = w.setup()
    rounds, durations = [], []
    while True:
        t0 = time.monotonic()
        rounds.append(w.round(False, True))
        durations.append(time.monotonic() - t0)
        projected = time.monotonic() - started + statistics.fmean(durations)
        if len(rounds) >= w.min_rounds and projected > seconds:
            break
    metrics, figures = workloads.end_to_end(setup_ops, rounds)
    figures = {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}
    # Set-up is not counted as attempted: only whole rounds are, so the
    # failed share is the same however many rounds fit.
    return [op for r in rounds for op in r], metrics, {"figures": figures}


def run_traced(w, seconds, started):
    """Pairs of an untraced and a traced round of the same work."""
    traced_rounds, overheads, ops, durations = [], [], [], []
    edges = {}  # "parent > child" -> calls, over all traced rounds
    while True:
        t0 = time.monotonic()
        plain = w.round(False, False)
        traced = w.round(True, False)
        durations.append(time.monotonic() - t0)
        ops += plain + traced
        traced_rounds.append([op.trace for op in traced if op.trace])
        for op in traced:
            for parent, child, n in op.trace["edges"] if op.trace else ():
                key = f"{parent} > {child}"
                edges[key] = edges.get(key, 0) + n
        overheads.append(sum(op.proc.wall_s for op in traced)
                         - sum(op.proc.wall_s for op in plain))
        if time.monotonic() - started + statistics.fmean(durations) > seconds:
            break
    extra = {"kernel_values_per_s": kernel_rates(), "span_edges": edges}
    return ops, layers.run_metrics(traced_rounds, overheads), extra


def kernel_rates():
    """values/s of each importable sieve kernel, on one fixed segment."""
    out_path = os.path.join(WORK, "kernels.json")
    proc = workloads.spawn([workloads.CHILD, "kernels", out_path])
    if proc.rc != 0:
        return {"error": proc.stderr.strip()[-300:]}
    with open(out_path) as fh:
        return json.load(fh)


def environment():
    proc = workloads.spawn(["-c", "import matula; print(matula.SIEVE_BACKEND)"])
    return {
        "sieve_backend": proc.stdout.strip() if proc.rc == 0 else None,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": git_sha(),
    }


def git_sha():
    """HEAD's commit id, read from .git without running git; None outside
    a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def run(args, sizes=workloads.FULL):
    if not os.path.exists(os.path.join(ROOT, "src", "matula", "__init__.py")):
        sys.exit("error: no matula package under src/ next to the benchmark")
    started = time.monotonic()
    session = Session(sizes)
    w = WORKLOADS[args.workload](session, args.seed, args.seconds)
    runner = run_traced if args.trace else run_untraced
    ops, metrics, extra = runner(w, args.seconds, started)

    errors = [e for op in ops for e in op.errors]
    failures = sorted({op.note for op in ops if op.failed})
    for line in errors:
        print(f"WRONG: {line}", file=sys.stderr)
    for line in failures:
        known = " (known fault)" if workloads.KNOWN_FAULT in line else ""
        print(f"FAILED{known}: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **result, "errors": errors, "failures": failures,
        "elapsed_s": time.monotonic() - started, "environment": environment(),
        **extra,
    }
    for key in ("figures", "kernel_values_per_s"):
        if key in extra:
            print(f"{key}: {json.dumps(extra[key])}")
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))


def compare(old_path, new_path):
    """Per workload, for each end-to-end metric and workload figure: both
    medians over untraced runs, their ratio, and the metric's bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    def medians(path):
        runs = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["trace"]:
                    continue
                for name, m in {**rec["metrics"], **rec.get("figures", {})}.items():
                    runs.setdefault((rec["workload"], name), []).append(m["value"])
        return {k: statistics.median(v) for k, v in runs.items()}

    old, new = medians(old_path), medians(new_path)
    print(f"{'workload':18} {'metric':18} {'old':>12} {'new':>12} {'new/old':>8} "
          f"{'bound':>6}  verdict")
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        ratio = b / a if a else float("inf")
        if key[1] in rules:
            better, bound = rules[key[1]]
            worse = ratio - 1 if better == "lower" else 1 - ratio
            verdict = "WORSE" if worse > bound else "ok"
            bound_text = f"{bound:6.2f}"
        else:
            verdict, bound_text = "figure", f"{'-':>6}"
        print(f"{key[0]:18} {key[1]:18} {a:12.6g} {b:12.6g} {ratio:8.3f} "
              f"{bound_text}  {verdict}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=DEFAULT_RESULTS)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running child is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        compare(*args.compare)
    elif args.workload:
        run(args)
    else:
        parser.error("give --workload or --compare")


if __name__ == "__main__":
    main()
