"""The specflow benchmark: four closed-loop workloads through the public API.

Run from the repository root, with no install step:

    python3 bench/run.py --workload levinson-3d --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory, as the tier-1
tests do with ``PYTHONPATH=src``.  One caller runs the workload's solves one
after another (a closed loop, no threads of its own) and BLAS runs on one
thread.  The seed fixes the inputs; the library receives only the generated
inputs.  Every answer is checked against a reference computed without the
package (``references.py``).  Passes over the workload's solves repeat until
``--seconds`` have elapsed and at least two have run; the pass in progress
finishes.

``--trace 0`` measures with no wrapper installed.  Every time below is a
measured time divided by the host's slowdown around it (``probe.py``): the
benchmark is meant for small VMs of shared hosts, where other tenants slow
the whole process by up to 1.7x for minutes at a time.  The record keeps
every raw time and its slowdown.  The metrics are

* ``setup_s``: the median over three imports of specflow in fresh
  interpreters, plus the median over three repeats of generating the inputs
  and running one untimed warm-up solve of each kind;
* ``wall_s``: one pass, each solve taken at its median repeat;
* ``solve_s.p50``: the median over the workload's solve kinds
  (``sf_phillips``, ``sf_alpha(n=1)``, ...) of each kind's median solve,
  a solve taken at its median repeat and only solves that returned the
  correct answer on every repeat counting.  Each kind counts once: a plain
  median over dense-loop's solves falls between its three fast kinds and
  its two slow ones, where one loop that needs twice the quadrature panels
  moves it by 70%;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs untraced passes for the first half of the time and traced
passes for the second half (``tracer.py``), and reports the per-layer
metrics per traced pass, ``trace.overhead_frac`` (a traced pass over an
untraced one, each reckoned as ``wall_s`` is, minus one) and ``fail_frac``.

A solve that raises, or returns a wrong answer, counts in ``failed`` and is
left out of ``solve_s.p50``; its time still counts in ``wall_s``.  The p90
of the raw latencies of correct solves is reported only in the record, and
only when ten or more lie beyond it.  The full record
(environment, every solve, every span) goes to ``bench/results/``; the last
line of standard output is the JSON summary.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 3
# the heavy workloads take 10-20 s a pass; two passes keep their medians
# and memory peak from depending on whether a second pass fit in the time
MIN_PASSES = 2
WORKLOADS = ("levinson-3d", "levinson-1d", "dense-loop", "open-paths")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("solve_s.p50", "s"),
              ("peak_rss_mb", "MB")]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_pass(solves, expected, outcomes, probe, tr=None):
    """One closed-loop pass over the solves; returns its wall time.

    The host's speed is gauged between consecutive solves, so each solve
    has a gauge on either side of it.
    """
    from specflow import SpecflowError

    start = perf_counter()
    before = probe.gauge()
    for i, (solve, want) in enumerate(zip(solves, expected)):
        if tr is not None:
            tr.solve = len(outcomes)
        detail = None
        t0 = perf_counter()
        try:
            result = solve.call()
            seconds = perf_counter() - t0
        except SpecflowError as exc:
            seconds = perf_counter() - t0
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # an untyped failure leaking from the package
            seconds = perf_counter() - t0
            frames = traceback.extract_tb(exc.__traceback__)
            frame = next((f for f in reversed(frames)
                          if f.filename.startswith(str(SRC))), frames[-1])
            status = "crash"
            detail = (f"{type(exc).__name__}: {exc} at "
                      f"{Path(frame.filename).name}:{frame.lineno}")
        else:
            got = solve.answer(result)
            status = "ok" if want is None or got == want else "wrong"
            if status != "ok":
                detail = f"got {got}, want {want}"
        after = probe.gauge()
        outcomes.append((i, solve, seconds, probe.slowdown(before, after),
                         status, detail))
        before = after
    return perf_counter() - start


def median_repeats(outcomes):
    """Each solve's median repeat, each repeat's time divided by the host's
    slowdown around it, and whether every repeat was correct.

    Both are keyed by the solve's index in the pass.
    """
    times, always_ok = {}, {}
    for i, _, seconds, slow, status, _ in outcomes:
        times.setdefault(i, []).append(seconds / slow)
        always_ok[i] = always_ok.get(i, True) and status == "ok"
    return ({i: statistics.median(v) for i, v in times.items()}, always_ok)


def median_by_kind(solves, typical, always_ok):
    """The median over solve kinds of each kind's median solve time,
    counting only solves correct on every repeat."""
    by_kind = {}
    for i, seconds in typical.items():
        if always_ok[i]:
            by_kind.setdefault(solves[i].kind, []).append(seconds)
    return statistics.median(statistics.median(v) for v in by_kind.values())


def p90_with_tail(values):
    """The 90th percentile when ten or more samples lie beyond it."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=10)[-1]
    return cut if sum(v > cut for v in values) >= 10 else None


def import_seconds(probe):
    """Time to import specflow in a fresh interpreter, with this process's
    environment (one BLAS thread), divided by the host's slowdown around
    it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t0 = time.perf_counter(); import specflow; "
            "print(time.perf_counter() - t0)")
    before = probe.gauge()
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout) / probe.slowdown(before, probe.gauge())


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "specflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads():
    """Thread counts of the OpenBLAS builds loaded into this process."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "platform": platform.platform(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "specflow" / "__init__.py").is_file():
        print(f"no specflow sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads BLAS: no matrix here is larger
    # than 64x64, and an idle OpenBLAS thread spins on the second core for
    # the whole run, doubling CPU use without speeding up any solve.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import specflow
    first_import_s = perf_counter() - t0
    if Path(specflow.__file__).resolve().parent != SRC / "specflow":
        print(f"specflow imported from {specflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from specflow import SpecflowError

    import tracer
    import workloads
    from probe import Probe

    probe = Probe()
    imports = [import_seconds(probe) for _ in range(SETUP_REPEATS)]
    setup = []
    for _ in range(SETUP_REPEATS):
        before = probe.gauge()
        t0 = perf_counter()
        solves = workloads.build(args.workload, args.seed)
        for warm in workloads.warmups(args.workload):
            try:
                warm()
            except SpecflowError:
                pass  # a warm-up only has to run the code, not pass
        seconds = perf_counter() - t0
        setup.append(seconds / probe.slowdown(before, probe.gauge()))
    expected = [s.reference() if s.reference else None for s in solves]

    outcomes, untraced, traced = [], [], []
    start = perf_counter()
    budget = args.seconds / 2.0 if args.trace else args.seconds
    min_passes = 1 if args.trace else MIN_PASSES
    while len(untraced) < min_passes or perf_counter() - start < budget:
        untraced.append(run_pass(solves, expected, outcomes, probe))
    spans = []
    if args.trace:
        tr = tracer.Tracer()
        with tr:
            while not traced or perf_counter() - start < args.seconds:
                traced.append(run_pass(solves, expected, outcomes, probe,
                                       tr))
        spans = tr.spans

    attempted = len(outcomes)
    failed = sum(o[4] != "ok" for o in outcomes)
    correct = not any(o[4] == "wrong" for o in outcomes)
    latencies = [o[2] for o in outcomes if o[4] == "ok"]
    typical, always_ok = median_repeats(outcomes[:len(untraced) * len(solves)])
    if not any(always_ok.values()):
        print("no solve returned a correct answer", file=sys.stderr)
        return 1

    if args.trace:
        values = tracer.layer_metrics(spans, len(traced))
        traced_typical, _ = median_repeats(
            outcomes[len(untraced) * len(solves):])
        values["trace.overhead_frac"] = (sum(traced_typical.values())
                                         / sum(typical.values()) - 1.0)
        values["fail_frac"] = failed / attempted
        units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
        units.update({"trace.overhead_frac": "ratio", "fail_frac": "ratio"})
    else:
        values = {
            "setup_s": statistics.median(imports) + statistics.median(setup),
            "wall_s": sum(typical.values()),
            "solve_s.p50": median_by_kind(solves, typical, always_ok),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    p90 = p90_with_tail(latencies)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "first_import_s": first_import_s,
        "import_s": imports,
        "setup_repeats_s": setup,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "fail_frac": failed / attempted,
        "solve_s": {"p90": p90, "samples": len(latencies)},
        "metrics": metrics,
        "solves": [{"kind": s.kind, "label": s.label, "seconds": sec,
                    "slowdown": slow, "status": status, "detail": detail}
                   for _, s, sec, slow, status, detail in outcomes],
        "span_fields": ["name", "start", "end", "parent", "solve", "extra"],
        "spans": spans,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / (f"{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json")
    out.write_text(json.dumps(record))

    print(json.dumps(record["environment"]))
    for (label, status, detail) in sorted({(o[1].label, o[4], o[5])
                                           for o in outcomes
                                           if o[4] != "ok"}):
        print(f"{status}: {label}: {detail}")
    print(f"solve_s.p90 = {p90} over {len(latencies)} correct solves "
          f"(reported only with ten or more samples beyond it)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
