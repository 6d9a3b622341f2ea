"""Sweep benchmark for the ``opens`` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload continuum_sweeps --seed 1 --seconds 42 --trace 0

Drives the CLI in-process through ``opens.cli.main(argv)`` against this
tree's ``src/``, one command after another (a closed loop with one
client). ``--seconds`` fixes how many repetitions of the sweep a run
makes, from the workload's nominal repetition time, so the same seed and
seconds always give the same points. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs each sweep command once
plain and once with span wrappers installed and prints the per-layer
metrics. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` (sweep points) and ``metrics``.
The full record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# one BLAS thread, so --jobs 2 uses no more threads than the two cores
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("OPENS_JOBS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
MP_DEFAULT_PREC = 53  # mpmath's working precision in a fresh interpreter

import layers  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Execution, Outcome, account, mismatches  # noqa: E402


def call(argv) -> Execution:
    """One CLI invocation with its output captured; wall time covers main only.

    Each invocation starts from the state of a fresh CLI process: mpmath at
    its default precision (a ``--jobs 2`` race can leave the process-global
    context at another one) and no garbage pending from earlier calls.
    """
    import mpmath
    import opens.cli

    mpmath.mp.prec = MP_DEFAULT_PREC
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = opens.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    text = out.getvalue()
    if not text and rc:  # argparse prints its complaint to stderr only
        text = "error\n" + (err.getvalue().strip().splitlines() or ["exit code %d" % rc])[-1]
    return Execution(rc, text, wall, mpmath.mp.prec != MP_DEFAULT_PREC)


def call_traced(tracer: Tracer, run: str, argv) -> Execution:
    """``call`` with every span wrapper installed for just this invocation."""
    tracer.run = run
    layers.install(tracer)
    try:
        return call(argv)
    finally:
        tracer.uninstall()


def set_up(workload) -> float:
    """Import ``opens`` and run one warm-up call of each command the workload uses."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import opens.cli  # noqa: F401

    for argv in workload.warmups:
        ex = call(argv)
        if ex.rc != 0:
            raise RuntimeError(f"warm-up {' '.join(argv)} failed:\n{ex.text}")
    return time.perf_counter() - start


def set_up_fresh(name: str) -> float:
    """Set-up time measured in a fresh interpreter, which pays every lazy cost again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.split()[-1])


def blas_threads():
    """Thread count OpenBLAS reports, or None where the query is unavailable."""
    import ctypes
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def _mean_per_command(walls: list[list[tuple[float, bool]]]) -> float:
    """Sum over commands of the mean wall time of that command's clean runs.

    A run that errored finishes early and would understate the sweep, so
    only clean runs count while any exist. The mean, not the median: the
    host alternates between speed regimes several seconds long, and a
    median over a few repetitions jumps between them where a mean moves
    with the share of time spent in each.
    """
    total = 0.0
    for runs in walls:
        clean = [w for w, ok in runs if ok]
        total += statistics.fmean(clean or [w for w, _ in runs])
    return total


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, trace: bool, fresh_setups: int = 0):
    """Run the workload's sweep ``reps`` times, one command after another.

    ``reps`` follows from ``seconds`` and the workload's nominal repetition
    time (at least one), so the work, and with it every attempted and
    failed point, is fixed by the arguments alone. Each repetition runs
    every command serially (and traced, with ``trace``), then reruns the
    ``--jobs`` commands at ``--jobs 2``. The ``fresh_setups`` set-up samples
    are spread over the run, between repetitions, so that they do not all
    fall into one of the host's speed regimes.
    """
    reps = max(1, int(seconds // workload.rep_seconds))
    # repetitions done before each fresh set-up sample
    setup_slots = [round(reps * (k + 1) / fresh_setups) for k in range(fresh_setups)]
    setups = []
    outcome = Outcome()
    first_walls, second_walls = {}, {}
    per_rep_layers = []
    argvs = []
    leaks = 0
    peak_rss_mb = None
    for rep in range(reps + 1):
        setups += [set_up_fresh(workload.name) for slot in setup_slots if slot == rep]
        if rep == reps:
            break
        commands = workload.sweep(seed, rep)
        argvs.append([list(c.argv) for c in commands])
        tracer = Tracer() if trace else None
        runs = []
        for cmd in commands:
            first = call(("--jobs", "1") + cmd.argv)
            second = call_traced(tracer, "sweep", ("--jobs", "1") + cmd.argv) if trace else None
            runs.append((first, second))
        if peak_rss_mb is None:
            # the --jobs 2 peak depends on which points the two threads hold at once
            peak_rss_mb = _peak_rss_mb()
        for k, (cmd, (first, second)) in enumerate(zip(commands, runs)):
            got = account(cmd, first)
            if trace:
                got.add(mismatches(cmd, first, second, "traced"))
            elif cmd.jobs:
                second = call(("--jobs", "2") + cmd.argv)
                got.add(mismatches(cmd, first, second))
            outcome.add(got)
            leaks += first.prec_leak + bool(second and second.prec_leak)
            clean = got.failed == 0
            first_walls.setdefault(k, []).append((first.wall, clean))
            # a command that ignores --jobs runs the same at --jobs 2
            second_walls.setdefault(k, []).append(((second or first).wall, clean))
        # domain probes count as points but stay out of the sweep time
        probe_wall = 0.0
        for cmd in workload.probes():
            if trace:
                ex = call_traced(tracer, "probes", ("--jobs", "1") + cmd.argv)
                probe_wall += ex.wall
            else:
                ex = call(("--jobs", "1") + cmd.argv)
            outcome.add(account(cmd, ex))
        if trace:
            plain_sweep = sum(first.wall for first, _ in runs)
            traced_sweep = sum(second.wall for _, second in runs)
            m = layers.layer_metrics(tracer.spans, tracer.counts)
            attributed = sum(self_times(tracer.spans).values())
            m["trace.overhead_s"] = traced_sweep - plain_sweep
            m["trace.unattributed_s"] = traced_sweep + probe_wall - attributed
            m["trace.traced_wall_s"] = traced_sweep + probe_wall
            per_rep_layers.append((m, tracer.spans))
    return {
        "reps": reps,
        "setups": setups,
        "outcome": outcome,
        "precision_leaks": leaks,
        "peak_rss_mb": peak_rss_mb,
        "sweep_s": _mean_per_command(list(first_walls.values())),
        "second_s": _mean_per_command(list(second_walls.values())),
        "layers": per_rep_layers,
        "argv": argvs,
        "walls": {"first": [[w for w, _ in first_walls[k]] for k in sorted(first_walls)],
                  "second": [[w for w, _ in second_walls[k]] for k in sorted(second_walls)]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "opens" / "__init__.py").is_file():
        print(f"error: no opens package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        print(set_up(workload))
        return 0

    setup = [set_up(workload)]
    res = measure(workload, args.seed, args.seconds, bool(args.trace),
                  0 if args.trace else SETUP_SAMPLES - 1)
    setup += res["setups"]
    out: Outcome = res["outcome"]

    if args.trace:
        units = layers.metric_units()
        reps = [m for m, _ in res["layers"]]
        metrics = {k: {"value": statistics.median(r[k] for r in reps), "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "sweep_s": {"value": res["sweep_s"], "unit": "s"},
            "sweep_jobs2_s": {"value": res["second_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    failed_frac = out.failed / out.attempted
    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "reps": res["reps"],
        "elapsed_s": time.perf_counter() - started,
        "points_attempted": out.attempted,
        "points_failed": out.failed,
        "failed_frac": failed_frac,
        "wrong_rows": out.wrong,
        "failures": out.reasons,
        "compared_points": out.compared,
        "mismatched_points": out.mismatched,
        "mismatches": out.mismatch_reasons,
        "precision_leaks": res["precision_leaks"],
        "setup_samples_s": setup,
        "metrics": metrics,
        "environment": environment(args.seed),
        "argv": res["argv"],
        "walls_s": res["walls"],
        "probes": [list(c.argv) for c in workload.probes()],
    }
    if args.trace:
        record["traced_wall_s"] = statistics.median(m["trace.traced_wall_s"] for m, _ in res["layers"])
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with stem.with_suffix(".spans.jsonl").open("w") as fh:
            for s in res["layers"][-1][1]:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.run]) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  reps {res['reps']}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {failed_frac:.6g} fraction"
          f"  (points attempted {out.attempted}, failed {out.failed})")
    second = "traced" if args.trace else "jobs2"
    print(f"  {second + '_mismatched':44s} {out.mismatched} of {out.compared} points"
          f"  (not counted as failed; mpmath precision left changed by"
          f" {res['precision_leaks']} executions)")
    for reason in out.reasons[:20]:
        print(f"  failed: {reason}")
    for reason in out.mismatch_reasons[:10]:
        print(f"  mismatched: {reason}")
    print(json.dumps({"correct": out.wrong == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
