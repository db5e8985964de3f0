"""esdkit benchmark: one closed-loop client running a workload's fixed op list.

Usage, from the repository root:

    python3 esdbench/run.py --workload xstate_scan --seed 1 --seconds 25 --trace 0
    python3 esdbench/run.py --workload all --seed 1 --seconds 25

Each op is an in-process ``esdkit.cli.main(argv)`` call with stdout
captured, or a direct library call where the CLI has no subcommand; the
next op starts only after the previous one returns.  The op list is run
in whole passes until ``--seconds`` have elapsed.  The first time an op
runs, its output is checked against an exact reference (``checks.py``);
later passes must reproduce that output byte for byte.  An op that
raises, exits non-zero or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer split
(``tracing.py``) and the tracing overhead.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Inputs and spans go under ``.bench_work/`` in the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: the numbers measure the program, not the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import clock  # noqa: E402  (after the thread settings above)
import ops  # noqa: E402
from ops import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
WORK_ROOT = Path(".bench_work")


# --- executing and verifying ops ------------------------------------------------

def execute(op: dict):
    """Run one op; return (exit code, output).  CLI output is its stdout,
    a library call's output is the resulting density matrix."""
    import esdkit.cli

    if "argv" in op:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = esdkit.cli.main(list(op["argv"]))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        return code, out.getvalue() if code == 0 else err.getvalue()
    call = op["call"]
    state = esdkit.states.parse_state_literal(call["state"])
    channel = esdkit.channels.parse_channel_literal(call["channel"])
    if call["fn"] == "propagate_numeric":
        result = esdkit.channels.propagate_numeric(state, channel, call["t"])
    else:
        result = esdkit.dynamics.estimate_asymptote(state, channel)
    return 0, result.matrix


def _digest(output) -> bytes:
    data = output.encode() if isinstance(output, str) else output.tobytes()
    return hashlib.blake2b(data, digest_size=16).digest()


class Runner:
    """Runs passes over an op list and keeps the failure accounting.

    ``execute`` is the op executor; tests pass one that corrupts outputs.
    """

    def __init__(self, ops: list[dict], execute=execute):
        from checks import check

        self.ops = ops
        self.execute = execute
        self.check = check
        self.seen: dict[str, tuple[bytes, str | None]] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.output_bytes = 0
        self.raw_walls: list[float] = []

    def verify(self, op: dict, code, output) -> str | None:
        if code != 0:
            return f"exit {code}: {str(output).strip()[:200]}"
        digest = _digest(output)
        if op["id"] in self.seen:
            first, reason = self.seen[op["id"]]
            return reason if digest == first else "output differs from its first run"
        reason = self.check(op, output)
        self.seen[op["id"]] = (digest, reason)
        return reason

    def attempt(self, op: dict):
        try:
            return self.execute(op)
        except Exception as exc:  # an op that raises is a failed op
            return "raised", f"{type(exc).__name__}: {exc}"

    def run_pass(self, tracer=None) -> list[float]:
        """One pass over the op list; returns each op's latency in reference
        seconds (``clock.py``).  A traced pass wraps the program for the
        whole pass; it must not be the first pass, so that the checks, which
        call into esdkit, have already run and stay out of the trace."""
        timed, points = [], [clock.point()]
        if tracer is not None:
            tracer.install()
        try:
            for op in self.ops:
                call = clock.Timed(lambda: self.attempt(op))
                points.append(clock.point())
                timed.append(call)
                (code, output), call.result = call.result, None
                if tracer is not None and code == 0 and isinstance(output, str):
                    self.output_bytes += len(output.encode())
                self.attempted += 1
                reason = self.verify(op, code, output)
                if reason is not None:
                    self.failures.append((op["id"], reason))
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.raw_walls.append(sum(call.net for call in timed))
        return clock.calibrate(timed, points)


# --- measurements ------------------------------------------------------------------

def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of a fresh interpreter that imports esdkit.cli and
    builds the workload's inputs.  Not calibrated: the probe runs in this
    process, and interpreter start-up follows the machine's drift less
    than compute does."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir / "setup")]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def run_workload(args) -> dict:
    import resource

    workdir = WORK_ROOT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    op_list = ops.build(args.workload, args.seed, workdir / "inputs")
    runner = Runner(op_list)
    notes = [f"{len(op_list)} ops per pass, 1 closed-loop client, --jobs 1, "
             f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}"]
    if args.trace == 0:
        setup_s = measure_setup(args.workload, args.seed, workdir)
        deadline = time.perf_counter() + args.seconds
        passes = []
        while not passes or time.perf_counter() < deadline:
            passes.append(runner.run_pass())
        # each op's median over passes filters bursts of load from other tenants
        per_op = [statistics.median(lat) for lat in zip(*passes)]
        metrics = {
            "wall_s": (sum(per_op), "s"),
            "op_p50_ms": (_percentile(per_op, 50) * 1e3, "ms"),
            "op_p90_ms": (_percentile(per_op, 90) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes.append(f"{len(passes)} passes; wall_s sums, and the percentiles range over, "
                     f"the {len(per_op)} per-op median latencies; setup_s is the median of "
                     f"{SETUP_REPEATS} fresh starts")
        notes.append("pass wall times, calibrated / raw (s): " + " ".join(
            f"{sum(p):.3f}/{raw:.3f}" for p, raw in zip(passes, runner.raw_walls)))
    else:
        from tracing import Tracer

        tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        plain, traced = [], []
        while len(traced) < 1 or time.perf_counter() < deadline:
            on = len(plain) > len(traced)  # the first pass is untraced and checked
            (traced if on else plain).append(runner.run_pass(tracer if on else None))
        metrics = tracer.metrics(len(traced))
        metrics["cli.output_bytes"] = (runner.output_bytes // len(traced), "bytes")
        metrics["trace.overhead_frac"] = (
            sum(map(statistics.median, zip(*traced)))
            / sum(map(statistics.median, zip(*plain))) - 1.0, "ratio")
        tracer.write(WORK_ROOT / f"spans-{args.workload}.npz")
        notes.append(f"per-pass values over {len(traced)} traced passes; overhead against "
                     f"{len(plain)} untraced passes; spans in {WORK_ROOT}/spans-{args.workload}.npz")
    shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": args.workload, "metrics": metrics, "notes": notes,
            "attempted": runner.attempted, "failures": runner.failures}


def report(result: dict) -> None:
    attempted, failures = result["attempted"], result["failures"]
    print(f"workload {result['workload']}: {attempted} ops attempted, {len(failures)} failed, "
          f"fail_frac {len(failures) / attempted!r} ratio")
    for note in result["notes"]:
        print(f"  ({note})")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:48s} {value!r:>24} {unit}")
    for op_id, reason in dict(failures).items():
        print(f"  FAILED {op_id}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter, then one table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print("\n" + "metric".ljust(52) + "".join(w.rjust(16) for w in results))
    rows = [("ops attempted", {w: r["attempted"] for w, r in results.items()}),
            ("fail_frac ratio", {w: r["failed"] / r["attempted"] for w, r in results.items()})]
    for name, metric in results[WORKLOADS[0]]["metrics"].items():
        rows.append((f"{name} {metric['unit']}",
                     {w: r["metrics"][name]["value"] for w, r in results.items()}))
    for label, values in rows:
        print(label.ljust(52) + "".join(f"{values[w]:16.6g}" for w in results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = BENCH_DIR.parent / "src"
    try:
        import esdkit.cli
    except ImportError as exc:
        print(f"error: cannot import esdkit from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(esdkit.cli.__file__).resolve().parent.parent != src.resolve():
        print(f"error: esdkit was imported from {esdkit.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        ops.build(args.workload, args.seed, args.workdir)
        return 0
    if args.workload == "all":
        return run_all(args)
    report(run_workload(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
