"""Traced runs: spans around the program's public functions, from outside.

``Tracer.install()`` wraps every traced function in every esdkit module
namespace that binds it (``dynamics`` imports ``x_closed_curves`` and
``propagate_numeric`` by name, ``cli`` imports ``make_x``, the package
re-exports everything), so calls between layers are recorded too.  Each
call appends one span (function, start, end, parent span) to flat arrays
kept in memory; ``uninstall()`` restores the originals.  Self times and
the per-layer metrics are derived from the spans afterwards.  A few
counts are taken from arguments and return values at the same
boundaries.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import esdkit.cli
from esdkit.channels import max_rate

TRACED = (
    "cli.main",
    "dynamics.death_time", "dynamics.simulate", "dynamics.estimate_asymptote",
    "dynamics.trajectory_to_csv", "dynamics.death_report_to_json",
    "channels.x_closed_curves", "channels.propagate_numeric",
    "channels.propagate_x_closed", "channels.liouvillian",
    "entanglement.classify_position", "entanglement.eigenvalues_hermitian",
    "entanglement.x_entangled",
    "classify.classify_set", "classify.sample_asymptotic", "classify.scenario_to_json",
    "states.make_x", "states.embed_x", "states.project_x",
    "states.parse_state_literal", "states.format_state_literal",
)
VERDICTS = ("finite", "asymptotic", "persistent", "never_entangled")
# complex multiply-adds of one RK4 step: four 16x16 matrix-vector products
FLOPS_PER_RK4_STEP = 4 * 16 * 16 * 8


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rk4_steps(t: float, dt: float | None, channel) -> int:
    """Steps of a fixed-step RK4 run to ``t``, computed from t/dt as the
    documented contract states: floor(t/dt) full steps plus a remainder."""
    if t <= 0.0:
        return 0
    dt = 1e-3 / max_rate(channel) if dt is None else dt
    full = math.floor(t / dt * (1.0 + 1e-12))
    return full + (t - full * dt >= dt * 1e-9)


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.func = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple] = []

    # --- recording --------------------------------------------------------

    def _wrap(self, index: int, fn, hook):
        func, start, end, parent, stack = self.func, self.start, self.end, self.parent, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(func)
            func.append(index)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                start[span] = t0
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _hooks(self) -> dict:
        counts = self.counts

        def closed(args, kwargs, result):
            counts["channels.closed_samples"] += int(np.size(_arg(args, kwargs, 2, "times")))

        def death(args, kwargs, report):
            counts[f"dynamics.verdict.{report.verdict}"] += 1
            counts["dynamics.crossings"] += report.crossings

        def propagate(args, kwargs, result):
            counts["channels.rk4_steps"] += _rk4_steps(
                _arg(args, kwargs, 2, "t"), _arg(args, kwargs, 3, "dt"),
                _arg(args, kwargs, 1, "channel"))

        def simulate(args, kwargs, traj):
            if traj.is_x:
                return  # closed-form branch
            horizon = _arg(args, kwargs, 2, "horizon")
            dt = _arg(args, kwargs, 3, "dt")
            dt = 1e-3 / max_rate(_arg(args, kwargs, 1, "channel")) if dt is None else dt
            counts["channels.rk4_steps"] += max(1, math.ceil(horizon / dt * (1.0 - 1e-12)))

        def members(args, kwargs, label):
            counts["classify.members"] += len(label.evidence)

        return {"channels.x_closed_curves": closed, "dynamics.death_time": death,
                "channels.propagate_numeric": propagate, "dynamics.simulate": simulate,
                "classify.classify_set": members}

    def install(self) -> None:
        hooks = self._hooks()
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "esdkit" or name.startswith("esdkit."))]
        for index, dotted in enumerate(self.names):
            layer, fname = dotted.split(".")
            original = getattr(getattr(esdkit, layer), fname)
            wrapper = self._wrap(index, original, hooks.get(dotted))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # --- derived metrics ------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {"func": np.frombuffer(self.func, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy()}

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics: calls, total and self time per function,
        plus the counts.  Every traced pass runs the same op list, so
        counts are divided by the number of traced passes exactly."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        nested = s["parent"] >= 0
        np.add.at(child, s["parent"][nested], dur[nested])
        self_time = dur - child
        out: dict[str, tuple[float, str]] = {}
        for index, dotted in enumerate(self.names):
            mine = s["func"] == index
            out[f"{dotted}.calls"] = (int(mine.sum()) // passes, "count")
            out[f"{dotted}.total_ms"] = (float(dur[mine].sum()) * 1e3 / passes, "ms")
            out[f"{dotted}.self_ms"] = (float(self_time[mine].sum()) * 1e3 / passes, "ms")
        for verdict in VERDICTS:
            key = f"dynamics.verdict.{verdict}"
            out[key] = (self.counts[key] // passes, "count")
        crossings = self.counts["dynamics.crossings"] // passes
        out["dynamics.crossings"] = (crossings, "count")
        # x_closed_curves calls under death_time beyond its one scan per call
        death = self.names.index("dynamics.death_time")
        closed = self.names.index("channels.x_closed_curves")
        func, parent = s["func"].tolist(), s["parent"].tolist()
        inside = 0
        for span in np.nonzero(s["func"] == closed)[0].tolist():
            up = parent[span]
            while up >= 0 and func[up] != death:
                up = parent[up]
            inside += up >= 0
        extra = (inside - int((s["func"] == death).sum())) / passes
        out["dynamics.closed_evals_per_crossing"] = (extra / crossings if crossings else 0.0,
                                                     "ratio")
        out["channels.closed_samples"] = (self.counts["channels.closed_samples"] // passes, "count")
        steps = self.counts["channels.rk4_steps"] // passes
        out["channels.rk4_steps"] = (steps, "steps-computed")
        out["channels.rk4_flops"] = (steps * FLOPS_PER_RK4_STEP, "flop-computed")
        out["classify.members"] = (self.counts["classify.members"] // passes, "count")
        return out
