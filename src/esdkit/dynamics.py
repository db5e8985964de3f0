"""Trajectories, death-time reports and asymptote estimation.

A trajectory is a sampled solution of a channel's master equation together
with per-sample entanglement diagnostics.  "Death" is operationalized on
the negativity with threshold ``eps_death``: an initially entangled state
suffers sudden death when the negativity falls to the threshold at a
finite time and stays there.

Death detection works on X states, where the partial transpose splits into
two 2x2 blocks and the negativity has an explicit closed form in the state
parameters.  A state decaying toward the separable boundary without ever
reaching it ("asymptotic death") has negativity that eventually sinks
below any fixed threshold, so a threshold crossing alone does not
establish sudden death, and a state still entangled at the horizon may
yet die after it.  Every verdict on an entangled state is therefore
decided by the sign of the exact late-time margin of the block that
carried the entanglement (see ``_limit_margin``), whatever the horizon:
strictly negative means the block leaves the entangled region at a finite
time (``"finite"``); zero or positive means it never does, and its
negativity drains to zero (``"asymptotic"``) unless the block is not
damped at all (``"persistent"``; among catalog blocks only the z-block
under collective dephasing, the decoherence-free subspace).

Verdict vocabulary: ``"finite"`` (the negativity reaches ``eps_death`` at
``t_star``, which may lie past the horizon), ``"asymptotic"`` (negativity
positive but draining toward 0), ``"persistent"`` (negativity bounded
away from 0) and ``"never_entangled"``.

One kernel, ``_death_reports``, scans any number of X states that share a
channel, horizon and grid: the closed forms run on chunks of rows at once
and the crossings behind all ``"finite"`` verdicts are refined in one
vectorised bisection.  :func:`death_time` is that kernel on a single row,
and CLI sweeps call it once for the whole grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelSpec,
    CollectiveDephasing,
    IndependentDecay,
    IndependentDephasing,
    asymptotic_set,
    is_catalog,
    liouvillian,
    max_rate,
    propagate_numeric,
    propagate_x_closed,
    set_contains,
    x_closed_curves,
    _revalidate,
    _rk4_map,
)
from .entanglement import _partial_transpose_many
from .errors import (
    NoConvergenceError,
    NotXFormError,
    ParseError,
    UnsupportedChannelError,
    ValidationError,
)
from .states import (
    DEFAULT_TOL,
    DensityMatrix,
    ToleranceConfig,
    XState,
    _unchecked_density,
    _x_matrices,
    embed_x,
    make_x,
    project_x,
)

__all__ = [
    "VERDICT_FINITE",
    "VERDICT_ASYMPTOTIC",
    "VERDICT_PERSISTENT",
    "VERDICT_NEVER",
    "DEFAULT_SAMPLES",
    "Trajectory",
    "DeathReport",
    "simulate",
    "death_time",
    "crossing_count",
    "estimate_asymptote",
    "trajectory_to_csv",
    "parse_trajectory_csv",
    "death_report_to_json",
    "death_report_from_json",
]

VERDICT_FINITE = "finite"
VERDICT_ASYMPTOTIC = "asymptotic"
VERDICT_PERSISTENT = "persistent"
VERDICT_NEVER = "never_entangled"
_VERDICTS = (VERDICT_FINITE, VERDICT_ASYMPTOTIC, VERDICT_PERSISTENT, VERDICT_NEVER)

# default number of retained samples per trajectory / death-time grid
DEFAULT_SAMPLES = 2000

# grid samples per chunk of rows in a batched death-time scan (bounds memory)
_SCAN_SAMPLES = 8192

CSV_HEADER = "t,negativity,min_pt_eig,min_eig,a,b,c,d,abs_w,abs_z"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution with per-sample diagnostics.

    Population arrays ``a..d`` are present only for X trajectories (the
    closed-form path); ``abs_w``/``abs_z`` record the anti-diagonal entry
    magnitudes for every trajectory.
    """

    times: np.ndarray
    states: tuple
    negativity: np.ndarray
    min_pt_eig: np.ndarray
    min_eig: np.ndarray
    abs_w: np.ndarray
    abs_z: np.ndarray
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    c: np.ndarray | None = None
    d: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.times)
        columns = [self.states, self.negativity, self.min_pt_eig, self.min_eig,
                   self.abs_w, self.abs_z]
        columns += [col for col in (self.a, self.b, self.c, self.d) if col is not None]
        if any(len(col) != n for col in columns):
            raise ValidationError("trajectory columns have mismatched lengths")
        if n == 0:
            raise ValidationError("trajectory must contain at least one sample")
        if float(self.times[0]) != 0.0:
            raise ValidationError(f"trajectory must start at t=0, got {self.times[0]!r}")
        if n > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValidationError("trajectory times must be strictly increasing")

    @property
    def is_x(self) -> bool:
        return self.a is not None


@dataclass(frozen=True)
class DeathReport:
    """Outcome of a death-time scan over ``[0, horizon]``.

    For catalog channels the verdict does not depend on the horizon, and a
    ``"finite"`` verdict's ``t_star`` may lie past it; ``crossings``
    counts the threshold crossings seen on the grid up to the horizon.
    """

    verdict: str
    t_star: float | None
    horizon: float
    crossings: int
    eps_death: float

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise ValidationError(f"unknown verdict {self.verdict!r}")
        if (self.t_star is not None) != (self.verdict == VERDICT_FINITE):
            raise ValidationError("t_star must be present exactly for finite verdicts")
        if self.horizon <= 0.0:
            raise ValidationError(f"horizon must be positive, got {self.horizon!r}")
        if self.crossings < 0:
            raise ValidationError(f"crossings must be nonnegative, got {self.crossings!r}")


def _pt_diagnostics(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(negativity, min PT eigenvalue) per stacked matrix."""
    pt_eigs = np.linalg.eigvalsh(_partial_transpose_many(stack))
    neg = np.where(pt_eigs < 0.0, -pt_eigs, 0.0).sum(axis=1)
    return neg, pt_eigs[:, 0]


def _x_diagnostics(
    curves: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact X-state diagnostics from the 2x2 block closed forms.

    Partial transposition swaps the two coherences between the outer
    (levels 1,4) and inner (levels 2,3) blocks, so the minimum PT
    eigenvalue is the smaller of the two block minima with ``z`` and ``w``
    exchanged.  Block arithmetic keeps tiny negativities sign-accurate
    where a full eigensolve would drown them in roundoff from the large
    complement block.  Returns ``(negativity, min_pt, min_eig, outer_pt,
    inner_pt)``, elementwise over the curves, so a batch of ``(R, n)``
    curves gives ``(R, n)`` diagnostics.
    """
    a, b, c, d, w, z = curves
    outer_pt = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(z))
    inner_pt = 0.5 * (b + c) - np.hypot(0.5 * (b - c), np.abs(w))
    neg = np.where(outer_pt < 0.0, -outer_pt, 0.0) + np.where(inner_pt < 0.0, -inner_pt, 0.0)
    min_pt = np.minimum(outer_pt, inner_pt)
    outer = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(w))
    inner = 0.5 * (b + c) - np.hypot(0.5 * (b - c), np.abs(z))
    min_eig = np.minimum(outer, inner)
    return neg, min_pt, min_eig, outer_pt, inner_pt


def _retained_steps(n_steps: int, sample_every: int) -> list[int]:
    ks = list(range(0, n_steps + 1, sample_every))
    if ks[-1] != n_steps:
        ks.append(n_steps)
    return ks


def _x_form(state0: XState | DensityMatrix, tol: ToleranceConfig) -> XState | None:
    """The validated X form of ``state0``, or None for a dense non-X state.

    A bare ``XState`` is validated as :func:`~esdkit.states.make_x` would.
    """
    if isinstance(state0, XState):
        return make_x(state0.a, state0.b, state0.c, state0.d, state0.w, state0.z, tol=tol)
    if not isinstance(state0, DensityMatrix):
        raise ValidationError(
            f"state0 must be XState or DensityMatrix, got {type(state0).__name__}"
        )
    try:
        return project_x(state0, tol)
    except NotXFormError:
        return None


def simulate(
    state0: XState | DensityMatrix,
    channel: ChannelSpec,
    horizon: float,
    dt: float | None = None,
    sample_every: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Trajectory:
    """Sample the evolution of ``state0`` over ``[0, horizon]``.

    Uses the exact closed form when the initial state is X (or projects to
    X) and the channel is in the catalog; otherwise integrates numerically
    with fixed-step RK4.  ``dt`` defaults to ``1e-3 / max_rate(channel)``
    and ``sample_every`` is chosen to retain about ``DEFAULT_SAMPLES``
    samples.  The final sample lands on ``horizon`` exactly, after one
    shorter last step when ``horizon`` is not a multiple of ``dt``.  RK4
    runs as powers of its one-step matrix ``P(dt)``: ``P(dt)^sample_every``
    advances from one retained sample to the next, with the same result as
    stepping up to roundoff.  All retained samples are re-validated
    together; the earliest failing one raises
    :class:`~esdkit.errors.StepTooLargeError`.  A bare ``XState`` is
    validated as :func:`~esdkit.states.make_x` would.
    """
    _require_positive("horizon", horizon)
    if dt is None:
        dt = 1e-3 / max_rate(channel)
    _require_positive("dt", dt)
    x0 = _x_form(state0, tol)

    n_steps = max(1, int(np.ceil(horizon / dt * (1.0 - 1e-12))))
    if sample_every is None:
        sample_every = max(1, int(np.ceil(n_steps / DEFAULT_SAMPLES)))
    elif sample_every < 1:
        raise ValidationError(f"sample_every must be >= 1, got {sample_every!r}")
    ks = _retained_steps(n_steps, sample_every)
    times = np.minimum(np.asarray(ks, dtype=float) * dt, horizon)

    populations: tuple[np.ndarray, ...] | None = None
    if x0 is not None and is_catalog(channel):
        curves = x_closed_curves(x0, channel, times)
        stack = _x_matrices(curves)
        populations = curves[:4]
        neg, min_pt, min_eig = _x_diagnostics(curves)[:3]
        abs_w = np.abs(curves[4])
        abs_z = np.abs(curves[5])
    else:
        if x0 is not None and not isinstance(state0, DensityMatrix):
            state0 = embed_x(x0)
        lv = liouvillian(channel)
        step = _rk4_map(lv, dt)
        h_last = min(dt, horizon - (n_steps - 1) * dt)
        # a step too large for RK4 can overflow; _revalidate reports it
        with np.errstate(over="ignore", invalid="ignore"):
            hop = np.linalg.matrix_power(step, sample_every)
            last = _rk4_map(lv, h_last) @ np.linalg.matrix_power(
                step, ks[-1] - ks[-2] - 1
            )
            vs = [state0.matrix.reshape(16)]
            for _ in range(len(ks) - 2):
                vs.append(hop @ vs[-1])
            vs.append(last @ vs[-1])
        raw = np.stack(vs).reshape(-1, 4, 4)
        later, later_min = _revalidate(raw[1:], tol)
        stack = np.concatenate([state0.matrix[None], later])
        min_eig = np.concatenate([np.linalg.eigvalsh(state0.matrix)[:1], later_min])
        neg, min_pt = _pt_diagnostics(stack)
        abs_w = np.abs(stack[:, 0, 3])
        abs_z = np.abs(stack[:, 1, 2])

    stack.setflags(write=False)
    states = tuple(_unchecked_density(stack[i]) for i in range(stack.shape[0]))
    kwargs = {}
    if populations is not None:
        kwargs = dict(zip("abcd", populations))
    return Trajectory(times, states, neg, min_pt, min_eig, abs_w, abs_z, **kwargs)


def _limit_margin(x0: XState, channel: ChannelSpec, inner: bool) -> float:
    """Late-time sign of a PT block margin, computed without underflow.

    The entanglement margin of the inner PT block is ``|w(t)|^2 -
    b(t)c(t)`` (outer: ``|z(t)|^2 - a(t)d(t)``); the block is entangled
    exactly while its margin is positive.  At large times the raw margin
    shrinks below the smallest representable float, but for every catalog
    channel it factors into a decaying envelope times a bracket with a
    finite limit, and only the bracket's sign matters: negative means the
    margin crosses zero at some finite time, zero or positive means the
    block stays entangled forever, its negativity draining away unless
    the block is undamped.  The limit bracket is plain O(1) arithmetic on
    the initial data, so its sign survives long after the pointwise margin
    has degraded.
    """
    a, b, c, d = x0.a, x0.b, x0.c, x0.d
    if isinstance(channel, IndependentDecay):
        if channel.nbar == 0.0:
            # e_i(t) -> 0 for gamma_i > 0 and stays 1 for a frozen qubit;
            # both coherence and population products carry the same
            # e_a*e_b envelope, leaving these brackets.
            sa = 1.0 if channel.gamma_a == 0.0 else 0.0
            sb = 1.0 if channel.gamma_b == 0.0 else 0.0
            if inner:
                return abs(x0.w) ** 2 - ((1.0 - sb) * a + b) * ((1.0 - sa) * a + c)
            d_inf = (1.0 - sa) * (1.0 - sb) * a + (1.0 - sb) * c + (1.0 - sa) * b + d
            return abs(x0.z) ** 2 - a * d_inf
        # finite temperature: coherences vanish while the populations
        # settle on a product state, generically strictly interior, so
        # the raw limit margin is already well scaled
        q = channel.nbar / (2.0 * channel.nbar + 1.0)
        pa = a + b if channel.gamma_a == 0.0 else q
        pb = a + c if channel.gamma_b == 0.0 else q
        if inner:
            return -(pa * (1.0 - pb)) * ((1.0 - pa) * pb)
        return -(pa * pb) * ((1.0 - pa) * (1.0 - pb))
    if isinstance(channel, IndependentDephasing):
        # populations are constant and both coherences decay
        return -(b * c) if inner else -(a * d)
    # collective dephasing: w decays, z and the populations are invariant
    return -(b * c) if inner else abs(x0.z) ** 2 - a * d


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def _bisect_deaths(
    cols: list[np.ndarray],
    channel: ChannelSpec,
    lo: np.ndarray,
    hi: np.ndarray,
    xtol: float,
    eps_death: float,
) -> np.ndarray:
    """Refine alive-to-dead brackets ``[lo, hi]``, one per entry of ``cols``.

    All brackets are halved together; each stops once its own width is at
    most ``xtol``, or once its midpoint equals an endpoint so that halving
    can no longer shrink it, and reports its midpoint.
    """
    lo, hi = lo.copy(), hi.copy()
    open_ = np.arange(lo.size)
    # rate * time may overflow at late midpoints; exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
        while True:
            lo_open, hi_open = lo[open_], hi[open_]
            mid = 0.5 * (lo_open + hi_open)
            keep = (hi_open - lo_open > xtol) & (lo_open < mid) & (mid < hi_open)
            open_, mid = open_[keep], mid[keep]
            if not open_.size:
                return 0.5 * (lo + hi)
            part = XState(*(col[open_] for col in cols))
            up = _x_diagnostics(x_closed_curves(part, channel, mid))[0] > eps_death
            lo[open_] = np.where(up, mid, lo_open[keep])
            hi[open_] = np.where(up, hi_open[keep], mid)


def _death_reports(
    rows: list[XState],
    channel: ChannelSpec,
    horizon: float,
    tol: ToleranceConfig = DEFAULT_TOL,
    dt: float | None = None,
) -> list[DeathReport]:
    """Death-time reports for valid X states sharing a channel and grid.

    The rows' parameters become ``(R, 1)`` columns that broadcast against
    the shared time grid; the scan runs on chunks of about
    ``_SCAN_SAMPLES`` grid samples and keeps a few numbers per row, never
    a full (rows, samples) array.  The verdict of every entangled row is
    the sign of the limit margin of the block that carried its
    entanglement (see the module docstring).  A row that dies is
    bracketed by its last grid crossing, or, if it is still alive at the
    horizon ``H``, by ``[H 2^(k-1), H 2^k]`` for the first ``k`` at which
    the closed-form negativity is at most ``eps_death``; all brackets are
    refined in one vectorised bisection.  The catalog block margins are
    monotone, so an earlier crossing is threshold flicker whose time is
    never reported.  A row whose negativity stays above ``eps_death`` at
    every representable time (possible only through roundoff at the
    separable boundary or populations in the tolerance band of
    :func:`~esdkit.states.make_x`) is ``"persistent"``.
    """
    if not is_catalog(channel):
        raise UnsupportedChannelError(
            "death_time requires a catalog channel with closed-form dynamics"
        )
    _require_positive("horizon", horizon)
    if dt is None:
        dt = horizon / DEFAULT_SAMPLES
    if not 0.0 < dt <= horizon:
        raise ValidationError(f"dt={dt!r} must satisfy 0 < dt <= horizon")

    n = max(1, int(round(horizon / dt)))
    times = np.linspace(0.0, horizon, n + 1)
    cols = [np.array(f) for f in zip(*((x.a, x.b, x.c, x.d, x.w, x.z) for x in rows))]
    count = len(rows)
    ever = np.empty(count, dtype=bool)
    alive_end = np.empty(count, dtype=bool)
    inner_peak = np.empty(count, dtype=bool)
    crossings = np.empty(count, dtype=int)
    last_flip = np.empty(count, dtype=int)
    step = max(1, _SCAN_SAMPLES // (n + 1))
    for first in range(0, count, step):
        part = slice(first, first + step)
        chunk = XState(*(col[part, None] for col in cols))
        # rate * time may overflow on a long grid; exp(-inf) = 0 is right
        with np.errstate(over="ignore"):
            curves = x_closed_curves(chunk, channel, times)
        neg, _, _, outer_pt, inner_pt = _x_diagnostics(curves)
        alive = neg > tol.eps_death
        flips = alive[:, :-1] != alive[:, 1:]
        ever[part] = alive.any(axis=1)
        alive_end[part] = alive[:, -1]
        crossings[part] = flips.sum(axis=1)
        last_flip[part] = n - 1 - np.argmax(flips[:, ::-1], axis=1)
        # the block that carried the entanglement (at most one block ever does)
        peak = np.argmax(neg, axis=1)[:, None]
        inner_peak[part] = (
            np.take_along_axis(inner_pt, peak, 1) < np.take_along_axis(outer_pt, peak, 1)
        )[:, 0]

    finite = np.zeros(count, dtype=bool)
    for i in np.nonzero(ever)[0]:
        finite[i] = _limit_margin(rows[i], channel, bool(inner_peak[i])) < 0.0
    # the z-block margin under collective dephasing is constant
    persistent = ever & ~finite & ~inner_peak & isinstance(channel, CollectiveDephasing)

    lo, hi = np.empty(count), np.empty(count)
    dead = np.nonzero(finite & ~alive_end)[0]
    lo[dead], hi[dead] = times[last_flip[dead]], times[last_flip[dead] + 1]
    # rows alive at the horizon: double the time until they are dead
    late = np.nonzero(finite & alive_end)[0]
    reach = horizon
    while late.size and math.isfinite(2.0 * reach):
        part = XState(*(col[late] for col in cols))
        # rate * time may overflow near the largest float; exp(-inf) = 0 is right
        with np.errstate(over="ignore"):
            curves = x_closed_curves(part, channel, np.full(late.size, 2.0 * reach))
        up = _x_diagnostics(curves)[0] > tol.eps_death
        lo[late[~up]], hi[late[~up]] = reach, 2.0 * reach
        late = late[up]
        reach *= 2.0
    # alive at every representable time
    finite[late], persistent[late] = False, True

    t_star = np.full(count, np.nan)
    dying = np.nonzero(finite)[0]
    t_star[dying] = _bisect_deaths(
        [col[dying] for col in cols], channel, lo[dying], hi[dying],
        1e-9 / max_rate(channel), tol.eps_death,
    )

    reports = []
    for i in range(count):
        t = None
        if not ever[i]:
            verdict = VERDICT_NEVER
        elif finite[i]:
            verdict, t = VERDICT_FINITE, float(t_star[i])
        elif persistent[i]:
            verdict = VERDICT_PERSISTENT
        else:
            verdict = VERDICT_ASYMPTOTIC
        reports.append(DeathReport(verdict, t, horizon, int(crossings[i]), tol.eps_death))
    return reports


def death_time(
    x0: XState,
    channel: ChannelSpec,
    horizon: float,
    tol: ToleranceConfig = DEFAULT_TOL,
    dt: float | None = None,
) -> DeathReport:
    """Scan, bracket and refine the loss of entanglement of ``x0``.

    Negativity is sampled on a uniform grid (``dt`` defaults to
    ``horizon / DEFAULT_SAMPLES``); the crossing that reports ``t_star`` is
    refined by bisection to ``delta_t = 1e-9 / max_rate(channel)``.  The
    verdict follows the module docstring and does not depend on the
    horizon; a state still entangled at the horizon that dies later gets a
    ``t_star`` past it.  Revivals narrower than the grid are invisible by
    construction and the report carries the horizon used.
    ``x0`` is validated as :func:`~esdkit.states.make_x` would.  This is
    the batched kernel that CLI sweeps use, run on a single row.
    """
    if not isinstance(x0, XState):
        raise ValidationError(
            f"death_time requires an XState, got {type(x0).__name__}"
        )
    x0 = make_x(x0.a, x0.b, x0.c, x0.d, x0.w, x0.z, tol=tol)
    return _death_reports([x0], channel, horizon, tol, dt)[0]


def crossing_count(traj: Trajectory, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of sign changes of ``negativity - eps_death`` between samples.

    Operates on the sampled diagnostics as stored; crossings narrower than
    the sampling grid are not observable here (death_time refines its own
    crossings against the exact flow).
    """
    alive = np.asarray(traj.negativity) > tol.eps_death
    return int(np.count_nonzero(alive[:-1] != alive[1:]))


def estimate_asymptote(
    state0: XState | DensityMatrix,
    channel: ChannelSpec,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> DensityMatrix:
    """Propagate with a doubling horizon until the state stops moving.

    Convergence means entrywise change below 1e-10 over one doubling; the
    limit is then verified to lie in the channel's asymptotic set (within
    1e-8).  Raises :class:`NoConvergenceError` after 40 doublings, or if
    the settled state is outside the set.  Dense states go through
    :func:`~esdkit.channels.propagate_numeric`, whose cost grows with the
    log of the step count, so there is no step budget.  A bare ``XState``
    is validated as :func:`~esdkit.states.make_x` would.
    """
    if not is_catalog(channel):
        raise UnsupportedChannelError("estimate_asymptote requires a catalog channel")
    target = asymptotic_set(channel)
    x0 = _x_form(state0, tol)

    rate = max_rate(channel)
    horizon = 1.0 / rate
    dt = 1e-3 / rate

    def finish(limit: DensityMatrix) -> DensityMatrix:
        if not set_contains(target, limit, 1e-8):
            raise NoConvergenceError(
                "propagation settled outside the channel's asymptotic set"
            )
        return limit

    if x0 is not None:
        prev = embed_x(propagate_x_closed(x0, channel, horizon))
        for _ in range(40):
            cur = embed_x(propagate_x_closed(x0, channel, 2.0 * horizon))
            if float(np.abs(cur.matrix - prev.matrix).max()) < 1e-10:
                return finish(cur)
            prev = cur
            horizon *= 2.0
    else:
        prev = propagate_numeric(state0, channel, horizon, dt, tol)
        for _ in range(40):
            # the increment from T to 2T equals the current horizon
            cur = propagate_numeric(prev, channel, horizon, dt, tol)
            if float(np.abs(cur.matrix - prev.matrix).max()) < 1e-10:
                return finish(cur)
            prev = cur
            horizon *= 2.0
    raise NoConvergenceError("no entrywise convergence after 40 horizon doublings")


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize a trajectory; population cells are empty for non-X runs."""
    pops = (traj.a, traj.b, traj.c, traj.d) if traj.is_x else ()
    rows = np.column_stack((
        traj.times, traj.negativity, traj.min_pt_eig, traj.min_eig, *pops,
        traj.abs_w, traj.abs_z,
    )).tolist()
    gap = "," if traj.is_x else ",,,,,"
    lines = [CSV_HEADER]
    lines += [",".join(map(repr, row[:-2])) + gap + ",".join(map(repr, row[-2:])) for row in rows]
    return "\n".join(lines) + "\n"


def parse_trajectory_csv(text: str) -> dict[str, np.ndarray | None]:
    """Parse trajectory CSV back into named column arrays.

    Returns a dict keyed by the header names; the population columns map
    to ``None`` when the file was written for a non-X trajectory.
    """
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(f"bad trajectory CSV header: {lines[0] if lines else ''!r}")
    names = CSV_HEADER.split(",")
    columns: dict[str, list[float]] = {name: [] for name in names}
    has_pops: bool | None = None
    for row_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(names):
            raise ParseError(f"row {row_no} has {len(cells)} cells, expected {len(names)}")
        pop_cells = cells[4:8]
        empty = all(cell == "" for cell in pop_cells)
        filled = all(cell != "" for cell in pop_cells)
        if not (empty or filled):
            raise ParseError(f"row {row_no} has partially empty population cells")
        if has_pops is None:
            has_pops = filled
        elif has_pops != filled:
            raise ParseError(f"row {row_no} mixes X and non-X population cells")
        for name, cell in zip(names, cells):
            if cell == "":
                continue
            try:
                columns[name].append(float(cell))
            except ValueError:
                raise ParseError(f"row {row_no}, column {name}: bad float {cell!r}") from None
    out: dict[str, np.ndarray | None] = {}
    for name in names:
        if name in ("a", "b", "c", "d") and not has_pops:
            out[name] = None
        else:
            out[name] = np.asarray(columns[name], dtype=float)
    return out


def death_report_to_json(report: DeathReport) -> str:
    payload = {
        "verdict": report.verdict,
        "t_star": report.t_star,
        "horizon": report.horizon,
        "crossings": report.crossings,
        "epsilon_death": report.eps_death,
    }
    return json.dumps(payload, indent=2) + "\n"


def death_report_from_json(text: str) -> DeathReport:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad death report JSON: {exc}") from None
    required = {"verdict", "t_star", "horizon", "crossings", "epsilon_death"}
    if not isinstance(payload, dict) or not required.issubset(payload):
        raise ParseError(f"death report JSON must contain fields {sorted(required)}")
    t_star = payload["t_star"]
    return DeathReport(
        str(payload["verdict"]),
        None if t_star is None else float(t_star),
        float(payload["horizon"]),
        int(payload["crossings"]),
        float(payload["epsilon_death"]),
    )
