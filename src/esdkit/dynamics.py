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
carried the entanglement (the channel's ``_limit_margins``), whatever the
horizon: strictly negative means the block leaves the entangled region at
a finite time (``"finite"``); zero or positive means it never does, and
its negativity drains to zero (``"asymptotic"``) unless the channel leaves
the block undamped (``"persistent"``; only the z-block under collective
dephasing, the decoherence-free subspace, has ``_outer_undamped``).

Verdict vocabulary: ``"finite"`` (the negativity reaches ``eps_death`` at
``t_star``, which may lie past the horizon), ``"asymptotic"`` (negativity
positive but draining toward 0), ``"persistent"`` (negativity bounded
away from 0) and ``"never_entangled"``.

Every catalog channel mixes local maps that form a semigroup, and
negativity cannot grow under local maps, so a state is entangled exactly
on ``[0, t*)``.  One kernel, ``_death_reports``, decides X states sharing
a channel and horizon from their negativity at 0 and at the horizon, and
refines all crossings in one vectorised bisection; :func:`death_time`
runs it on one row, CLI sweeps on a whole grid.  Each closed-form probe of
the kernel decides several halvings of every bracket at once (the next
levels of its halving tree), or a whole ladder of doublings of the horizon.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._floattext import format_rows
from .channels import (
    ChannelSpec,
    asymptotic_set,
    is_catalog,
    liouvillian,
    max_rate,
    x_closed_curves,
    _finite_states,
    _revalidate,
    _rk4_samples,
    _step_plan,
    _time_scale,
)
from .entanglement import _pt_diagnostics
from .errors import (
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

# default number of retained samples per trajectory
DEFAULT_SAMPLES = 2000

CSV_HEADER = "t,negativity,min_pt_eig,min_eig,a,b,c,d,abs_w,abs_z"


@dataclass(frozen=True, eq=False)
class _StateView(Sequence):
    """Read-only sequence over a frozen (n, 4, 4) stack or six read-only X curves, whose
    rows :func:`embed_x` builds when read; each access gives a new :class:`DensityMatrix`."""

    rows: np.ndarray | tuple = field(repr=False)  # the stack, or the X curves

    def __len__(self) -> int:
        return len(self.rows[0] if isinstance(self.rows, tuple) else self.rows)

    def __getitem__(self, i) -> DensityMatrix:
        i = operator.index(i)
        if isinstance(self.rows, tuple):
            return embed_x(XState(*(curve[i] for curve in self.rows)))
        return DensityMatrix(self.rows[i])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution with per-sample diagnostics.

    Population arrays ``a..d``, all four or none, are present only for X
    trajectories (read-only from the closed form); ``abs_w``/``abs_z`` record
    the anti-diagonal entry magnitudes of every trajectory.  ``states`` is a
    read-only view over the samples (``len``, indexing, iteration); each
    access returns a new :class:`DensityMatrix` over a read-only row.
    """

    times: np.ndarray
    states: Sequence
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
        populations = [col for col in (self.a, self.b, self.c, self.d) if col is not None]
        if len(populations) not in (0, 4):
            raise ValidationError("trajectory populations a..d must be all given or all None")
        columns += populations
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
    counts the threshold crossings up to the horizon, 0 or 1 because
    negativity never grows under a catalog channel.
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
        _require_positive("horizon", self.horizon)
        if self.t_star is not None and not 0.0 <= self.t_star < math.inf:
            raise ValidationError(f"t_star must be finite and >= 0, got {self.t_star!r}")
        if self.crossings < 0:
            raise ValidationError(f"crossings must be nonnegative, got {self.crossings!r}")
        if not 0.0 < self.eps_death <= 1e-2:
            raise ValidationError(f"eps_death must lie in (0, 1e-2], got {self.eps_death!r}")


def _pt_blocks(curves: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(negativity, outer_pt, inner_pt)`` of X curves ``(a, b, c, d, w, z)``,
    elementwise, so ``(R, n)`` curves give ``(R, n)`` arrays: the lower
    eigenvalues of the outer (levels 1,4) and inner (levels 2,3) blocks of
    the partial transpose, which swaps their coherences.  Block arithmetic
    keeps tiny negativities sign-accurate where a full eigensolve would
    drown them in roundoff from the large complement block."""
    a, b, c, d, w, z = curves
    outer_pt = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(z))
    inner_pt = 0.5 * (b + c) - np.hypot(0.5 * (b - c), np.abs(w))
    neg = np.where(outer_pt < 0.0, -outer_pt, 0.0) + np.where(inner_pt < 0.0, -inner_pt, 0.0)
    return neg, outer_pt, inner_pt


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

    Uses the exact closed form, kept as six curves and no matrices, when the
    initial state is X (or projects to X) and the channel is in the catalog;
    otherwise integrates with fixed-step RK4.  ``dt`` defaults to
    ``1e-3 / max_rate(channel)``, ``sample_every`` to about ``DEFAULT_SAMPLES`` samples.
    The final sample lands on ``horizon`` exactly, after one shorter last
    step when ``horizon`` is not a multiple of ``dt`` (a default ``dt`` or
    a ``horizon / dt`` that overflows raises :class:`ValidationError`).  RK4
    runs as powers of its one-step matrix ``P(dt)``, kept as deltas from
    ``I``: blocks of the hop powers ``H^1..H^B``, ``H = P(dt)^sample_every``
    and ``B`` about the root of the sample count, advance ``B`` samples per
    batched product, with the same result as stepping up to roundoff at
    any ``dt``; the squares of ``P`` are memoized (see ``propagate_numeric``)
    with the same bits.  All retained samples are re-validated together; the
    earliest failing one raises :class:`~esdkit.errors.StepTooLargeError`.
    A bare ``XState`` is validated as :func:`~esdkit.states.make_x` would.
    """
    _require_positive("horizon", horizon)
    if dt is None:
        dt = _time_scale(channel, 1e-3, "dt")
    _require_positive("dt", dt)
    x0 = _x_form(state0, tol)

    n_steps, h_last = _step_plan(horizon, dt)
    if sample_every is None:
        sample_every = -(-n_steps // DEFAULT_SAMPLES)  # an exact ceiling, past 2**53 steps too
    elif not hasattr(type(sample_every), "__index__") or sample_every < 1:
        # an integer is anything operator.index takes, as for range()
        raise ValidationError(f"sample_every must be an integer >= 1, got {sample_every!r}")
    # Python ints: step counts pass 2**63 at tiny dt
    ks = list(range(0, n_steps + sample_every, sample_every))
    ks[-1] = n_steps
    times = np.minimum(np.asarray(ks, dtype=float) * dt, horizon)

    if x0 is not None and is_catalog(channel):
        curves = x_closed_curves(x0, channel, times)
        for curve in curves:  # states and a..d read them
            curve.setflags(write=False)
        neg, outer_pt, inner_pt = _pt_blocks(curves)
        # the state's own blocks are its partial transpose's with w and z swapped back
        min_eig = np.minimum(*_pt_blocks((*curves[:4], curves[5], curves[4]))[1:])
        return Trajectory(times, _StateView(curves), neg, np.minimum(outer_pt, inner_pt),
                          min_eig, np.abs(curves[4]), np.abs(curves[5]), *curves[:4])
    if x0 is not None and not isinstance(state0, DensityMatrix):
        state0 = embed_x(x0)
    vs = _rk4_samples(liouvillian(channel), state0.matrix.reshape(16), dt, h_last, ks)
    later, later_min = _revalidate(vs[1:].reshape(-1, 4, 4), tol)
    stack = np.concatenate([state0.matrix[None], later])
    stack.setflags(write=False)
    min_eig = np.concatenate([np.linalg.eigvalsh(state0.matrix)[:1], later_min])
    neg, min_pt = _pt_diagnostics(stack)
    return Trajectory(times, _StateView(stack), neg, min_pt, min_eig, np.abs(stack[:, 0, 3]),
                      np.abs(stack[:, 1, 2]))


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def _alive(cols: list[np.ndarray], rows: np.ndarray, channel: ChannelSpec,
           times: np.ndarray, eps_death: float) -> np.ndarray:
    """Whether each X row ``rows`` of ``cols`` has a closed-form negativity above
    ``eps_death`` at ``times``, whose last axis runs over the rows or broadcasts to them."""
    part = XState(*(col[rows] for col in cols))
    return _pt_blocks(x_closed_curves(part, channel, times))[0] > eps_death


# times per death probe, which costs about 45 us plus 0.06 us per time by timeit on decay
# (Xeon; 1 row x 63 times 48 us, 29 x 7 57 us, 49 x 36 147 us); 512 measured best of 256..4,096
_PROBE_POINTS = 512


def _halving_tree(depth: int) -> tuple[np.ndarray, ...]:
    """Read-only grid indices of the ends of the nodes k - 1 of a halving tree in heap order
    (node i halves into the dead 2i + 1 and the alive 2i + 2), its mids, and a column of i."""
    k = np.arange(1, 2 << depth)
    width = (1 << depth) >> (np.frexp(k)[1] - 1)
    low = k * width - (1 << depth)
    tree = (low, low + width, (low + width // 2)[: (1 << depth) - 1],
            np.arange((1 << depth) - 1)[:, None])
    for table in tree:
        table.setflags(write=False)
    return tree


_TREES = {depth: _halving_tree(depth) for depth in range(1, 7)}


def _bisect_deaths(cols: list[np.ndarray], channel: ChannelSpec, lo: np.ndarray,
                   hi: np.ndarray, xtol: float, eps_death: float) -> np.ndarray:
    """Refine alive-to-dead brackets ``[lo, hi]``, one per entry of ``cols``.

    Each is halved until its width is at most ``xtol`` or its midpoint
    ``0.5 * (lo + hi)`` equals an end, and reports that midpoint; where the
    sum overflows, the midpoint is ``0.5 * lo + 0.5 * hi`` (only there, as
    that rounds subnormal ends differently).  A round forms the midpoints
    of the next ``depth <= 6`` levels of each open bracket's halving tree,
    an overflowing one stopping its node until the next round, probes them
    in one :func:`_alive` call of at most ``_PROBE_POINTS`` times, and
    walks each row down to the last level or to the first node that stops:
    the midpoints, stops and bits of one halving per probe.
    """
    t_star = np.empty(lo.size)
    open_ = np.arange(lo.size)
    while True:
        total = lo + hi
        mid = 0.5 * total if total.max(initial=0.0) < math.inf else np.where(
            np.isfinite(total), 0.5 * total, 0.5 * lo + 0.5 * hi)
        keep = (hi - lo > xtol) & (lo < mid) & (mid < hi)
        if not keep.all():
            t_star[open_[~keep]] = mid[~keep]
            open_, lo, hi, mid = open_[keep], lo[keep], hi[keep], mid[keep]
        n = open_.size
        if not n:
            return t_star
        depth = min(6, max(1, (_PROBE_POINTS // n + 1).bit_length() - 1))
        low, high, mids, nodes = _TREES[depth]
        # a row of grid points per tree position, a column per open bracket
        grid = np.empty(((1 << depth) + 1, n))
        grid[0], grid[-1], grid[1 << (depth - 1)] = lo, hi, mid
        for cells in (1 << depth) >> np.arange(1, depth):
            np.multiply(0.5, grid[:-1:cells] + grid[cells::cells], out=grid[cells // 2::cells])
        # an overflowing midpoint stops its node; clamped to hi, the times below stay finite
        np.minimum(grid, hi, out=grid)
        l, h, m = grid[low[: mids.size]], grid[high[: mids.size]], grid[mids]
        up = _alive(cols, open_, channel, m, eps_death)
        # each node's successor as a flat index into (node, row); a stopped node keeps the row
        column = np.arange(n)
        step = np.where((h - l > xtol) & (l < m) & (m < h), 2 * nodes + 1 + up, nodes)
        at, step = column, step * n + column
        for _ in range(depth):
            at = step.take(at)
        # a row that stopped on the way stops again at the top of the next round
        lo, hi = grid[low[at // n], column], grid[high[at // n], column]


# rate * time may overflow at late times; exp(-inf) = 0 is right
@np.errstate(over="ignore")
def _death_reports(
    x: XState,
    channel: ChannelSpec,
    horizon: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``(verdicts, t_star, crossings)`` arrays, ``t_star`` NaN unless finite, of
    valid X states sharing a channel and horizon, as an ``XState`` of scalars or columns.

    The closed-form negativity of all rows at 0 and at the horizon ``H``
    is one ``(rows, 2)`` batch, and monotonicity (module docstring; it
    needs the catalog channel checked first) makes it enough: a row is
    entangled iff alive at 0, in the PT block negative at 0, and crosses
    ``eps_death`` once iff it is dead at ``H``.  A row that dies by its
    block's limit-margin verdict is bracketed by ``[0, H]``, or, if alive
    at ``H``, by ``[H 2^(k-1), H 2^k]`` for the first ``k`` at which its
    negativity is at most ``eps_death``, all rungs ``H 2^k`` probed in one
    call up to ``_PROBE_POINTS`` points; one vectorised bisection refines
    all brackets.  A row whose negativity stays above ``eps_death`` at
    every representable time (only through roundoff at the separable
    boundary or populations in the tolerance band of
    :func:`~esdkit.states.make_x`) is ``"persistent"``.
    """
    if not is_catalog(channel):
        raise UnsupportedChannelError(
            "death_time requires a catalog channel with closed-form dynamics"
        )
    _require_positive("horizon", horizon)

    cols = [np.atleast_1d(getattr(x, f)) for f in "abcdwz"]
    count = cols[0].size
    curves = x_closed_curves(XState(*(col[:, None] for col in cols)), channel,
                             np.array([0.0, horizon]))
    neg, outer_pt, inner_pt = _pt_blocks(curves)
    alive = neg > tol.eps_death
    ever, alive_end = alive[:, 0], alive[:, 1]
    crossings = ever & ~alive_end
    # the block that carries the entanglement (at most one block ever does)
    inner_block = inner_pt[:, 0] < outer_pt[:, 0]

    outer_margin, inner_margin = channel._limit_margins(XState(*cols))
    finite = ever & (np.where(inner_block, inner_margin, outer_margin) < 0.0)
    persistent = ever & ~finite & ~inner_block & channel._outer_undamped

    lo, hi = np.zeros(count), np.full(count, horizon)
    # rows alive at the horizon: bracket each by its first dead rung of a ladder of doublings
    late = np.nonzero(finite & alive_end)[0]
    reach = horizon
    while late.size and math.isfinite(2.0 * reach):
        # reach * 2^k is exact, and finite up to k = 1024 - (exponent of reach)
        rungs = np.ldexp(reach, np.arange(1 + min(max(1, _PROBE_POINTS // late.size),
                                                  1024 - math.frexp(reach)[1])))
        up = _alive(cols, late, channel, rungs[1:, None], tol.eps_death)
        first, dead = up.argmin(axis=0), ~up.all(axis=0)
        lo[late[dead]], hi[late[dead]] = rungs[first[dead]], rungs[first[dead] + 1]
        late, reach = late[~dead], float(rungs[-1])
    # alive at every representable time
    finite[late], persistent[late] = False, True

    t_star = np.full(count, np.nan)
    dying = np.nonzero(finite)[0]
    t_star[dying] = _bisect_deaths(
        [col[dying] for col in cols], channel, lo[dying], hi[dying],
        1e-9 / max_rate(channel), tol.eps_death,
    )

    verdicts = np.select(
        [~ever, finite, persistent],
        [VERDICT_NEVER, VERDICT_FINITE, VERDICT_PERSISTENT], VERDICT_ASYMPTOTIC,
    )
    return verdicts, t_star, crossings.astype(int)


def death_time(
    x0: XState,
    channel: ChannelSpec,
    horizon: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> DeathReport:
    """Decide, bracket and refine the loss of entanglement of ``x0``.

    Negativity cannot grow under the catalog's local semigroups, so ``x0``
    is entangled exactly on ``[0, t*)``, and its closed-form negativity at
    0 and at the horizon locates the one crossing, which bisection refines
    to ``delta_t = 1e-9 / max_rate(channel)``.  The verdict follows the
    module docstring and does not depend on the horizon; a state that
    dies after the horizon gets a ``t_star`` past it.  ``x0`` is validated
    as :func:`~esdkit.states.make_x` would.  This is the batched kernel
    that CLI sweeps use, run on a single row.
    """
    if not isinstance(x0, XState):
        raise ValidationError(
            f"death_time requires an XState, got {type(x0).__name__}"
        )
    x0 = make_x(x0.a, x0.b, x0.c, x0.d, x0.w, x0.z, tol=tol)
    (verdict,), (t,), (n,) = (col.tolist() for col in _death_reports(x0, channel, horizon, tol))
    return DeathReport(verdict, None if math.isnan(t) else t, horizon, n, tol.eps_death)


def crossing_count(traj: Trajectory, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of sign changes of ``negativity - eps_death`` between samples.

    Operates on the sampled diagnostics as stored; crossings narrower than
    the sampling grid are not observable here (death_time locates its one
    crossing against the exact flow, without a grid).
    """
    alive = np.asarray(traj.negativity) > tol.eps_death
    return int(np.count_nonzero(alive[:-1] != alive[1:]))


def estimate_asymptote(
    state0: XState | DensityMatrix,
    channel: ChannelSpec,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> DensityMatrix:
    """The long-time limit of ``state0``: its exact projection onto
    :func:`~esdkit.channels.asymptotic_set`, with no propagation.

    A finite set, decay's :class:`~esdkit.channels.SinglePoint`, gives its
    own state; an :class:`~esdkit.channels.XFamily` keeps the entries of
    ``rho0`` its members may occupy: the diagonal and each coherence, ``w``
    at 0-based ``[0, 3]`` and ``z`` at ``[1, 2]``, that it does not force to
    zero (collective dephasing keeps ``z``).  Every other entry decays to
    0.  A bare ``XState`` is validated as :func:`~esdkit.states.make_x` would.
    """
    target = asymptotic_set(channel)  # refuses a custom channel
    x0 = _x_form(state0, tol)
    states = _finite_states(target)
    if states is not None:
        return states[0]
    m = (embed_x(x0) if isinstance(state0, XState) else state0).matrix
    return _unchecked_density(np.where(target._mask, m, 0.0))


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize a trajectory; population cells are empty for non-X runs.

    Each cell holds ``repr`` of its float, byte for byte, spelled for the
    whole table at once by :func:`esdkit._floattext.format_rows`; the
    empty population cells are the ``min_eig`` column's separator.
    """
    pops = (traj.a, traj.b, traj.c, traj.d) if traj.is_x else ()
    table = np.column_stack((
        traj.times, traj.negativity, traj.min_pt_eig, traj.min_eig, *pops,
        traj.abs_w, traj.abs_z,
    ))
    gap = "," if traj.is_x else ",,,,,"
    separators = [",", ",", ",", gap] + [","] * len(pops) + [",", "\n"]
    return CSV_HEADER + "\n" + format_rows(table, separators)


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
            if cell == "" and name in ("a", "b", "c", "d"):  # a non-X row's populations
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"row {row_no}, column {name}: bad float {cell!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"row {row_no}, column {name}: non-finite value {cell!r}")
            columns[name].append(value)
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
    """Read :func:`death_report_to_json` output; malformed input raises :class:`ParseError`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad death report JSON: {exc}") from None
    required = {"verdict", "t_star", "horizon", "crossings", "epsilon_death"}
    if not isinstance(payload, dict) or not required.issubset(payload):
        raise ParseError(f"death report JSON must contain fields {sorted(required)}")
    t_star, crossings = payload["t_star"], payload["crossings"]
    if isinstance(crossings, bool) or not isinstance(crossings, int):
        raise ParseError(f"death report crossings must be an integer, got {crossings!r}")
    for name in ("t_star", "horizon", "epsilon_death"):
        # JSON gives exact types; a boolean or a string is no number, though float() takes it
        if type(payload[name]) not in (int, float) and not (name == "t_star" and t_star is None):
            raise ParseError(f"death report {name} must be a number, got {payload[name]!r}")
    try:
        return DeathReport(
            str(payload["verdict"]),
            None if t_star is None else float(t_star),
            float(payload["horizon"]),
            crossings,
            float(payload["epsilon_death"]),
        )
    except (OverflowError, ValueError) as exc:  # an int past floats, or a report refused
        raise ParseError(f"bad death report JSON: {exc}") from None
