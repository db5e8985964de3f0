"""Trajectories, death-time verdicts and their serialized forms."""

import subprocess
import sys
from collections.abc import Sequence

import numpy as np
import pytest

import esdkit.dynamics
from esdkit import (
    DEFAULT_SAMPLES,
    CollectiveDephasing,
    CustomChannel,
    DeathReport,
    DensityMatrix,
    IndependentDecay,
    IndependentDephasing,
    Trajectory,
    VERDICT_ASYMPTOTIC,
    VERDICT_FINITE,
    VERDICT_NEVER,
    VERDICT_PERSISTENT,
    bell,
    crossing_count,
    death_report_from_json,
    death_report_to_json,
    death_time,
    embed_x,
    estimate_asymptote,
    format_channel_literal,
    jump_operators,
    make_x,
    max_rate,
    maximally_mixed,
    min_pt_eigenvalue,
    negativity,
    parse_trajectory_csv,
    project_x,
    random_density,
    random_x,
    simulate,
    thermal_product,
    trajectory_to_csv,
    werner,
)
from esdkit.channels import SinglePoint, XFamily, asymptotic_set, set_contains, x_closed_curves
from esdkit.dynamics import _death_reports, _pt_blocks
from esdkit.errors import (
    NegativePopulationError,
    NotPositiveError,
    ParseError,
    StepTooLargeError,
    UnsupportedChannelError,
    ValidationError,
)
from esdkit.states import DEFAULT_TOL, XState

from _cli import cli_env
from _oracles import (
    death_time_grid_scalar,
    death_time_scalar,
    decay_jumps,
    lindblad_matrix,
    rk4_evolve,
    trajectory_to_csv_reference,
)


def pure_family(a):
    """sqrt(a)|ee> + sqrt(1-a)|gg>; dies under zero-temperature decay
    at t* = -ln(1 - sqrt((1-a)/a)) when a > 1/2, asymptotically otherwise."""
    return make_x(a, 0.0, 0.0, 1.0 - a, w=np.sqrt(a * (1.0 - a)))


def as_custom(channel):
    """Wrap a catalog channel's jump list so simulate takes the numeric path."""
    return CustomChannel(tuple(jump_operators(channel)))


# --- simulate ---------------------------------------------------------------

def test_simulate_closed_path_basics():
    traj = simulate(random_x(1), IndependentDecay(1.0, 1.0, 0.3), horizon=2.0)
    assert traj.is_x
    assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
    assert np.all(np.diff(traj.times) > 0.0)
    n = len(traj.times)
    assert len(traj.states) == n == len(traj.negativity) == len(traj.a)
    np.testing.assert_allclose(traj.a + traj.b + traj.c + traj.d, 1.0, atol=1e-12)


def test_simulate_ends_at_huge_horizons():
    # 1e13 steps of the default dt: the step plan must not drop whole steps
    traj = simulate(random_x(1), IndependentDecay(1.0, 1.0, 0.0), horizon=1e10)
    assert traj.times[-1] == 1e10


def test_simulate_closed_diagnostics_match_dense_eigensolves():
    traj = simulate(
        random_x(6), IndependentDecay(1.0, 0.5, 0.4), horizon=3.0, sample_every=200
    )
    for i in range(len(traj.times)):
        rho = traj.states[i]
        np.testing.assert_allclose(negativity(rho), traj.negativity[i], atol=1e-12)
        np.testing.assert_allclose(
            min_pt_eigenvalue(rho), traj.min_pt_eig[i], atol=1e-12
        )
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rho.matrix)[0], traj.min_eig[i], atol=1e-12
        )
    # min_eig is the lower eigenvalue of the state's own 2x2 blocks, bit for bit,
    # on every catalog channel, frozen qubits and zero or signed-zero coherences too
    channels = (IndependentDecay(1.0, 0.5, 0.4), IndependentDecay(0.0, 0.7, 0.0),
                IndependentDecay(0.7, 0.0, 0.3), IndependentDephasing(0.4, 0.9),
                IndependentDephasing(0.0, 0.9), CollectiveDephasing(0.6))
    states = (random_x(6), make_x(0.4, 0.1, 0.1, 0.4, 0.3), make_x(0.3, 0.2, 0.2, 0.3, z=0.15j),
              make_x(0.4, 0.1, 0.1, 0.4, -0.0, complex(-0.0, -0.0)), make_x(0.25, 0.25, 0.25, 0.25))
    for channel in channels:
        for x0 in states:
            closed = simulate(x0, channel, horizon=3.0, sample_every=50)
            a, b, c, d, w, z = x_closed_curves(x0, channel, closed.times)
            want = np.minimum(0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(w)),
                              0.5 * (b + c) - np.hypot(0.5 * (b - c), np.abs(z)))
            np.testing.assert_array_equal(closed.min_eig.view(np.uint64), want.view(np.uint64))
    # an RK4 trajectory's columns come from the same PT eigensolve, bit for bit
    dense = simulate(
        random_density(3), IndependentDecay(1.0, 0.5, 0.4), horizon=3.0, sample_every=200
    )
    assert not dense.is_x and dense.negativity[0] > 0.1
    for rho, neg, min_pt in zip(dense.states, dense.negativity, dense.min_pt_eig):
        assert negativity(rho) == neg
        assert min_pt_eigenvalue(rho) == min_pt


def test_simulate_numeric_path_for_dense_state():
    traj = simulate(
        random_density(4), IndependentDephasing(1.0, 1.0), horizon=1.0,
        sample_every=250,
    )
    assert not traj.is_x
    assert traj.a is None
    assert traj.times[-1] == 1.0
    # trace and positivity survive integration on every retained sample
    for rho in traj.states:
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-9
        assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-8


def test_simulate_numeric_matches_closed_on_same_grid():
    x = random_x(3)
    channel = IndependentDecay(1.0, 1.0, 0.5)
    closed = simulate(x, channel, horizon=2.0, dt=1e-3, sample_every=400)
    numeric = simulate(x, as_custom(channel), horizon=2.0, dt=1e-3, sample_every=400)
    np.testing.assert_array_equal(closed.times, numeric.times)
    assert not numeric.is_x
    np.testing.assert_allclose(closed.negativity, numeric.negativity, atol=1e-6)
    np.testing.assert_allclose(closed.min_pt_eig, numeric.min_pt_eig, atol=1e-6)
    np.testing.assert_allclose(closed.abs_w, numeric.abs_w, atol=1e-6)


def test_simulate_numeric_samples_match_looped_rk4():
    # 451 steps of 1e-3 with a short last step of 5e-4, retained every 40
    channel = IndependentDecay(0.8, 1.2, nbar=0.3)
    lmat = lindblad_matrix(decay_jumps(0.8, 1.2, 0.3))
    rho = random_density(9)
    traj = simulate(rho, channel, horizon=0.4505, dt=1e-3, sample_every=40)
    expected = [k * 1e-3 for k in range(0, 451, 40)] + [0.4505]
    np.testing.assert_allclose(traj.times, expected, rtol=0, atol=1e-15)
    for t, state in zip(traj.times, traj.states):
        ref = rk4_evolve(lmat, rho.matrix, float(t), 1e-3)
        ref = ref / np.trace(ref).real
        np.testing.assert_allclose(state.matrix, ref, atol=1e-12)


# (horizon, retained samples) at dt = 1e-3 and sample_every = 3: no whole
# hop, one, two, a perfect square of hops, and a partial last block, the
# last also with a short final step of 5e-4
BLOCK_CASES = [(0.003, 2), (0.006, 3), (0.009, 4), (0.030, 11), (0.033, 12), (0.0305, 12)]


@pytest.mark.parametrize("horizon, retained", BLOCK_CASES)
def test_simulate_blocked_hops_match_looped_rk4(horizon, retained):
    channel = IndependentDecay(0.8, 1.2, nbar=0.3)
    lmat = lindblad_matrix(decay_jumps(0.8, 1.2, 0.3))
    rho = random_density(12)
    traj = simulate(rho, channel, horizon=horizon, dt=1e-3, sample_every=3)
    assert len(traj.times) == retained and traj.times[-1] == horizon
    for t, state in zip(traj.times, traj.states):
        ref = rk4_evolve(lmat, rho.matrix, float(t), 1e-3)
        ref = ref / np.trace(ref).real
        np.testing.assert_allclose(state.matrix, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dense", [False, True])
def test_trajectory_states_view(dense):
    state0 = random_density(7) if dense else random_x(7)
    traj = simulate(state0, IndependentDecay(1.0, 0.6, 0.2), horizon=1.0, sample_every=150)
    assert traj.is_x is not dense
    states = traj.states
    n = len(traj.times)
    assert isinstance(states, Sequence) and not isinstance(states, tuple)
    assert len(states) == n == 9
    start = state0.matrix if dense else embed_x(state0).matrix
    np.testing.assert_array_equal(states[0].matrix, start)
    np.testing.assert_array_equal(states[-1].matrix, states[n - 1].matrix)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            states[i]
    rows = list(states)
    assert len(rows) == n
    for i, rho in enumerate(rows):
        assert isinstance(rho, DensityMatrix)
        np.testing.assert_array_equal(rho.matrix, states.stack[i])
        assert not rho.matrix.flags.writeable
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
    # each access builds a new wrapper over the same read-only row
    assert states[1] is not states[1]
    assert not states.stack.flags.writeable


@pytest.mark.parametrize("horizon", [1e20, 1e300])
@pytest.mark.parametrize("dense", [False, True])
def test_simulate_default_sampling_past_2_to_the_53_steps(horizon, dense):
    # about 1e23 steps and up: the float quotient n_steps / DEFAULT_SAMPLES
    # once rounded down, and a 2,002nd sample landed on the horizon, a repeat
    state0 = random_density(5) if dense else make_x(0.4, 0.1, 0.1, 0.4, 0.3, 0.05)
    traj = simulate(state0, IndependentDecay(1.0, 1.0), horizon)
    assert len(traj.times) == DEFAULT_SAMPLES + 1 and traj.times[-1] == horizon
    assert np.all(np.diff(traj.times) > 0.0)


def test_simulate_numeric_coarse_step_fails_validation():
    with pytest.raises(StepTooLargeError):
        simulate(random_density(9), IndependentDecay(1.0, 1.0), horizon=40.0, dt=4.0)


def test_simulate_validation():
    x = random_x(0)
    channel = CollectiveDephasing(1.0)
    with pytest.raises(ValidationError):
        simulate(x, channel, horizon=0.0)
    with pytest.raises(ValidationError):
        simulate(x, channel, horizon=1.0, dt=-0.1)
    with pytest.raises(ValidationError):
        simulate(x, channel, horizon=1.0, sample_every=0)
    for value in (2.5, np.float64(3.0)):
        with pytest.raises(ValidationError, match="sample_every must be an integer"):
            simulate(x, channel, horizon=1.0, sample_every=value)
    # anything operator.index takes is an integer
    assert len(simulate(x, channel, horizon=1.0, sample_every=np.int64(250)).times) == 5
    with pytest.raises(ValidationError):
        simulate(np.eye(4) / 4.0, channel, horizon=1.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            simulate(x, channel, horizon=value)
        with pytest.raises(ValidationError):
            simulate(x, channel, horizon=1.0, dt=value)


# --- death_time -------------------------------------------------------------

def test_death_time_pure_family_finite():
    report = death_time(pure_family(0.7), IndependentDecay(1.0, 1.0, 0.0), 10.0)
    assert report.verdict == VERDICT_FINITE
    expected = -np.log(1.0 - np.sqrt(3.0 / 7.0))
    assert abs(report.t_star - expected) < 1e-6
    assert report.crossings == 1
    assert report.horizon == 10.0


def test_death_time_pure_family_asymptotic():
    report = death_time(pure_family(0.3), IndependentDecay(1.0, 1.0, 0.0), 10.0)
    assert report.verdict == VERDICT_ASYMPTOTIC
    assert report.t_star is None


def test_death_time_never_entangled():
    report = death_time(werner(0.25), IndependentDecay(1.0, 1.0, 0.0), 5.0)
    assert report.verdict == VERDICT_NEVER
    assert report.crossings == 0
    diag = make_x(0.25, 0.25, 0.25, 0.25)
    assert death_time(diag, CollectiveDephasing(1.0), 5.0).verdict == VERDICT_NEVER


def test_death_time_persistent_in_decoherence_free_subspace():
    report = death_time(bell("psi+"), CollectiveDephasing(1.0), 50.0)
    assert report.verdict == VERDICT_PERSISTENT
    assert report.t_star is None


def test_death_time_collective_inner_block():
    # w/sqrt(bc) = 1.4, so the entangled block margin hits zero at
    # t* = ln(1.4) / (2 kappa_c), past the shorter horizon
    x = make_x(0.3, 0.2, 0.2, 0.3, w=0.28)
    for horizon in (10.0, 0.1):
        report = death_time(x, CollectiveDephasing(1.0), horizon)
        assert report.verdict == VERDICT_FINITE
        assert abs(report.t_star - 0.5 * np.log(1.4)) < 1e-6


def test_death_time_dephasing_outer_block():
    # |z|^2 e^{-2 (ka + kb) t} = a d  =>  t* = ln(|z|^2 / (a d)) / (2 (ka + kb))
    x = make_x(0.2, 0.3, 0.3, 0.2, z=0.25)
    report = death_time(x, IndependentDephasing(1.0, 1.0), 10.0)
    assert report.verdict == VERDICT_FINITE
    assert abs(report.t_star - 0.25 * np.log(0.0625 / 0.04)) < 1e-6


def test_death_time_knife_edge_boundary_is_asymptotic():
    # a = 1/2 exactly: the survival margin's limit is a perfect zero, and
    # long horizons must not misread coherence underflow as a death
    for horizon in (10.0, 200.0):
        report = death_time(pure_family(0.5), IndependentDecay(1.0, 1.0, 0.0), horizon)
        assert report.verdict == VERDICT_ASYMPTOTIC


def test_death_time_knife_edge_one_ulp_above_boundary():
    for horizon in (200.0, 3.0):
        report = death_time(
            pure_family(np.nextafter(0.5, 1.0)), IndependentDecay(1.0, 1.0, 0.0), horizon
        )
        assert report.verdict == VERDICT_FINITE


def test_death_time_long_horizon_matches_short():
    # horizons before t* bracket it by doubling past the horizon
    x = pure_family(0.7)
    channel = IndependentDecay(1.0, 1.0, 0.0)
    expected = -np.log(1.0 - np.sqrt(3.0 / 7.0))
    for horizon in (1e-13, 0.5, 5.0, 400.0):
        report = death_time(x, channel, horizon)
        assert report.verdict == VERDICT_FINITE
        assert abs(report.t_star - expected) < 1e-6


def test_death_time_huge_horizon_bisects_to_the_crossing():
    # a first grid bracket of width ~5e296 needs about 1050 halvings to
    # reach 1e-9 / rate; the bisection must not stop short, and
    # rate * time overflowing to exp(-inf) = 0 must raise no warning
    x = pure_family(0.7)
    channel = IndependentDecay(1e10, 1e10, 0.0)
    rate = max_rate(channel)
    short = death_time(x, channel, 1e-9)
    huge = death_time(x, channel, 1e300)
    assert short.verdict == huge.verdict == VERDICT_FINITE
    assert abs(huge.t_star - short.t_star) < 1e-8 / rate
    assert huge == death_time_scalar(x, channel, 1e300, DEFAULT_TOL)


def test_death_time_one_sided_decay_pure_family():
    # with gamma_b = 0 the singly excited populations obey b(t) = 0, so the
    # entangled block margin tends to zero without ever crossing it
    report = death_time(pure_family(0.8), IndependentDecay(1.0, 0.0, 0.0), 100.0)
    assert report.verdict == VERDICT_ASYMPTOTIC


def death_reports(rows, channel, horizon, tol=DEFAULT_TOL):
    """The batched kernel on X states given one per row, its per-row
    arrays read back as DeathReports."""
    columns = XState(*(np.array([getattr(x, f) for x in rows]) for f in "abcdwz"))
    verdicts, t_star, crossings = _death_reports(columns, channel, horizon, tol)
    return [
        DeathReport(v, None if np.isnan(t) else t, horizon, n, tol.eps_death)
        for v, t, n in zip(verdicts.tolist(), t_star.tolist(), crossings.tolist())
    ]


# every catalog channel kind, with one-sided, asymmetric and thermal decay
CATALOG_SAMPLE = [
    IndependentDecay(1.0, 1.0, 0.0),
    IndependentDecay(1.0, 0.5, 0.0),
    IndependentDecay(1.0, 0.0, 0.0),
    IndependentDecay(1.0, 1.0, 0.2),
    IndependentDephasing(1.0, 0.5),
    CollectiveDephasing(1.0),
]


@pytest.mark.parametrize("channel", CATALOG_SAMPLE, ids=format_channel_literal)
def test_death_verdicts_do_not_depend_on_the_horizon(channel):
    rows = [random_x(seed) for seed in range(100)]
    rate = max_rate(channel)
    short = death_reports(rows, channel, 0.5 / rate)
    long = death_reports(rows, channel, 700.0 / rate)
    for x, s, l in zip(rows, short, long):
        assert s.verdict == l.verdict, x
        if s.verdict == VERDICT_FINITE:
            assert abs(s.t_star - l.t_star) < 1e-8 / rate, x


def test_death_time_never_below_threshold_is_persistent():
    # populations in make_x's tolerance band keep the negativity above
    # eps_death after the coherences are gone, although the limit margin
    # is negative; the doubling search must end and call the row persistent
    x = make_x(0.5 + 5e-10, -5e-10, -5e-10, 0.5 + 5e-10, w=0.3)
    for channel in (IndependentDephasing(1.0, 1.0), CollectiveDephasing(1.0)):
        report = death_time(x, channel, 1.0)
        assert report.verdict == VERDICT_PERSISTENT
        assert report == death_time_scalar(x, channel, 1.0, DEFAULT_TOL)


def test_death_time_thermal_reservoir_kills_all_entanglement():
    # any nbar > 0 drives toward a full-rank thermal product, so even
    # boundary-of-death states at nbar = 0 now die in finite time
    report = death_time(pure_family(0.5), IndependentDecay(1.0, 1.0, 0.5), 50.0)
    assert report.verdict == VERDICT_FINITE
    report = death_time(bell("phi+"), IndependentDecay(1.0, 1.0, 0.2), 50.0)
    assert report.verdict == VERDICT_FINITE


def test_death_time_validation():
    channel = IndependentDecay(1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        death_time(maximally_mixed(), channel, 1.0)
    with pytest.raises(ValidationError):
        death_time(pure_family(0.7), channel, 0.0)
    with pytest.raises(UnsupportedChannelError):
        death_time(pure_family(0.7), as_custom(channel), 1.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            death_time(pure_family(0.7), channel, value)


# a positivity-violating X state that only direct construction can produce
UNPHYSICAL_X = XState(0.1, 0.4, 0.4, 0.1, 0.5, 0.5)


def test_death_time_and_simulate_validate_bare_x_state():
    channel = IndependentDecay(1.0, 1.0, 0.0)
    with pytest.raises(NotPositiveError):
        death_time(UNPHYSICAL_X, channel, 5.0)
    with pytest.raises(NotPositiveError):
        simulate(UNPHYSICAL_X, channel, 5.0)


def test_bare_x_state_rejected_under_python_O():
    code = (
        "from esdkit import IndependentDecay, NotPositiveError, death_time, x_entangled\n"
        "from esdkit.states import XState\n"
        "assert False, 'asserts must be stripped here'\n"
        "x = XState(0.1, 0.4, 0.4, 0.1, 0.5, 0.5)\n"
        "for call in (lambda: x_entangled(x),\n"
        "             lambda: death_time(x, IndependentDecay(1.0, 1.0, 0.0), 5.0)):\n"
        "    try:\n"
        "        call()\n"
        "    except NotPositiveError:\n"
        "        print('rejected')\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                            text=True, env=cli_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["rejected", "rejected"]


def death_batch_states():
    """X states with every death-time outcome, in interleaved order."""
    fixed = [
        werner(0.25), pure_family(0.7), bell("psi+"), pure_family(0.3), pure_family(0.5),
        make_x(0.25, 0.25, 0.25, 0.25), make_x(0.3, 0.2, 0.2, 0.3, w=0.28),
        pure_family(np.nextafter(0.5, 1.0)),
        bell("phi+"), make_x(0.2, 0.3, 0.3, 0.2, z=0.25), pure_family(0.55),
        bell("psi-"), pure_family(0.95),
    ]
    mixed = []
    for i, state in enumerate(fixed):
        mixed += [state, random_x(i)]
    return mixed


# (channel, horizon) pairs whose batches together reach every verdict
DEATH_BATCHES = [
    (IndependentDecay(1.0, 1.0, 0.0), 50.0),
    (IndependentDecay(1.0, 1.0, 0.0), 3.0),
    (IndependentDecay(1.0, 0.5, 0.3), 20.0),
    (IndependentDecay(1.0, 0.0, 0.0), 30.0),
    (IndependentDephasing(1.0, 0.5), 10.0),
    (CollectiveDephasing(1.0), 10.0),
    (CollectiveDephasing(1.0), 50.0),
]


def assert_matches_scalar_scan(rows, channel, horizon):
    reports = death_reports(rows, channel, horizon)
    assert len(reports) == len(rows)
    for x, got in zip(rows, reports):
        want = death_time_scalar(x, channel, horizon, DEFAULT_TOL)
        assert got.verdict == want.verdict, x
        assert got.crossings == want.crossings, x
        assert got.t_star == want.t_star, x
        assert got.horizon == horizon
    return reports


def test_batched_death_reports_match_scalar_scan_bit_for_bit():
    rows = death_batch_states()
    outcomes = set()
    for channel, horizon in DEATH_BATCHES:
        reports = assert_matches_scalar_scan(rows, channel, horizon)
        outcomes |= {(r.verdict, r.crossings > 0) for r in reports}
        assert [death_time(x, channel, horizon) for x in rows] == reports
    assert {
        (VERDICT_NEVER, False), (VERDICT_FINITE, True), (VERDICT_FINITE, False),
        (VERDICT_PERSISTENT, False), (VERDICT_ASYMPTOTIC, True), (VERDICT_ASYMPTOTIC, False),
    } <= outcomes


@pytest.mark.parametrize("channel", CATALOG_SAMPLE, ids=format_channel_literal)
def test_death_reports_match_the_grid_scan(channel):
    # the two-sample rule gives the same verdicts and crossings as a
    # 2,001-sample grid scan that assumes no monotonicity; t* may differ
    # where the negativity flickers around eps_death over a few 1e-9/rate
    rows = [random_x(seed) for seed in range(2000)]
    rate = max_rate(channel)
    reports = death_reports(rows, channel, 50.0 / rate)
    for x, got in zip(rows, reports):
        want = death_time_grid_scalar(x, channel, 50.0 / rate, DEFAULT_TOL)
        assert (got.verdict, got.crossings) == (want.verdict, want.crossings), x
        if got.verdict == VERDICT_FINITE:
            assert abs(got.t_star - want.t_star) < 1e-8 / rate, x


# populations in make_x's tolerance band: a thermal reservoir heals the negative
# ones at the slow qubit's rate, so the negativity reaches eps_death near
# t* = 9e7, where adjacent floats lie further apart than 1e-9 / rate
SLOW_HEALING = make_x(-5e-10, 0.5 + 5e-10, -5e-10, 0.5 + 5e-10)
# alive at every representable time under dephasing (see the test above)
BAND_PERSISTENT = make_x(0.5 + 5e-10, -5e-10, -5e-10, 0.5 + 5e-10, w=0.3)


@pytest.mark.parametrize("channel", [
    IndependentDecay(1.0, 0.5, 0.0),
    IndependentDecay(1.0, 1e-16, 0.1),
    IndependentDephasing(1.0, 0.5),
    CollectiveDephasing(1.0),
], ids=format_channel_literal)
def test_death_reports_match_the_scalar_bisection_across_tree_levels(channel, monkeypatch):
    # one kernel call decides rows that stop on xtol, on adjacent floats and
    # at different levels of the same halving tree, rows bracketed by the
    # doubling ladder and rows alive at every doubling, each with the bits
    # of the one-level halving loop of the oracle
    probes = []
    alive = esdkit.dynamics._alive

    def recording(cols, rows, channel, times, eps_death):
        probes.append((np.shape(times), len(rows)))
        return alive(cols, rows, channel, times, eps_death)

    monkeypatch.setattr(esdkit.dynamics, "_alive", recording)
    rows = [random_x(seed) for seed in range(60)]
    rows += [pure_family(a) for a in (0.55, 0.7, 0.95)] + [SLOW_HEALING, BAND_PERSISTENT]
    rate = max_rate(channel)
    reports = assert_matches_scalar_scan(rows, channel, 0.3 / rate)
    assert any(r.t_star is not None and r.t_star > r.horizon for r in reports)
    # a probe of several tree levels for several rows at once (a ladder's
    # times are one column shared by its rows)
    assert any(shape[0] >= 3 and shape[1] == count >= 2 for shape, count in probes)
    slow, band = reports[-2:]
    if channel == IndependentDecay(1.0, 1e-16, 0.1):
        assert np.spacing(slow.t_star) > 1e-9 / rate
    if isinstance(channel, IndependentDephasing):
        assert band.verdict == VERDICT_PERSISTENT


def deepest_tree(rows):
    """The depth of the deepest halving tree, at most 6 levels, whose inner nodes
    for ``rows`` open brackets fit the probe budget; 1 if none fits."""
    budget = esdkit.dynamics._PROBE_POINTS
    return max([1] + [d for d in range(1, 7) if rows * ((1 << d) - 1) <= budget])


def tree_depth_edges():
    """Row counts on each side of every depth boundary of the probe budget,
    from 1 row to more rows than the budget has times."""
    edges = [esdkit.dynamics._PROBE_POINTS // ((1 << d) - 1) for d in range(1, 7)]
    return sorted({1, *edges, *(edge + 1 for edge in edges)})


@pytest.mark.parametrize("count", tree_depth_edges())
def test_death_reports_match_the_scalar_bisection_at_every_tree_depth(count, monkeypatch):
    alive = esdkit.dynamics._alive

    def recording(cols, rows, channel, times, eps_death):
        probes.append((np.shape(times)[0], len(rows)))
        roots.extend(zip(rows.tolist(), np.broadcast_to(times[0], rows.shape).tolist()))
        return alive(cols, rows, channel, times, eps_death)

    probes, roots = [], []
    monkeypatch.setattr(esdkit.dynamics, "_alive", recording)
    budget = esdkit.dynamics._PROBE_POINTS
    channel = IndependentDecay(1.0, 1.0, 0.0)
    # the first row dies near 1e-7, the others between 0.1 and 4
    rows = [pure_family(1.0 - 1e-14)] + [pure_family(a) for a in np.linspace(0.51, 0.99, count - 1)]
    # every row dies before 50, so each probe is one of the bisection: the first
    # takes every row, and each takes the deepest tree that fits the budget
    assert_matches_scalar_scan(rows, channel, 50.0)
    assert probes[0] == ((1 << deepest_tree(count)) - 1, count)
    assert all(times == (1 << deepest_tree(n)) - 1 for times, n in probes), probes
    # past 1e-6 a doubling ladder brackets all rows but the first, in brackets of
    # several widths, so the first row stops alone and the others in later rounds
    probes.clear()
    roots.clear()
    assert_matches_scalar_scan(rows, channel, 1e-6)
    assert all(times * n <= max(budget, n) for times, n in probes), probes
    # a stopped row is probed no more: every probe moves each row's first time
    assert len(set(roots)) == len(roots)


def test_death_time_decides_several_halvings_per_probe(monkeypatch):
    # halving [0, 10] to 1e-9 takes 34 levels, and a bracket past a short
    # horizon first takes a few doublings; one level per probe would take
    # one probe per level
    calls = []
    alive = esdkit.dynamics._alive
    monkeypatch.setattr(esdkit.dynamics, "_alive",
                        lambda *args: calls.append(1) or alive(*args))
    channel = IndependentDecay(1.0, 1.0, 0.0)
    for horizon in (10.0, 0.01):
        calls.clear()
        report = death_time(pure_family(0.7), channel, horizon)
        assert report == death_time_scalar(pure_family(0.7), channel, horizon, DEFAULT_TOL)
        assert len(calls) <= 10


@pytest.mark.parametrize(
    "channel",
    CATALOG_SAMPLE + [IndependentDecay(1.0, 0.3, 2.0), IndependentDephasing(0.0, 1.0)],
    ids=format_channel_literal,
)
def test_catalog_negativity_never_grows(channel):
    # death_time's two-sample rule rests on this: every catalog channel is
    # a mixture of local maps forming a semigroup, and negativity cannot
    # grow under local maps
    times = np.linspace(0.0, 20.0 / max_rate(channel), 20_001)
    for first in range(0, 500, 50):
        rows = [random_x(seed) for seed in range(first, first + 50)]
        cols = [np.array([getattr(x, f) for x in rows])[:, None] for f in "abcdwz"]
        neg = _pt_blocks(x_closed_curves(XState(*cols), channel, times))[0]
        assert np.diff(neg, axis=1).max() <= 1e-15


# --- crossing_count ---------------------------------------------------------

def synthetic_trajectory(negativity_values):
    n = len(negativity_values)
    times = np.arange(n, dtype=float)
    zeros = np.zeros(n)
    filler = tuple(maximally_mixed() for _ in range(n))
    return Trajectory(
        times, filler, np.asarray(negativity_values, dtype=float),
        zeros, zeros, zeros, zeros,
    )


def test_crossing_count_patterns():
    assert crossing_count(synthetic_trajectory([0.0, 0.0, 0.0])) == 0
    assert crossing_count(synthetic_trajectory([0.5, 0.4, 0.3])) == 0
    assert crossing_count(synthetic_trajectory([0.5, 0.0, 0.0])) == 1
    assert crossing_count(synthetic_trajectory([0.5, 0.0, 0.5, 0.0, 0.5])) == 4
    assert crossing_count(synthetic_trajectory([0.0, 0.5, 0.0])) == 2


def test_crossing_count_threshold_is_strict():
    eps = 1e-10  # default eps_death
    assert crossing_count(synthetic_trajectory([0.5, eps, 0.5])) == 2
    assert crossing_count(synthetic_trajectory([0.5, 2 * eps, 0.5])) == 0


def test_crossing_count_on_simulated_trajectory():
    traj = simulate(pure_family(0.7), IndependentDecay(1.0, 1.0, 0.0), horizon=8.0)
    assert crossing_count(traj) == 1
    alive = simulate(bell("psi+"), CollectiveDephasing(1.0), horizon=8.0)
    assert crossing_count(alive) == 0


# --- estimate_asymptote -----------------------------------------------------

def test_estimate_asymptote_decay_reaches_thermal():
    limit = estimate_asymptote(random_x(7), IndependentDecay(1.0, 1.0, 0.5))
    np.testing.assert_allclose(limit.matrix, thermal_product(0.5).matrix, atol=1e-8)


def test_estimate_asymptote_dephasing_keeps_populations():
    x = random_x(9)
    limit = estimate_asymptote(x, IndependentDephasing(1.0, 1.0))
    np.testing.assert_allclose(
        np.diag(limit.matrix).real, [x.a, x.b, x.c, x.d], atol=1e-12
    )
    assert abs(limit.matrix[0, 3]) < 1e-8 and abs(limit.matrix[1, 2]) < 1e-8


def test_estimate_asymptote_collective_fixed_point():
    psi = bell("psi+")
    limit = estimate_asymptote(psi, CollectiveDephasing(1.0))
    np.testing.assert_allclose(limit.matrix, embed_x(psi).matrix, atol=1e-12)
    phi = bell("phi+")
    limit = estimate_asymptote(phi, CollectiveDephasing(1.0))
    np.testing.assert_allclose(
        np.diag(limit.matrix).real, [0.5, 0.0, 0.0, 0.5], atol=1e-10
    )
    assert abs(limit.matrix[0, 3]) < 1e-8


def test_estimate_asymptote_numeric_path_for_dense_state():
    rho = random_density(2)
    limit = estimate_asymptote(rho, IndependentDephasing(1.0, 1.0))
    np.testing.assert_allclose(
        np.diag(limit.matrix).real, np.diag(rho.matrix).real, atol=1e-8
    )
    off = limit.matrix - np.diag(np.diag(limit.matrix))
    assert float(np.abs(off).max()) < 1e-8
    # collective dephasing keeps the dense state's inner coherence exactly
    limit = estimate_asymptote(rho, CollectiveDephasing(1.0))
    np.testing.assert_array_equal(np.diag(limit.matrix), np.diag(rho.matrix))
    assert limit.matrix[1, 2] == rho.matrix[1, 2] and limit.matrix[2, 1] == rho.matrix[2, 1]
    kept = np.zeros((4, 4), dtype=bool)
    kept[[0, 1, 2, 3, 1, 2], [0, 1, 2, 3, 2, 1]] = True
    assert not limit.matrix[~kept].any()


def test_estimate_asymptote_reads_only_its_set(monkeypatch):
    # the set's own description decides the projection, not the channel's type
    rho, channel = random_density(2), IndependentDecay(1.0, 1.0, 0.5)
    m = rho.matrix
    for w_zero in (False, True):
        for z_zero in (False, True):
            monkeypatch.setattr(esdkit.dynamics, "asymptotic_set",
                                lambda _: XFamily(w_zero, z_zero))
            want = np.diag(np.diag(m))
            if not w_zero:
                want[0, 3], want[3, 0] = m[0, 3], m[3, 0]
            if not z_zero:
                want[1, 2], want[2, 1] = m[1, 2], m[2, 1]
            assert np.array_equal(estimate_asymptote(rho, channel).matrix, want)
    point = SinglePoint(maximally_mixed())
    monkeypatch.setattr(esdkit.dynamics, "asymptotic_set", lambda _: point)
    assert estimate_asymptote(rho, CollectiveDephasing(1.0)) is point.state


# each channel with its slowest relaxation rate
PROJECTION_CHANNELS = [
    (IndependentDecay(1.0, 0.7, 0.0), 0.7),
    (IndependentDecay(0.3, 1.0, 0.5), 0.6),
    (IndependentDephasing(1.0, 0.2), 1.2),
    (CollectiveDephasing(0.8), 1.6),
]


def asymptotic_projection(m, channel):
    """The limit map, built by hand from the channel's asymptotic set."""
    if isinstance(channel, IndependentDecay):
        return thermal_product(channel.nbar).matrix
    out = np.diag(np.diag(m))
    if isinstance(channel, CollectiveDephasing):
        out[1, 2], out[2, 1] = m[1, 2], m[2, 1]
    return out


@pytest.mark.parametrize("channel,slowest", PROJECTION_CHANNELS,
                         ids=["decay", "thermal-decay", "dephase", "collective"])
@pytest.mark.parametrize("seed", range(12))
def test_estimate_asymptote_is_the_projection(channel, slowest, seed):
    x = random_x(seed)
    for state in (random_density(seed), embed_x(x), x):
        limit = estimate_asymptote(state, channel)
        start = embed_x(x).matrix if state is x else state.matrix
        assert np.array_equal(limit.matrix, asymptotic_projection(start, channel))
        assert set_contains(asymptotic_set(channel), limit, 0.0)
    # the map agrees with the dynamics: the closed form at a late time
    late = np.array([60.0 / slowest])
    curves = [col[0] for col in x_closed_curves(x, channel, late)]
    np.testing.assert_allclose(limit.matrix, embed_x(XState(*curves)).matrix, rtol=0, atol=1e-12)


def test_estimate_asymptote_refusals():
    with pytest.raises(UnsupportedChannelError):
        estimate_asymptote(random_x(0), as_custom(CollectiveDephasing(1.0)))
    with pytest.raises(UnsupportedChannelError):
        estimate_asymptote(random_x(0), IndependentDecay(1.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        estimate_asymptote(np.eye(4) / 4.0, CollectiveDephasing(1.0))
    # bare XStates are validated as make_x would
    with pytest.raises(NegativePopulationError):
        estimate_asymptote(XState(1.2, -0.2, 0.0, 0.0, 0.0, 0.0), IndependentDephasing(1.0, 1.0))
    with pytest.raises(NotPositiveError):
        estimate_asymptote(UNPHYSICAL_X, IndependentDephasing(1.0, 1.0))


# --- serialization ----------------------------------------------------------

def test_trajectory_csv_round_trip_x():
    traj = simulate(
        random_x(5), IndependentDecay(1.0, 1.0, 0.2), horizon=1.5, sample_every=500
    )
    text = trajectory_to_csv(traj)
    cols = parse_trajectory_csv(text)
    np.testing.assert_array_equal(cols["t"], traj.times)
    np.testing.assert_array_equal(cols["negativity"], traj.negativity)
    np.testing.assert_array_equal(cols["min_pt_eig"], traj.min_pt_eig)
    np.testing.assert_array_equal(cols["a"], traj.a)
    np.testing.assert_array_equal(cols["abs_z"], traj.abs_z)


def test_trajectory_csv_round_trip_dense():
    traj = simulate(
        random_density(8), CollectiveDephasing(1.0), horizon=0.5, sample_every=250
    )
    text = trajectory_to_csv(traj)
    assert ",,,," in text  # empty population cells
    cols = parse_trajectory_csv(text)
    assert cols["a"] is None and cols["d"] is None
    np.testing.assert_array_equal(cols["negativity"], traj.negativity)


def hand_built_trajectory(is_x):
    """Six samples of cells that stress ``repr``: both zeros, subnormals,
    the exponent forms (>= 1e16 and < 1e-4), infinities, a NaN with its
    sign bit set, and equal magnitudes of opposite sign in other columns."""
    def col(*values):
        return np.array(values)

    pops = dict(
        a=col(0.25, -0.0, 0.0, 1e16, 0.25, 1.0),
        b=col(0.25, 0.25, -0.25, 5e-324, 2.5e-5, 0.0),
        c=col(-0.0, 0.25, 0.25, -5e-324, -2.5e-5, 0.0),
        d=col(0.5, 1e-300, -1e-300, 2.2250738585072014e-308, 0.25, 0.0),
    ) if is_x else {}
    return Trajectory(
        times=col(0.0, 1e-5, 0.1, 1.0, 1e16, 1e300),
        states=[maximally_mixed()] * 6,
        negativity=col(0.0, -0.0, 0.25, 1e-4, 9.99e-5, np.inf),
        min_pt_eig=col(-0.0, 0.0, -0.25, -1e-4, -9.99e-5, -np.inf),
        min_eig=col(0.1, -0.1, 1e16, -1e16, 1.2345678901234567e22, -np.nan),
        abs_w=col(0.25, 0.5, 5e-324, 0.1, 1e-5, np.nan),
        abs_z=col(0.5, 0.25, -5e-324, 1e-5, -0.1, 2.2250738585072014e-308),
        **pops,
    )


CSV_CASES = {
    **{f"closed-{format_channel_literal(channel)}": (random_x(3), channel)
       for channel in CATALOG_SAMPLE + [IndependentDephasing(0.0, 1.0)]},
    "closed-b-equals-c": (make_x(0.3, 0.2, 0.2, 0.3, 0.25, 0.15), IndependentDecay(1.0, 0.5, 0.1)),
    "rk4-dense": (random_density(8), IndependentDecay(1.0, 0.5, 0.2)),
    "custom-channel": (random_x(4), as_custom(IndependentDecay(1.0, 1.0, 0.2))),
}


@pytest.mark.parametrize("name", list(CSV_CASES))
def test_trajectory_csv_bytes_equal_repr_reference(name):
    # string equality: assert_array_equal would merge 0.0 and -0.0
    state, channel = CSV_CASES[name]
    traj = simulate(state, channel, horizon=3.0)
    assert trajectory_to_csv(traj) == trajectory_to_csv_reference(traj)


@pytest.mark.parametrize("is_x", [True, False], ids=["x", "dense"])
def test_trajectory_csv_bytes_equal_repr_reference_on_edge_floats(is_x):
    traj = hand_built_trajectory(is_x)
    text = trajectory_to_csv(traj)
    assert text == trajectory_to_csv_reference(traj)
    assert "-0.0" in text and "5e-324" in text and "-5e-324" in text
    assert ",nan," in text and "-nan" not in text


def test_trajectory_csv_parse_errors():
    good = trajectory_to_csv(
        simulate(random_x(1), CollectiveDephasing(1.0), horizon=0.5, sample_every=500)
    )
    lines = good.splitlines()
    with pytest.raises(ParseError):
        parse_trajectory_csv("time,oops\n1,2\n")
    with pytest.raises(ParseError):
        parse_trajectory_csv(lines[0] + "\n1.0,2.0\n")
    broken = lines[1].split(",")
    broken[5] = ""  # b empty while a, c, d stay filled
    with pytest.raises(ParseError):
        parse_trajectory_csv("\n".join([lines[0], ",".join(broken)]) + "\n")
    with pytest.raises(ParseError):
        parse_trajectory_csv(
            lines[0] + "\n" + lines[1].replace(lines[1].split(",")[1], "oops", 1) + "\n"
        )
    for column, value in ((1, "nan"), (9, "inf"), (4, "-inf")):
        hostile = lines[2].split(",")
        hostile[column] = value
        text = "\n".join([lines[0], lines[1], ",".join(hostile)]) + "\n"
        name = lines[0].split(",")[column]
        with pytest.raises(ParseError, match=f"row 3, column {name}: non-finite"):
            parse_trajectory_csv(text)


def test_death_report_json_round_trip():
    finite = DeathReport(VERDICT_FINITE, 1.25, 10.0, 1, 1e-10)
    assert death_report_from_json(death_report_to_json(finite)) == finite
    open_ended = DeathReport(VERDICT_ASYMPTOTIC, None, 50.0, 0, 1e-10)
    assert death_report_from_json(death_report_to_json(open_ended)) == open_ended
    for verdict in (VERDICT_PERSISTENT, VERDICT_NEVER):
        report = DeathReport(verdict, None, 3.5, 0, 1e-3)
        assert death_report_from_json(death_report_to_json(report)) == report


def test_death_report_json_errors():
    with pytest.raises(ParseError):
        death_report_from_json("{broken")
    with pytest.raises(ParseError):
        death_report_from_json('{"verdict": "finite"}')
    fields = '"verdict": "finite", "t_star": 1.5, "horizon": 10.0, "epsilon_death": 1e-10'
    for crossings in ("2.7", "1.0", "true", '"1"'):
        with pytest.raises(ParseError, match="crossings"):
            death_report_from_json(f'{{{fields}, "crossings": {crossings}}}')
    # a JSON boolean is no number, although Python's float() takes it
    for name, value in (("t_star", "1.5"), ("horizon", "10.0"), ("epsilon_death", "1e-10")):
        document = f'{{{fields}, "crossings": 1}}'.replace(f'"{name}": {value}', f'"{name}": true')
        with pytest.raises(ParseError, match=f"^death report {name} must be a number, got True$"):
            death_report_from_json(document)
    # every malformed document is a ParseError, whichever check refuses it
    for document, reason in (
        ('{"verdict": "finite", "t_star": NaN, "horizon": NaN, "crossings": 0,'
         ' "epsilon_death": -1}', "horizon must be positive"),
        (f'{{{fields}, "crossings": 1}}'.replace("10.0", "[1]"), "float"),
        (f'{{{fields}, "crossings": 1}}'.replace("1.5", '"x"'), "could not convert"),
        (f'{{{fields}, "crossings": 1}}'.replace('"finite"', '"gone"'), "unknown verdict"),
        (f'{{{fields}, "crossings": 1}}'.replace("1.5", "NaN"), "t_star must be finite"),
    ):
        with pytest.raises(ParseError, match=f"^bad death report JSON: .*{reason}"):
            death_report_from_json(document)


def test_death_report_validation():
    with pytest.raises(ValidationError):
        DeathReport("gone", None, 1.0, 0, 1e-10)
    with pytest.raises(ValidationError):
        DeathReport(VERDICT_FINITE, None, 1.0, 0, 1e-10)
    with pytest.raises(ValidationError):
        DeathReport(VERDICT_ASYMPTOTIC, 2.0, 1.0, 0, 1e-10)
    with pytest.raises(ValidationError):
        DeathReport(VERDICT_NEVER, None, -1.0, 0, 1e-10)
    with pytest.raises(ValidationError):
        DeathReport(VERDICT_NEVER, None, 1.0, -2, 1e-10)
    for horizon in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            DeathReport(VERDICT_NEVER, None, horizon, 0, 1e-10)
    for t_star in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValidationError):
            DeathReport(VERDICT_FINITE, t_star, 1.0, 1, 1e-10)
    for eps_death in (0.0, -1.0, 0.02, float("nan")):
        with pytest.raises(ValidationError):
            DeathReport(VERDICT_NEVER, None, 1.0, 0, eps_death)
    assert DeathReport(VERDICT_FINITE, 0.0, 1.0, 1, 1e-2).t_star == 0.0


def test_trajectory_validation():
    zeros = np.zeros(3)
    filler = tuple(maximally_mixed() for _ in range(3))
    good = Trajectory(np.array([0.0, 1.0, 2.0]), filler, zeros, zeros, zeros, zeros, zeros)
    assert not good.is_x
    with pytest.raises(ValidationError):
        Trajectory(np.array([0.0, 1.0]), filler, zeros, zeros, zeros, zeros, zeros)
    with pytest.raises(ValidationError):
        Trajectory(np.array([0.5, 1.0, 2.0]), filler, zeros, zeros, zeros, zeros, zeros)
    with pytest.raises(ValidationError):
        Trajectory(np.array([0.0, 2.0, 1.0]), filler, zeros, zeros, zeros, zeros, zeros)
    with pytest.raises(ValidationError):
        Trajectory(np.array([]), (), np.array([]), np.array([]), np.array([]),
                   np.array([]), np.array([]))
