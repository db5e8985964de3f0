"""Trajectories, death-time verdicts and their serialized forms."""

import subprocess
import sys

import numpy as np
import pytest

from esdkit import (
    CollectiveDephasing,
    CustomChannel,
    DeathReport,
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
from esdkit.dynamics import DEFAULT_SAMPLES, _SCAN_SAMPLES, _death_reports
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
from _oracles import death_time_scalar, decay_jumps, lindblad_matrix, rk4_evolve


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
    short = _death_reports(rows, channel, 0.5 / rate)
    long = _death_reports(rows, channel, 700.0 / rate)
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


def test_death_time_grid_refinement_stability():
    x = pure_family(0.65)
    channel = IndependentDecay(1.0, 1.0, 0.0)
    coarse = death_time(x, channel, 8.0, dt=8.0 / 500)
    fine = death_time(x, channel, 8.0, dt=8.0 / 4000)
    assert coarse.verdict == fine.verdict == VERDICT_FINITE
    assert abs(coarse.t_star - fine.t_star) < 2e-9


def test_death_time_validation():
    channel = IndependentDecay(1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        death_time(maximally_mixed(), channel, 1.0)
    with pytest.raises(ValidationError):
        death_time(pure_family(0.7), channel, 0.0)
    with pytest.raises(ValidationError):
        death_time(pure_family(0.7), channel, 1.0, dt=2.0)
    with pytest.raises(UnsupportedChannelError):
        death_time(pure_family(0.7), as_custom(channel), 1.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            death_time(pure_family(0.7), channel, value)
        with pytest.raises(ValidationError):
            death_time(pure_family(0.7), channel, 1.0, dt=value)


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


def assert_matches_scalar_scan(rows, channel, horizon, dt=None):
    reports = _death_reports(rows, channel, horizon, DEFAULT_TOL, dt)
    assert len(reports) == len(rows)
    for x, got in zip(rows, reports):
        want = death_time_scalar(x, channel, horizon, DEFAULT_TOL, dt)
        assert got.verdict == want.verdict, x
        assert got.crossings == want.crossings, x
        assert got.t_star == want.t_star, x
        assert got.horizon == horizon
    return reports


def test_batched_death_reports_match_scalar_scan_bit_for_bit():
    rows = death_batch_states()
    # several chunks, the last one partial
    per_chunk = _SCAN_SAMPLES // (DEFAULT_SAMPLES + 1)
    assert len(rows) > 3 * per_chunk and len(rows) % per_chunk
    outcomes = set()
    for channel, horizon in DEATH_BATCHES:
        reports = assert_matches_scalar_scan(rows, channel, horizon)
        outcomes |= {(r.verdict, r.crossings > 0) for r in reports}
        assert [death_time(x, channel, horizon) for x in rows] == reports
    assert {
        (VERDICT_NEVER, False), (VERDICT_FINITE, True), (VERDICT_FINITE, False),
        (VERDICT_PERSISTENT, False), (VERDICT_ASYMPTOTIC, True), (VERDICT_ASYMPTOTIC, False),
    } <= outcomes


def test_batched_death_reports_one_row_per_chunk():
    rows = death_batch_states()[:9]
    horizon = 10.0
    dt = horizon / 10_000
    assert _SCAN_SAMPLES // (round(horizon / dt) + 1) == 0  # one row per chunk
    for channel in (IndependentDecay(1.0, 1.0, 0.0), CollectiveDephasing(1.0)):
        assert_matches_scalar_scan(rows, channel, horizon, dt)


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


def test_death_report_json_round_trip():
    finite = DeathReport(VERDICT_FINITE, 1.25, 10.0, 1, 1e-10)
    assert death_report_from_json(death_report_to_json(finite)) == finite
    open_ended = DeathReport(VERDICT_ASYMPTOTIC, None, 50.0, 0, 1e-10)
    assert death_report_from_json(death_report_to_json(open_ended)) == open_ended


def test_death_report_json_errors():
    with pytest.raises(ParseError):
        death_report_from_json("{broken")
    with pytest.raises(ParseError):
        death_report_from_json('{"verdict": "finite"}')


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
