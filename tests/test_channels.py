"""Channel catalog: generators, closed forms, asymptotics and literals."""

import json
import re
import sys
import threading

import numpy as np
import pytest

from esdkit import (
    DEFAULT_TOL,
    CollectiveDephasing,
    CustomChannel,
    ExplicitSamples,
    IndependentDecay,
    IndependentDephasing,
    SinglePoint,
    XFamily,
    asymptotic_set,
    bell,
    embed_x,
    format_channel_literal,
    generator,
    is_catalog,
    jump_operators,
    liouvillian,
    make_density,
    make_x,
    max_rate,
    maximally_mixed,
    parse_channel_literal,
    parse_state_literal,
    project_x,
    propagate_numeric,
    propagate_x_closed,
    random_density,
    random_x,
    set_contains,
    simulate,
    thermal_product,
    x_closed_curves,
)
from esdkit import channels
from esdkit.channels import _jump_terms, _revalidate, _step_plan
from esdkit.errors import (
    OutOfRangeError,
    ParseError,
    StepTooLargeError,
    TraceNotOneError,
    UnsupportedChannelError,
    ValidationError,
)
from esdkit.states import XState

from _oracles import (
    collective_jumps,
    decay_jumps,
    dephase_jumps,
    limit_margin,
    lindblad_matrix,
    rk4_evolve,
)


# --- construction and validation -------------------------------------------

def test_negative_rates_rejected():
    with pytest.raises(OutOfRangeError):
        IndependentDecay(-0.1, 1.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(OutOfRangeError):
            IndependentDecay(value, 1.0)
        with pytest.raises(OutOfRangeError):
            IndependentDecay(1.0, 1.0, nbar=value)
        with pytest.raises(OutOfRangeError):
            CustomChannel(((np.eye(4), value),))
        with pytest.raises(OutOfRangeError):
            CustomChannel(((np.full((4, 4), value), 1.0),))
    with pytest.raises(OutOfRangeError):
        IndependentDecay(1.0, 1.0, nbar=-0.5)
    with pytest.raises(OutOfRangeError):
        IndependentDephasing(0.3, -0.3)
    with pytest.raises(OutOfRangeError):
        CollectiveDephasing(-1.0)


def test_all_zero_rates_rejected():
    with pytest.raises(OutOfRangeError):
        IndependentDecay(0.0, 0.0)
    with pytest.raises(OutOfRangeError):
        IndependentDephasing(0.0, 0.0)
    with pytest.raises(OutOfRangeError):
        CollectiveDephasing(0.0)


def test_one_sided_rates_allowed():
    assert IndependentDecay(1.0, 0.0).gamma_b == 0.0
    assert IndependentDephasing(0.0, 2.0).kappa_a == 0.0


def test_custom_channel_validation():
    ok = CustomChannel(((np.eye(4), 1.0),))
    assert len(ok.jumps) == 1
    with pytest.raises(ValidationError):
        CustomChannel(())
    with pytest.raises(ValidationError):
        CustomChannel(((np.eye(3), 1.0),))
    with pytest.raises(OutOfRangeError):
        CustomChannel(((np.eye(4), -1.0),))
    with pytest.raises(OutOfRangeError):
        CustomChannel(((np.eye(4), 0.0),))


def test_is_catalog():
    assert is_catalog(IndependentDecay(1.0, 1.0))
    assert is_catalog(IndependentDephasing(1.0, 1.0))
    assert is_catalog(CollectiveDephasing(1.0))
    assert not is_catalog(CustomChannel(((np.eye(4), 1.0),)))


def test_max_rate_and_zero_rate_jumps_dropped():
    assert max_rate(IndependentDecay(0.5, 2.0, nbar=1.0)) == 4.0
    assert max_rate(IndependentDephasing(0.3, 0.7)) == 0.35
    assert max_rate(CollectiveDephasing(1.5)) == 1.5
    # nbar = 0 kills both raising jumps; a zero gamma kills that qubit's pair
    assert len(jump_operators(IndependentDecay(1.0, 1.0, nbar=0.0))) == 2
    assert len(jump_operators(IndependentDecay(1.0, 0.0, nbar=0.5))) == 2
    assert len(jump_operators(IndependentDecay(1.0, 1.0, nbar=0.5))) == 4


# --- generator and liouvillian ---------------------------------------------

def test_generator_matches_oracle_superoperator():
    lmat_by_case = [lindblad_matrix(jumps) for _, jumps in KRON_CASES]
    for seed in range(20):
        rho = random_density(seed)
        for (channel, _), lmat in zip(KRON_CASES, lmat_by_case):
            direct = generator(channel, rho)
            via_oracle = (lmat @ rho.matrix.reshape(16)).reshape(4, 4)
            np.testing.assert_allclose(direct, via_oracle, atol=1e-14)


def _random_custom_jumps(seed):
    rng = np.random.default_rng(seed)
    ops = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)]
    return list(zip(ops, (0.3, 0.0, 1.7)))


KRON_CASES = [
    (IndependentDecay(0.7, 1.3, nbar=0.4), decay_jumps(0.7, 1.3, 0.4)),
    (IndependentDecay(0.7, 1.3, nbar=0.0), decay_jumps(0.7, 1.3, 0.0)),
    (IndependentDecay(0.0, 1.3, nbar=0.4), decay_jumps(0.0, 1.3, 0.4)),
    (IndependentDecay(0.7, 0.0, nbar=0.0), decay_jumps(0.7, 0.0, 0.0)),
    (IndependentDephasing(0.5, 1.1), dephase_jumps(0.5, 1.1)),
    (IndependentDephasing(0.0, 1.1), dephase_jumps(0.0, 1.1)),
    (CollectiveDephasing(0.9), collective_jumps(0.9)),
    (CustomChannel(tuple(_random_custom_jumps(5))), _random_custom_jumps(5)),
    (IndependentDephasing(2.5e-3, 0.0), dephase_jumps(2.5e-3, 0.0)),
]


@pytest.mark.parametrize("channel, jumps", KRON_CASES)
def test_liouvillian_and_jumps_equal_kron_builders(channel, jumps):
    # same products in the same order, so equality is exact, not approximate
    expected = [(op, rate) for op, rate in jumps if rate > 0.0]
    got = jump_operators(channel)
    assert len(got) == len(expected)
    for (op, rate), (ref_op, ref_rate) in zip(got, expected):
        assert rate == ref_rate
        assert np.array_equal(op, ref_op)
    assert np.array_equal(liouvillian(channel), lindblad_matrix(jumps))


def test_jump_operators_are_shared_read_only():
    for channel, _ in KRON_CASES:
        for op, _ in jump_operators(channel):
            assert not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 1.0
    # catalog channels hand out the same constants, not fresh copies
    assert jump_operators(IndependentDecay(1.0, 2.0))[0][0] is jump_operators(
        IndependentDecay(3.0, 0.5, nbar=1.0))[0][0]
    assert jump_operators(CollectiveDephasing(1.0))[0][0] is jump_operators(
        CollectiveDephasing(2.0))[0][0]


def test_dissipators_are_built_once_and_read_only():
    for channel, _ in KRON_CASES:
        for op, dissipator, _ in _jump_terms(channel):
            assert not dissipator.flags.writeable
            with pytest.raises(ValueError):
                dissipator[0, 0] = 1.0
        assert liouvillian(channel).flags.writeable  # each call sums into a fresh matrix
    # catalog channels share the dissipators built at import
    assert _jump_terms(IndependentDecay(1.0, 2.0))[1][1] is _jump_terms(
        IndependentDecay(3.0, 0.5, nbar=1.0))[1][1]
    assert _jump_terms(CollectiveDephasing(1.0))[0][1] is _jump_terms(
        CollectiveDephasing(2.0))[0][1]
    # a custom channel builds its own once, with the bits of the catalog's
    for channel, _ in KRON_CASES:
        custom = CustomChannel(tuple(jump_operators(channel)))
        assert _jump_terms(custom)[0][1] is _jump_terms(custom)[0][1]
        assert np.array_equal(liouvillian(custom), liouvillian(channel))


def test_liouvillian_consistent_with_generator():
    for channel in (
        IndependentDecay(1.0, 0.5, nbar=0.2),
        IndependentDephasing(1.0, 1.0),
        CollectiveDephasing(2.0),
        CustomChannel(((np.diag([1.0, 0, 0, -1.0]).astype(complex), 0.8),)),
    ):
        lv = liouvillian(channel)
        for seed in range(5):
            m = random_density(seed).matrix
            np.testing.assert_allclose(
                (lv @ m.reshape(16)).reshape(4, 4), generator(channel, m), atol=1e-14
            )


def test_generator_preserves_trace_and_hermiticity():
    for channel in (
        IndependentDecay(1.0, 1.0, nbar=0.5),
        IndependentDephasing(0.4, 0.6),
        CollectiveDephasing(1.0),
    ):
        for seed in range(10):
            deriv = generator(channel, random_density(seed))
            assert abs(np.trace(deriv)) < 1e-14
            np.testing.assert_allclose(deriv, deriv.conj().T, atol=1e-15)


def test_generator_stationary_states():
    ground = make_density(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
    np.testing.assert_allclose(
        generator(IndependentDecay(1.0, 2.0, nbar=0.0), ground), 0.0, atol=1e-15
    )
    diag = make_density(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
    np.testing.assert_allclose(
        generator(IndependentDephasing(1.0, 1.0), diag), 0.0, atol=1e-15
    )
    # psi+ lives in the decoherence-free subspace of the collective channel
    psi = embed_x(bell("psi+"))
    np.testing.assert_allclose(
        generator(CollectiveDephasing(3.0), psi), 0.0, atol=1e-15
    )
    thermal = thermal_product(0.5)
    np.testing.assert_allclose(
        generator(IndependentDecay(1.0, 1.0, nbar=0.5), thermal), 0.0, atol=1e-15
    )


# --- numeric propagation ----------------------------------------------------

def test_propagate_numeric_time_validation():
    rho = maximally_mixed()
    channel = IndependentDecay(1.0, 1.0)
    with pytest.raises(ValidationError):
        propagate_numeric(rho, channel, -1.0)
    with pytest.raises(ValidationError):
        propagate_numeric(rho, channel, 1.0, dt=0.0)
    with pytest.raises(ValidationError):
        propagate_numeric(rho, channel, 1.0, dt=2.0)
    assert propagate_numeric(rho, channel, 0.0) is rho


@pytest.mark.parametrize("t", [5.0, 1e9, 1e10])
def test_step_plan_ends_at_t(t):
    # the roundoff fudge in ceil(t / dt) used to drop floor(1e-12 t / dt)
    # whole steps, one at t / dt = 1e12 and ten at 1e13
    n_steps, last = _step_plan(t, 1e-3)
    assert n_steps == round(t / 1e-3)
    assert 0.0 < last <= 1e-3
    assert (n_steps - 1) * 1e-3 + last == t


def test_step_plan_last_step_stays_in_range_past_2_to_the_53_steps():
    # t - (n - 1) dt is coarser than dt there; it rounded to 0 and to -8.9e-16
    assert _step_plan(5.0, 1e-17) == (499999999999999924, 1e-17)
    dt = 1e-100 / 1.3
    n_steps, last = _step_plan(5.0, dt)
    assert last == dt and abs((n_steps - 1) * dt + last - 5.0) <= 1e-15


def test_propagate_numeric_matches_oracle_rk4():
    channel = IndependentDecay(0.8, 1.2, nbar=0.3)
    lmat = lindblad_matrix(decay_jumps(0.8, 1.2, 0.3))
    rho = random_density(7)
    out = propagate_numeric(rho, channel, 0.9, dt=1e-3)
    ref = rk4_evolve(lmat, rho.matrix, 0.9, 1e-3)
    ref = ref / np.trace(ref).real
    np.testing.assert_allclose(out.matrix, ref, atol=1e-12)


def test_propagate_numeric_exponential_population():
    # from |ee> under zero-temperature decay at gamma = 1 on each qubit,
    # the excited-excited population is exp(-2 t)
    rho = make_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    out = propagate_numeric(rho, IndependentDecay(1.0, 1.0), 1.0)
    assert abs(out.matrix[0, 0].real - np.exp(-2.0)) < 1e-8


def test_propagate_numeric_default_step_scales_with_rate():
    # same physical trajectory expressed in two different time units
    rho = random_density(3)
    slow = propagate_numeric(rho, IndependentDecay(1.0, 1.0), 2.0)
    fast = propagate_numeric(rho, IndependentDecay(10.0, 10.0), 0.2)
    np.testing.assert_allclose(slow.matrix, fast.matrix, atol=1e-10)


def test_propagate_numeric_coarse_step_fails_validation():
    rho = make_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    with pytest.raises(StepTooLargeError):
        propagate_numeric(rho, IndependentDecay(1.0, 1.0), 40.0, dt=4.0)


def test_propagate_numeric_overflow_fails_validation():
    # at these horizons the dt=4 map overflows to inf/NaN, and a NaN trace
    # passes a plain "drift > eps_trace" test because NaN compares False
    rho = make_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    for t in (1000.0, 4000.0):
        with pytest.raises(StepTooLargeError):
            propagate_numeric(rho, IndependentDecay(1.0, 1.0), t, dt=4.0)
    # a jump operator too large for its dissipator is refused when the channel
    # is built, naming the jump, with no numpy warning (pytest raises one):
    # no step could integrate it
    huge = (np.full((4, 4), 1e200, dtype=complex), 1.0)
    with pytest.raises(OutOfRangeError, match="^jump operator 2 makes the generator overflow$"):
        CustomChannel(((np.eye(4), 1.0), huge))
    # so is a list whose dissipators are finite but whose rate-weighted sum is not
    with pytest.raises(OutOfRangeError, match="^jump operator 2 makes the generator overflow$"):
        CustomChannel(((np.diag([1.5, 0, 0, 0]), 1e308),) * 2)
    # a zero-rate jump is dropped from the generator, so it cannot overflow it
    assert len(jump_operators(CustomChannel(((np.eye(4), 1.0), (huge[0], 0.0))))) == 1


def test_catalog_generator_overflow_is_refused_on_the_numeric_path_only():
    # each derived rate is finite, but gamma_a (nbar + 1) + gamma_b (nbar + 1)
    # on the generator's diagonal is not
    channel = IndependentDecay(1e308, 1e308, 0.0)
    message = ("^the generator of decay:1e\\+308,1e\\+308,0.0 overflows; "
               "only its closed forms apply$")
    dense = parse_state_literal(SMALL_STEP_STATE)  # not of X form: simulate steps it
    for call in (lambda: liouvillian(channel), lambda: generator(channel, dense),
                 lambda: propagate_numeric(dense, channel, 1e-300),
                 lambda: simulate(dense, channel, 1e-300)):
        with pytest.raises(UnsupportedChannelError, match=message):
            call()
    # the closed forms still apply at these rates
    x0 = make_x(0.4, 0.1, 0.1, 0.4, 0.3, 0.0)
    assert propagate_x_closed(x0, channel, 1e-309).a < 0.4
    assert simulate(x0, channel, 1e-300).negativity[-1] == 0.0


# a dense state off the X pattern; its X part still has closed-form curves
SMALL_STEP_STATE = ("dense:0.4:0,0.05:0,0:0,0.2:0,0.05:0,0.1:0,0.05:0,0:0,"
                    "0:0,0.05:0,0.1:0,0:0,0.2:0,0:0,0:0,0.4:0")
X_ENTRIES = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2))


def x_part(m):
    return make_x(*(m[i, i].real for i in range(4)), complex(m[0, 3]), complex(m[1, 2]))


def x_part_error(m, x, channel, t):
    ref = np.array([col[0] for col in x_closed_curves(x, channel, np.array([t]))])
    return float(np.abs(np.array([m[i, j] for i, j in X_ENTRIES]) - ref).max())


@pytest.mark.parametrize("literal", ["decay:1,0.7,0.3", "decay:1,1,0", "dephase:1,1",
                                     "collective:1"])
@pytest.mark.parametrize("dt", [1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-17, 1e-30, 1e-100, 1e-300])
def test_small_steps_stay_accurate(literal, dt):
    # each channel's leading rate is 1, so dt is dt * rate; from 1e-17 down
    # I + dt L rounds to I, so only powers kept as deltas from I get here
    rho = parse_state_literal(SMALL_STEP_STATE)
    channel = parse_channel_literal(literal)
    x = x_part(rho.matrix)
    for out in (propagate_numeric(rho, channel, 5.0, dt).matrix,
                simulate(rho, channel, 5.0, dt).states[-1].matrix):
        assert x_part_error(out, x, channel, 5.0) <= 1e-14
        assert abs(np.trace(out) - 1.0) <= 1e-14


def test_overflowing_step_count_is_a_validation_error():
    channel = IndependentDecay(1.0, 1.0)
    rho = parse_state_literal(SMALL_STEP_STATE)
    with pytest.raises(ValidationError, match=r"t / dt overflows$"):
        propagate_numeric(rho, channel, float("inf"))
    # the X path plans its steps too, before it branches
    for state in (rho, random_x(4)):
        with pytest.raises(ValidationError, match=r"^step dt=5e-324 is too small for t=5.0"):
            simulate(state, channel, 5.0, dt=5e-324)
    # a finite t / dt near the float maximum still runs, on ~1,000 squarings
    x = x_part(rho.matrix)
    for out in (propagate_numeric(rho, channel, 1.0, dt=5.6e-309).matrix,
                simulate(rho, channel, 1.0, dt=5.6e-309).states[-1].matrix):
        assert x_part_error(out, x, channel, 1.0) <= 1e-14


# members for crafted revalidation stacks: the trace is 1.25, a negative
# eigenvalue -0.25 at unit trace, an asymmetry of 1e-6 at unit trace
BIG_TRACE = np.diag([0.5, 0.25, 0.25, 0.25]).astype(complex)
NEGATIVE = np.diag([1.25, -0.25, 0.0, 0.0]).astype(complex)
ASYMMETRIC = np.eye(4, dtype=complex) / 4.0 + 1e-6 * np.eye(4, k=1)


@pytest.mark.parametrize("members,message", [
    ({2: np.full((4, 4), np.nan)}, "integration overflowed to non-finite entries"),
    ({2: ASYMMETRIC}, "integration left a non-Hermitian matrix (asymmetry 1.000e-06)"),
    ({2: BIG_TRACE}, "trace drifted to 1.25 during integration"),
    ({2: NEGATIVE}, "minimum eigenvalue -2.500e-01 after integration"),
    # the earliest failing member is reported, whatever the kind of a later one
    ({1: BIG_TRACE, 3: [[np.inf] * 4] * 4}, "trace drifted to 1.25 during integration"),
    ({1: NEGATIVE, 3: ASYMMETRIC}, "minimum eigenvalue -2.500e-01 after integration"),
], ids=["non-finite", "asymmetry", "trace", "eigenvalue", "trace-then-inf", "eigenvalue-then-asym"])
def test_revalidate_reports_first_failing_member(members, message):
    stack = np.stack([random_density(seed).matrix for seed in range(4)])
    for k, member in members.items():
        stack[k] = member
    with pytest.raises(StepTooLargeError, match=f"^{re.escape(message)}; reduce dt$"):
        _revalidate(stack, DEFAULT_TOL)


def test_revalidate_divides_by_trace():
    stack = np.stack([random_density(seed).matrix for seed in range(4)]) * (1.0 + 5e-10)
    normalized, lowest = _revalidate(stack, DEFAULT_TOL)
    expected = stack / stack.trace(axis1=1, axis2=2).real[:, None, None]
    np.testing.assert_array_equal(normalized, expected)
    np.testing.assert_array_equal(lowest, np.linalg.eigvalsh(expected)[:, 0])


def test_propagate_numeric_semigroup():
    channel = CollectiveDephasing(1.0)
    rho = random_density(11)
    one_hop = propagate_numeric(rho, channel, 1.0, dt=1e-3)
    two_hop = propagate_numeric(
        propagate_numeric(rho, channel, 0.4, dt=1e-3), channel, 0.6, dt=1e-3
    )
    np.testing.assert_allclose(one_hop.matrix, two_hop.matrix, atol=1e-8)


def test_propagate_numeric_ends_at_t_like_simulate():
    # same step rule as simulate: ceil(t/dt) steps, the last one shortened;
    # t = 1 + 1e-11 leaves a sliver of a step that must not be dropped
    rho = random_density(7)
    channel = IndependentDecay(0.8, 1.2, 0.3)
    for t in (1.0, 1.00000000001, 0.95):
        last = simulate(rho, channel, t, dt=0.1).states[-1].matrix
        got = propagate_numeric(rho, channel, t, dt=0.1).matrix
        assert np.abs(got - last).max() <= 1e-13, t


def test_propagate_numeric_preserves_x_pattern():
    rho = embed_x(random_x(5))
    for channel in (
        IndependentDecay(1.0, 0.7, nbar=0.6),
        IndependentDephasing(0.9, 0.4),
        CollectiveDephasing(1.3),
    ):
        out = propagate_numeric(rho, channel, 1.5).matrix
        off = out.copy()
        for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)):
            off[i, j] = 0.0
        assert float(np.abs(off).max()) < 1e-10


# --- the step-power memo ------------------------------------------------------

def clear_memo():
    """Empty the memo of step powers, so that the next call builds its own."""
    with channels._POWERS_LOCK:
        channels._POWERS.clear()


def held():
    """Matrices the memo holds, each key's generator bits counted as one."""
    return sum(len(entry) + 1 for entry in channels._POWERS.values())


MEMO_CUSTOM = CustomChannel(((np.kron([[0.0, 0.0], [1.0, 0.0]], np.eye(2)), 0.7),
                             (np.kron(np.eye(2), np.diag([1.0, -1.0])), 0.4)))
MEMO_CHANNELS = [IndependentDecay(1.0, 0.7, 0.3), IndependentDecay(1.0, 1.0),
                 IndependentDephasing(1.0, 0.5), CollectiveDephasing(0.8), MEMO_CUSTOM]
# (t, dt): a last step equal to dt and a shorter one, then t / dt past 2**53,
# where the last step is dt again (see the step plan tests above)
MEMO_STEPS = [(1.0, 0.125), (1.0, 0.3), (0.7305, 1e-3), (5.0, 1e-17), (5.0, 1e-100 / 1.3)]


def memo_outputs(rho, channel, t, dt):
    """The bytes of propagate_numeric's result and of a dense trajectory's stack."""
    traj = simulate(rho, channel, t, dt)
    return [propagate_numeric(rho, channel, t, dt).matrix.tobytes(), traj.times.tobytes(),
            np.stack([m.matrix for m in traj.states]).tobytes(), traj.negativity.tobytes(),
            traj.min_eig.tobytes()]


def test_memo_plans_cover_both_last_steps():
    assert [_step_plan(t, dt)[1] == dt for t, dt in MEMO_STEPS] == [True, False, False, True, True]
    assert [_step_plan(t, dt)[0] >= 2 ** 53 for t, dt in MEMO_STEPS] == [False] * 3 + [True] * 2


@pytest.mark.parametrize("channel", MEMO_CHANNELS, ids=lambda c: type(c).__name__)
def test_memo_gives_cold_bits_when_warm(channel):
    rho = random_density(13)
    cold = []
    for t, dt in MEMO_STEPS:
        clear_memo()
        cold.append(memo_outputs(rho, channel, t, dt))
    # warm: every key cached, then prefixes grown from shorter runs of the same step
    assert [memo_outputs(rho, channel, t, dt) for t, dt in MEMO_STEPS] == cold
    clear_memo()
    for t, dt in MEMO_STEPS:
        memo_outputs(rho, channel, dt, dt)
        assert memo_outputs(rho, channel, t, dt) == cold[MEMO_STEPS.index((t, dt))]


def test_memo_keeps_refusing_steps_too_large_for_rk4():
    clear_memo()
    rho = random_density(4)
    for _ in range(2):  # cold, then with every power of the refused step cached
        with pytest.raises(StepTooLargeError):
            propagate_numeric(rho, IndependentDecay(1.0, 1.0), 40.0, dt=4.0)
        with pytest.raises(StepTooLargeError):
            simulate(rho, IndependentDecay(1.0, 1.0), 40.0, dt=4.0)
    assert channels._POWERS


def test_memo_stays_within_its_bound():
    clear_memo()
    rho = random_density(2)
    for k in range(200):  # each rate a new generator, with a shortened last step
        propagate_numeric(rho, IndependentDecay(1.0 + k / 64, 0.5), 0.7305, dt=1e-3)
        assert 0 < held() <= channels._POWERS_HELD
    # a run of about 1,000 squares, more than the bound holds, is not kept, so
    # it evicts none of the warm entries (kept, it would evict all, itself too)
    warm = list(channels._POWERS)
    propagate_numeric(rho, IndependentDecay(1.0, 1.0), 1.0, dt=5.6e-309)
    assert list(channels._POWERS) == warm
    clear_memo()
    propagate_numeric(rho, IndependentDecay(1.0, 0.5), 0.7305, dt=1e-3)
    warm = list(channels._POWERS)
    propagate_numeric(rho, CollectiveDephasing(1.0), 1e100, dt=1e-10)
    assert list(channels._POWERS)[:len(warm)] == warm and held() <= channels._POWERS_HELD


def test_memo_matrices_are_read_only():
    clear_memo()
    for channel in MEMO_CHANNELS:
        propagate_numeric(random_density(3), channel, 0.7305, dt=1e-3)
    matrices = [m for entry in channels._POWERS.values() for m in entry]
    assert len(matrices) >= 2 * len(MEMO_CHANNELS)
    assert not any(m.flags.writeable for m in matrices)
    with pytest.raises(ValueError):
        matrices[0][0, 0] = 0.0


def test_memo_under_threads_gives_serial_bits():
    # more threads than cores, switching often, each on its own channel, and
    # each also filling the memo with new generators so that entries are
    # evicted while the others read: every result keeps its serial bits
    rho, channels_used = random_density(17), MEMO_CHANNELS[:4]

    def results(k):
        out = []
        for i, t in enumerate((0.1, 0.37, 1.0, 2.5) * 3):
            out.append(propagate_numeric(rho, channels_used[k], t, dt=1e-3).matrix.tobytes())
            propagate_numeric(rho, IndependentDecay(1.0 + k + i / 64, 0.5), t, dt=1e-3)
        return out

    clear_memo()
    serial = [results(k) for k in range(len(channels_used))]
    clear_memo()
    start, out = threading.Barrier(len(channels_used)), {}

    def worker(k):
        start.wait(timeout=60)
        out[k] = results(k)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(channels_used))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [out.get(k) for k in range(len(channels_used))] == serial
    assert held() <= channels._POWERS_HELD


# --- closed-form X dynamics -------------------------------------------------

def test_closed_curves_at_time_zero():
    x = random_x(2)
    a, b, c, d, w, z = x_closed_curves(x, IndependentDecay(1.0, 1.0, 0.5), [0.0])
    assert (a[0], b[0], c[0], d[0]) == (x.a, x.b, x.c, x.d)
    assert (w[0], z[0]) == (x.w, x.z)


def test_closed_curves_shape_and_negative_time():
    x = random_x(2)
    channel = IndependentDephasing(1.0, 1.0)
    curves = x_closed_curves(x, channel, np.linspace(0.0, 2.0, 7))
    assert all(curve.shape == (7,) for curve in curves)
    for times in ([-0.1, 0.5], [0.5, float("nan")]):
        with pytest.raises(ValidationError, match="^times must be nonnegative$"):
            x_closed_curves(x, channel, times)


def test_propagate_x_closed_refuses_nan_time_and_invalid_state():
    quarter = make_x(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValidationError, match="^times must be nonnegative$"):
        propagate_x_closed(quarter, IndependentDecay(1.0, 1.0, 0.0), float("nan"))
    # a bare XState of trace 2 is validated as make_x would
    with pytest.raises(TraceNotOneError, match="populations sum deviates from 1"):
        propagate_x_closed(XState(0.9, 0.1, 0.1, 0.9, 0j, 0j), IndependentDecay(1.0, 1.0), 1.0)


def test_closed_curves_refuse_custom_channel():
    with pytest.raises(UnsupportedChannelError):
        x_closed_curves(random_x(0), CustomChannel(((np.eye(4), 1.0),)), [1.0])


def test_closed_decay_pure_family_structure():
    # |psi> = sqrt(a)|ee> + sqrt(1-a)|gg> under zero-temperature decay:
    # with p = exp(-gamma t), a -> a p^2, w -> w p, and the singly excited
    # populations are each a p (1 - p)
    a0 = 0.7
    x = make_x(a0, 0.0, 0.0, 1.0 - a0, w=np.sqrt(a0 * (1.0 - a0)))
    tau = np.array([0.0, 0.3, 1.0, 2.5])
    p = np.exp(-tau)
    a, b, c, d, w, z = x_closed_curves(x, IndependentDecay(1.0, 1.0, 0.0), tau)
    np.testing.assert_allclose(a, a0 * p**2, atol=1e-15)
    np.testing.assert_allclose(b, a0 * p * (1.0 - p), atol=1e-15)
    np.testing.assert_allclose(c, a0 * p * (1.0 - p), atol=1e-15)
    np.testing.assert_allclose(w, x.w * p, atol=1e-15)
    np.testing.assert_allclose(z, 0.0, atol=1e-15)


def test_closed_dephasing_freezes_populations():
    x = random_x(9)
    tau = np.array([0.5, 1.5])
    a, b, c, d, w, z = x_closed_curves(x, IndependentDephasing(0.8, 0.6), tau)
    np.testing.assert_array_equal(a, [x.a, x.a])
    np.testing.assert_array_equal(d, [x.d, x.d])
    # both coherences shrink by exp(-(kappa_a + kappa_b) t)
    np.testing.assert_allclose(w, x.w * np.exp(-1.4 * tau), rtol=1e-14)
    np.testing.assert_allclose(z, x.z * np.exp(-1.4 * tau), rtol=1e-14)


def test_closed_collective_keeps_inner_coherence():
    x = make_x(0.2, 0.3, 0.3, 0.2, w=0.1 + 0.05j, z=0.2 - 0.1j)
    tau = np.array([0.0, 0.7, 3.0])
    a, b, c, d, w, z = x_closed_curves(x, CollectiveDephasing(1.1), tau)
    np.testing.assert_allclose(w, x.w * np.exp(-2.2 * tau), rtol=1e-14)
    np.testing.assert_array_equal(z, np.full(3, x.z))
    np.testing.assert_array_equal(b, np.full(3, x.b))


def test_closed_thermal_fixed_point():
    nbar = 0.5
    x = project_x(thermal_product(nbar))
    a, b, c, d, w, z = x_closed_curves(
        x, IndependentDecay(1.0, 2.0, nbar), np.array([0.0, 1.0, 10.0])
    )
    np.testing.assert_allclose(a, x.a, atol=1e-15)
    np.testing.assert_allclose(b, x.b, atol=1e-15)
    np.testing.assert_allclose(c, x.c, atol=1e-15)
    np.testing.assert_allclose(d, x.d, atol=1e-15)


def test_closed_one_sided_decay_freezes_other_qubit():
    x = random_x(12)
    # gamma_b = 0: qubit B's reduced populations never change
    a, b, c, d, w, z = x_closed_curves(
        x, IndependentDecay(1.0, 0.0, nbar=0.3), np.array([0.0, 0.5, 4.0])
    )
    np.testing.assert_allclose(a + c, x.a + x.c, atol=1e-15)
    np.testing.assert_allclose(b + d, x.b + x.d, atol=1e-15)


def test_closed_matches_numeric_across_catalog():
    channels_and_jumps = [
        (IndependentDecay(1.0, 1.0, nbar=0.0), decay_jumps(1.0, 1.0, 0.0)),
        (IndependentDecay(0.6, 1.4, nbar=0.5), decay_jumps(0.6, 1.4, 0.5)),
        (IndependentDephasing(1.0, 0.5), dephase_jumps(1.0, 0.5)),
        (CollectiveDephasing(1.0), collective_jumps(1.0)),
    ]
    times = [0.25, 1.0, 3.0]
    for channel, jumps in channels_and_jumps:
        lmat = lindblad_matrix(jumps)
        for seed in range(10):
            x = random_x(seed)
            rho0 = embed_x(x).matrix
            for t in times:
                closed = embed_x(propagate_x_closed(x, channel, t)).matrix
                ref = rk4_evolve(lmat, rho0, t, 1e-3)
                np.testing.assert_allclose(closed, ref, atol=1e-6)


def test_closed_semigroup_property():
    x = random_x(4)
    for channel in (
        IndependentDecay(1.0, 0.8, nbar=0.7),
        IndependentDephasing(0.5, 0.5),
        CollectiveDephasing(0.9),
    ):
        direct = propagate_x_closed(x, channel, 1.7)
        chained = propagate_x_closed(
            propagate_x_closed(x, channel, 0.6), channel, 1.1
        )
        assert abs(direct.a - chained.a) < 1e-12
        assert abs(direct.d - chained.d) < 1e-12
        assert abs(direct.w - chained.w) < 1e-12
        assert abs(direct.z - chained.z) < 1e-12


MARGIN_CHANNELS = [
    IndependentDecay(1.0, 0.7), IndependentDecay(0.0, 1.3), IndependentDecay(0.8, 0.0),
    IndependentDecay(1.0, 0.7, 0.3), IndependentDecay(0.0, 1.0, 0.5),
    IndependentDecay(1.0, 0.0, 2.0), IndependentDephasing(1.0, 0.5),
    IndependentDephasing(0.0, 1.0), CollectiveDephasing(0.8),
]


@pytest.mark.parametrize("channel", MARGIN_CHANNELS, ids=format_channel_literal)
def test_limit_margins_match_the_oracle(channel):
    # seeded X states, states with a frozen qubit's populations on an edge
    # (a limit margin of 0 where a frozen qubit stays unexcited or excited),
    # and the pure family sqrt(a)|ee> + sqrt(1-a)|gg>, whose margin at exactly
    # a = 1/2 is 0 under zero-temperature decay; as columns (the death
    # kernel's form) and one state at a time (death_time_scalar's)
    states = [random_x(seed) for seed in range(300)]
    states += [make_x(*pops, 0.2 * (min(pops[0], pops[3]) > 0), 0.2 * (min(pops[1], pops[2]) > 0))
               for pops in ((0.0, 0.0, 0.6, 0.4), (0.6, 0.4, 0.0, 0.0), (0.6, 0.0, 0.4, 0.0),
                            (0.0, 0.6, 0.0, 0.4), (0.5, 0.0, 0.0, 0.5), (0.0, 0.5, 0.5, 0.0))]
    states += [make_x(a, 0.0, 0.0, 1.0 - a, np.sqrt(a * (1.0 - a)), 0.0)
               for a in (0.25, 0.5, 0.75)]
    cols = XState(*(np.array([getattr(x, f) for x in states]) for f in "abcdwz"))
    for inner, got in zip((False, True), channel._limit_margins(cols)):
        want = np.array([limit_margin(x, channel, inner) for x in states])
        # the oracle's values, hence its signs; a margin that depends on no
        # state is one scalar for all rows
        np.testing.assert_array_equal(np.broadcast_to(got, want.shape), want)
        one_by_one = [channel._limit_margins(x)[inner] for x in states]
        np.testing.assert_array_equal(np.sign(one_by_one), np.sign(want))
    if channel == IndependentDecay(1.0, 0.7):  # a = 1/2 sits on the boundary: margin 0
        assert channel._limit_margins(cols)[1][-2] == 0.0


# --- asymptotic sets --------------------------------------------------------

def test_thermal_product_values():
    rho = thermal_product(0.5)
    np.testing.assert_allclose(
        np.diag(rho.matrix).real, [0.0625, 0.1875, 0.1875, 0.5625], atol=1e-15
    )
    ground = thermal_product(0.0)
    np.testing.assert_array_equal(np.diag(ground.matrix).real, [0, 0, 0, 1])
    for nbar in (-0.1, float("nan"), float("inf")):
        with pytest.raises(OutOfRangeError, match="must be nonnegative and finite"):
            thermal_product(nbar)


def test_channels_refuse_parameters_whose_derived_rates_overflow():
    # the closed forms add and multiply the parameters; a derived rate of inf
    # made the negativity at t = 0 inf * 0 = NaN, read as never entangled, and
    # made thermal_product's q = nbar / inf = 0, the ground state
    for make, derived in (
        (lambda: IndependentDephasing(1e308, 1e308), "kappa_a+kappa_b"),
        (lambda: CollectiveDephasing(1e308), "2*kappa_c"),
        (lambda: IndependentDecay(1e308, 1.0, 0.5), "gamma_a*(2*nbar+1)"),
        (lambda: IndependentDecay(1.0, 1e308, 0.5), "gamma_b*(2*nbar+1)"),
        (lambda: IndependentDecay(1.0, 1.0, 1e308), "2*nbar+1"),
        (lambda: IndependentDecay(1.0, 1.0, 9e307), "2*nbar+1"),
        (lambda: thermal_product(1e308), "2*nbar+1"),
    ):
        with pytest.raises(OutOfRangeError, match=re.escape(derived)):
            make()
    # just below, every derived rate is finite, and the thermal product is I/4
    for channel in (IndependentDephasing(8e307, 8e307), CollectiveDephasing(8e307),
                    IndependentDecay(1.0, 1.0, 8e307), IndependentDecay(1e308, 1.0, 0.0)):
        assert max_rate(channel) >= 4e307
    np.testing.assert_allclose(thermal_product(8e307).matrix, np.eye(4) / 4.0, atol=1e-15)


def test_asymptotic_set_catalog():
    aset = asymptotic_set(IndependentDecay(1.0, 2.0, nbar=0.5))
    assert isinstance(aset, SinglePoint)
    np.testing.assert_allclose(
        aset.state.matrix, thermal_product(0.5).matrix, atol=1e-15
    )
    deph = asymptotic_set(IndependentDephasing(1.0, 1.0))
    assert deph == XFamily(w_zero=True, z_zero=True)
    coll = asymptotic_set(CollectiveDephasing(1.0))
    assert coll == XFamily(w_zero=True, z_zero=False)


def test_asymptotic_set_refusals():
    with pytest.raises(UnsupportedChannelError):
        asymptotic_set(CustomChannel(((np.eye(4), 1.0),)))
    with pytest.raises(UnsupportedChannelError):
        asymptotic_set(IndependentDecay(1.0, 0.0))
    with pytest.raises(UnsupportedChannelError):
        asymptotic_set(IndependentDephasing(0.0, 1.0))


def test_set_contains_single_point():
    aset = asymptotic_set(IndependentDecay(1.0, 1.0, nbar=0.0))
    assert set_contains(aset, thermal_product(0.0))
    assert not set_contains(aset, maximally_mixed())


def test_set_contains_x_family():
    diagonal_only = XFamily(w_zero=True, z_zero=True)
    z_allowed = XFamily(w_zero=True, z_zero=False)
    diag = make_density(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
    with_z = embed_x(make_x(0.1, 0.4, 0.4, 0.1, z=0.2))
    with_w = embed_x(make_x(0.4, 0.1, 0.1, 0.4, w=0.2))
    assert set_contains(diagonal_only, diag)
    assert not set_contains(diagonal_only, with_z)
    assert set_contains(z_allowed, diag)
    assert set_contains(z_allowed, with_z)
    assert not set_contains(z_allowed, with_w)
    # a dense matrix with off-pattern weight is outside every X family
    dense = random_density(1)
    assert not set_contains(z_allowed, dense)


def test_set_contains_explicit_samples():
    members = ExplicitSamples((thermal_product(0.0), maximally_mixed()))
    assert set_contains(members, maximally_mixed())
    assert not set_contains(members, thermal_product(1.0))
    with pytest.raises(ValidationError):
        ExplicitSamples((np.eye(4) / 4.0,))
    # states from an iterator are kept, not spent by the check
    assert len(ExplicitSamples(iter(members.states)).states) == 2


@pytest.mark.parametrize("atol", [np.nan, -1e-300, -np.inf])
def test_set_contains_refuses_a_nan_or_negative_atol(atol):
    # a NaN atol once made every state a member of an X family, and a
    # negative one left even exact members outside every set
    rho = thermal_product(0.0)
    for aset in (SinglePoint(rho), XFamily(True, True), ExplicitSamples((rho,))):
        assert set_contains(aset, rho, atol=0.0)
        with pytest.raises(OutOfRangeError, match="^atol="):
            set_contains(aset, rho, atol=atol)


def test_single_point_checks_its_state():
    for bad in ("x", np.eye(4) / 4.0, None):
        with pytest.raises(ValidationError, match="^single point must be DensityMatrix"):
            SinglePoint(bad)


def test_x_family_mask_is_read_only():
    with pytest.raises(ValueError):
        XFamily(w_zero=True, z_zero=False)._mask[0, 3] = True


def test_long_time_numeric_lands_in_asymptotic_set():
    rho = random_density(8)
    for channel in (
        IndependentDecay(1.0, 1.0, nbar=0.5),
        IndependentDephasing(1.0, 1.0),
        CollectiveDephasing(1.0),
    ):
        late = propagate_numeric(rho, channel, 25.0)
        assert set_contains(asymptotic_set(channel), late, atol=1e-6)


# --- literals ---------------------------------------------------------------

def test_channel_literal_round_trip():
    for channel in (
        IndependentDecay(1.0, 0.5, nbar=0.25),
        IndependentDephasing(0.3, 0.7),
        CollectiveDephasing(1.5),
    ):
        assert parse_channel_literal(format_channel_literal(channel)) == channel


@pytest.mark.parametrize("kind", [int, np.int64, np.float64])
def test_channel_literal_round_trip_from_numeric_fields(kind):
    for channel in (IndependentDecay(kind(1), kind(2), kind(3)),
                    IndependentDephasing(kind(1), kind(0)), CollectiveDephasing(kind(2))):
        assert all(type(value) is float for value in vars(channel).values())
        assert parse_channel_literal(format_channel_literal(channel)) == channel
    assert format_channel_literal(IndependentDecay(kind(1), kind(1))) == "decay:1.0,1.0,0.0"


@pytest.mark.parametrize("make, field", [
    (lambda: IndependentDecay("1", -1), "gamma_a"),
    (lambda: IndependentDecay(1, True), "gamma_b"),
    (lambda: IndependentDecay(1, 1, nbar=10 ** 400), "nbar"),
    (lambda: IndependentDephasing(1j, 1), "kappa_a"),
    (lambda: IndependentDephasing(1, None), "kappa_b"),
    (lambda: CollectiveDephasing(True), "kappa_c"),
    (lambda: CollectiveDephasing(np.bool_(True)), "kappa_c"),
], ids=["str", "bool", "huge-int", "complex", "none", "collective-bool", "numpy-bool"])
def test_catalog_fields_must_be_real_numbers(make, field):
    # refused by name before any rate check, not as a TypeError
    with pytest.raises(OutOfRangeError, match=f"^{field} "):
        make()


def test_channel_literal_forms():
    assert parse_channel_literal("decay:1,1,0") == IndependentDecay(1.0, 1.0, 0.0)
    assert parse_channel_literal(" dephase:0.5,0.5 ") == IndependentDephasing(0.5, 0.5)
    assert parse_channel_literal("collective:2.0") == CollectiveDephasing(2.0)


def test_channel_literal_errors(tmp_path):
    with pytest.raises(ParseError):
        parse_channel_literal("squeeze:1.0")
    # channel numbers are read with the state-literal grammar
    for literal, message in (
        ("decay:1,1", "decay literal needs 3 comma-separated fields"),
        ("decay:1:2,3,0", "decay literal needs 3 comma-separated fields"),
        ("dephase:1,1,1", "dephase literal needs 2 comma-separated fields"),
        ("collective:1,1", "collective literal needs 1 comma-separated field"),
        ("dephase:1,abc", "dephase literal has a non-numeric field "
                          "(could not convert string to float: 'abc')"),
    ):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_channel_literal(literal)
    assert type(parse_channel_literal("decay:1,2,0").nbar) is float
    path = tmp_path / "rate.json"
    path.write_text(json.dumps({"jumps": [{"matrix": "dense:" + ",".join(["0:0"] * 16),
                                           "rate": "fast"}]}))
    message = (f"jump 1 in {str(path)!r}: rate literal has a non-numeric field "
               "(could not convert string to float: 'fast')")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_channel_literal(f"custom:{path}")
    with pytest.raises(UnsupportedChannelError):
        format_channel_literal(CustomChannel(((np.eye(4), 1.0),)))


def test_custom_channel_from_json_file(tmp_path):
    # sigma_z (x) I as a dense literal: diag(1, 1, -1, -1)
    entries = []
    diag = [1.0, 1.0, -1.0, -1.0]
    for i in range(4):
        for j in range(4):
            entries.append(f"{diag[i] if i == j else 0.0}:0.0")
    payload = {"jumps": [{"matrix": "dense:" + ",".join(entries), "rate": 0.5}]}
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(payload))
    channel = parse_channel_literal(f"custom:{path}")
    assert isinstance(channel, CustomChannel)
    op, rate = channel.jumps[0]
    np.testing.assert_array_equal(op, np.diag(diag).astype(complex))
    assert rate == 0.5
    # behaves as dephasing of qubit A at kappa_a = 2 * rate
    x = make_x(0.4, 0.1, 0.1, 0.4, w=0.2, z=0.05)
    out = propagate_numeric(embed_x(x), channel, 1.0)
    assert abs(out.matrix[0, 3] - x.w * np.exp(-1.0)) < 1e-8


def test_custom_channel_file_errors(tmp_path):
    with pytest.raises(ParseError):
        parse_channel_literal("custom:/nonexistent/file.json")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ParseError):
        parse_channel_literal(f"custom:{bad_json}")
    no_jumps = tmp_path / "empty.json"
    no_jumps.write_text(json.dumps({"rates": []}))
    with pytest.raises(ParseError):
        parse_channel_literal(f"custom:{no_jumps}")
    missing_rate = tmp_path / "missing.json"
    missing_rate.write_text(json.dumps({"jumps": [{"matrix": "dense:bad"}]}))
    with pytest.raises(ParseError):
        parse_channel_literal(f"custom:{missing_rate}")
    entries = ",".join("0.0:0.0" for _ in range(16))
    for payload in ([], {"jumps": 5}, {"jumps": [{"matrix": entries, "rate": [1]}]},
                    {"jumps": [{"matrix": entries, "rate": "fast"}]}):
        hostile = tmp_path / "hostile.json"
        hostile.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            parse_channel_literal(f"custom:{hostile}")
