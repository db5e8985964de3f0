"""Acceptance gate: one quantitative guarantee per test, one line each.

Every test prints a single ``[NN] PASS/FAIL`` line on the real stdout
(past pytest's capture) before asserting, so running this file doubles as
the release checklist.
"""

import itertools
import subprocess
import sys

import numpy as np

from esdkit import (
    CollectiveDephasing,
    IndependentDecay,
    IndependentDephasing,
    SinglePoint,
    Trajectory,
    VERDICT_FINITE,
    bell,
    bell_mixture,
    classify_channel,
    classify_set,
    crossing_count,
    death_time,
    embed_x,
    is_entangled_ppt,
    make_x,
    max_rate,
    maximally_mixed,
    negativity,
    propagate_numeric,
    propagate_x_closed,
    random_density,
    random_x,
    simulate,
    werner,
    x_entangled,
)
from esdkit.entanglement import _partial_transpose_many
from esdkit.states import DEFAULT_TOL, _random_density_stack

from _cli import cli_env
from _oracles import (
    collective_jumps,
    decay_jumps,
    dephase_jumps,
    lindblad_matrix,
    rk4_evolve,
)

PURE_07_LITERAL = "x:0.7,0,0,0.3,0.45825756949558405,0,0,0"
# a Bell-like state with one coherence outside the X pattern
DENSE_LITERAL = ("dense:0.4:0,0.05:0,0:0,0.35:0, 0.05:0,0.1:0,0:0,0:0, "
                 "0:0,0:0,0.1:0,0:0, 0.35:0,0:0,0:0,0.4:0")

CHANNEL_BATTERY = (
    (IndependentDecay(1.0, 1.0, nbar=0.0), decay_jumps(1.0, 1.0, 0.0)),
    (IndependentDecay(1.0, 1.0, nbar=0.5), decay_jumps(1.0, 1.0, 0.5)),
    (IndependentDephasing(1.0, 1.0), dephase_jumps(1.0, 1.0)),
    (CollectiveDephasing(1.0), collective_jumps(1.0)),
)


def check(capsys, index, detail, ok):
    with capsys.disabled():
        print(f"[{index:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {index:02d}: {detail}"


def pure_family(a):
    return make_x(a, 0.0, 0.0, 1.0 - a, w=np.sqrt(a * (1.0 - a)))


def test_criterion_01_x_criterion_matches_ppt(capsys):
    total = 10_000
    agree = sum(
        x_entangled(x).entangled == is_entangled_ppt(embed_x(x))
        for x in (random_x(seed) for seed in range(total))
    )
    check(
        capsys, 1,
        f"x-state criterion vs PPT eigenvalue test: {agree}/{total} agree",
        agree == total,
    )


def test_criterion_02_closed_forms_match_numeric_integration(capsys):
    xs = [random_x(seed) for seed in range(100)]
    worst = 0.0
    for channel, jumps in CHANNEL_BATTERY:
        rate = max_rate(channel)
        dt = 1e-3 / rate
        grid = np.array([0.1, 0.5, 1.0, 2.0, 5.0]) / rate
        lmat = lindblad_matrix(jumps)
        stack = np.stack([embed_x(x).matrix for x in xs])
        prev = 0.0
        for t in grid:
            stack = rk4_evolve(lmat, stack, t - prev, dt)
            prev = t
            for i, x in enumerate(xs):
                closed = embed_x(propagate_x_closed(x, channel, float(t))).matrix
                worst = max(worst, float(np.abs(closed - stack[i]).max()))
    check(
        capsys, 2,
        f"closed form vs RK4, 4 channels x 100 states x 5 times: "
        f"max entrywise error {worst:.2e}",
        worst <= 1e-6,
    )


def test_criterion_03_trajectories_stay_physical(capsys):
    trajectories = []
    for channel, _ in CHANNEL_BATTERY:
        trajectories.append(simulate(random_x(0), channel, 50.0))
        trajectories.append(simulate(bell("phi+"), channel, 50.0))
        trajectories.append(simulate(random_density(0), channel, 5.0))
    worst_trace = 0.0
    worst_eig = 0.0
    samples = 0
    for traj in trajectories:
        for rho in traj.states:
            worst_trace = max(worst_trace, abs(float(np.trace(rho.matrix).real) - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rho.matrix)[0]))
            samples += 1
    ok = worst_trace <= 1e-9 and worst_eig >= -1e-8
    check(
        capsys, 3,
        f"{samples} retained samples: max |trace-1| {worst_trace:.2e}, "
        f"min eigenvalue {worst_eig:.2e}",
        ok,
    )


def test_criterion_04_pure_family_death_law(capsys):
    channel = IndependentDecay(1.0, 1.0, nbar=0.0)
    verdict_ok = True
    for a in np.linspace(0.05, 0.95, 19):
        report = death_time(pure_family(float(a)), channel, 50.0)
        verdict_ok &= (report.verdict == VERDICT_FINITE) == (a > 0.5)
    expected = -np.log(1.0 - np.sqrt(3.0 / 7.0))
    dev = abs(death_time(pure_family(0.7), channel, 50.0).t_star - expected)
    check(
        capsys, 4,
        f"pure family: finite death exactly for a > 1/2; "
        f"t*(a=0.7) off by {dev:.2e}",
        verdict_ok and dev <= 1e-6,
    )


def test_criterion_05_collective_dephasing_death_and_dfs(capsys):
    report = death_time(
        make_x(0.3, 0.2, 0.2, 0.3, w=0.28), CollectiveDephasing(1.0), 10.0
    )
    rate_c = 2.0  # coherence decay rate of w at kappa_c = 1
    dev = abs(report.t_star * rate_c - np.log(1.4))
    psi = embed_x(bell("psi+"))
    late = propagate_numeric(psi, CollectiveDephasing(1.0), 50.0)
    drift = float(np.abs(late.matrix - psi.matrix).max())
    ok = report.verdict == VERDICT_FINITE and dev <= 1e-6 and drift <= 1e-9
    check(
        capsys, 5,
        f"collective dephasing: t* x rate off ln(1.4) by {dev:.2e}, "
        f"psi+ drift {drift:.2e} over horizon 50",
        ok,
    )


def test_criterion_06_werner_threshold_by_bisection(capsys):
    lo, hi = 1.0 / 6.0, 0.5  # separable at lo, entangled at hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if x_entangled(werner(mid)).entangled:
            hi = mid
        else:
            lo = mid
    dev = abs(0.5 * (lo + hi) - 1.0 / 3.0)
    check(
        capsys, 6,
        f"werner entanglement boundary off 1/3 by {dev:.2e}",
        dev <= 1e-9,
    )


def test_criterion_07_equal_bell_pair_mixtures_separable(capsys):
    worst = 0.0
    for i, j in itertools.combinations(range(4), 2):
        weights = [0.0, 0.0, 0.0, 0.0]
        weights[i] = weights[j] = 0.5
        worst = max(worst, negativity(embed_x(bell_mixture(weights))))
    check(
        capsys, 7,
        f"6 equal two-Bell mixtures: max negativity {worst:.2e}",
        worst <= 1e-12,
    )


def test_criterion_08_scenario_table(capsys):
    table = (
        (IndependentDecay(1.0, 1.0, nbar=0.0), ("one", "ii")),
        (IndependentDecay(1.0, 1.0, nbar=0.5), ("one", "i")),
        (IndependentDephasing(1.0, 1.0), ("multi", "ii")),
        (CollectiveDephasing(1.0), ("multi", "iv")),
    )
    results = []
    ok = True
    for channel, expected in table:
        label = classify_channel(channel)
        results.append(f"{label.family}/{label.case}")
        ok &= (label.family, label.case) == expected
    synthetic = classify_set(SinglePoint(embed_x(bell("phi+"))))
    results.append(f"{synthetic.family}/{synthetic.case}")
    ok &= (synthetic.family, synthetic.case) == ("one", "iii")
    check(
        capsys, 8,
        "scenario table [decay0, decay0.5, dephase, collective, phi+ point]: "
        + " ".join(results),
        ok,
    )


def test_criterion_09_interior_attractor_forces_finite_death(capsys):
    channel = IndependentDecay(1.0, 1.0, nbar=0.5)
    finite = 0
    tested = 0
    seed = 0
    latest = 0.0
    while tested < 200:
        x = random_x(seed)
        seed += 1
        if not x_entangled(x).entangled:
            continue  # states that never held entanglement have no death
        tested += 1
        report = death_time(x, channel, 50.0)
        if report.verdict == VERDICT_FINITE:
            finite += 1
            latest = max(latest, report.t_star)
    check(
        capsys, 9,
        f"thermal decay kills all {tested} entangled starts in finite time "
        f"({finite}/200 finite, latest t* {latest:.3f})",
        finite == 200,
    )


def test_criterion_10_separable_fraction_positive_measure(capsys):
    total = 100_000
    # random_density(seed) for every seed, bit for bit, in stacks of 10,000
    stack = np.concatenate([_random_density_stack(range(lo, lo + 10_000))
                            for lo in range(0, total, 10_000)])
    # is_entangled_ppt over the whole stack: the partial transpose of an
    # exactly Hermitian matrix is exactly Hermitian, so no symmetrization
    lowest = np.linalg.eigvalsh(_partial_transpose_many(stack))[:, 0]
    fraction = np.count_nonzero(lowest >= -DEFAULT_TOL.eps_ent) / total
    # the Hilbert-Schmidt separability probability is 8/33 (conjectured by
    # Slater; Lovas & Andai, J. Phys. A 50 (2017) 295303), here within 5 sigma
    band = 5.0 * np.sqrt(fraction * (1.0 - fraction) / total)
    check(
        capsys, 10,
        f"separable fraction of {total} Hilbert-Schmidt samples: {fraction:.4f} "
        f"(8/33 = {8 / 33:.4f} +- {band:.4f})",
        0.05 < fraction < 0.6 and abs(fraction - 8 / 33) <= band,
    )


def test_criterion_11_crossing_counter_exact_on_synthetic_patterns(capsys):
    rng = np.random.default_rng(20260823)
    eps = 1e-10  # default death threshold
    exact = 0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        alive = rng.integers(0, 2, n).astype(bool)
        neg = np.where(alive, rng.uniform(1e-6, 1.0, n), rng.uniform(0.0, eps, n))
        expected = int(np.count_nonzero(alive[:-1] != alive[1:]))
        traj = Trajectory(
            np.arange(n, dtype=float),
            tuple(maximally_mixed() for _ in range(n)),
            neg, np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n),
        )
        exact += crossing_count(traj) == expected
    check(
        capsys, 11,
        f"crossing counts exact on {exact}/100 synthetic sign patterns",
        exact == 100,
    )


def test_criterion_12_cli_outputs_byte_identical(capsys):
    commands = (
        ("evolve", "--channel", "decay:1,1,0.5",
         "--state", "x:0.3,0.2,0.2,0.3,0.28,0,0.1,0", "--horizon", "5"),
        ("death-time", "--channel", "decay:1,1,0",
         "--state", PURE_07_LITERAL, "--horizon", "10"),
        ("classify", "--channel", "collective:1.0", "--samples", "50", "--seed", "3"),
        ("sweep", "--channel", "decay:1,1,0", "--family", "pure",
         "--grid", "a=0.55:0.95:9", "--jobs", "2"),
        # a dense state takes the numeric (RK4) path
        ("evolve", "--channel", "dephase:1,1", "--state", DENSE_LITERAL, "--horizon", "2"),
    )
    ok = True
    for args in commands:
        first, second = (
            subprocess.run(
                [sys.executable, "-m", "esdkit", *args], capture_output=True,
                env=cli_env(),
            )
            for _ in range(2)
        )
        ok &= first.returncode == 0 == second.returncode
        ok &= first.stdout == second.stdout and len(first.stdout) > 0
    check(
        capsys, 12,
        f"{len(commands)} CLI commands rerun with fixed seeds: outputs byte-identical",
        ok,
    )
