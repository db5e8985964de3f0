"""Independent reference implementations used to cross-check the library.

Everything here works directly on raw matrices with deliberately naive
methods (explicit index loops, characteristic polynomials, hand-assembled
superoperators), so agreement with the library routes is evidence rather
than tautology.
"""

import json
import math

import numpy as np

from esdkit.channels import (
    CollectiveDephasing,
    SinglePoint,
    XFamily,
    max_rate,
    x_closed_curves,
)
from esdkit.classify import _PROBE_POPULATIONS, _coherence_extremes
from esdkit.dynamics import (
    CSV_HEADER,
    DEFAULT_SAMPLES,
    VERDICT_ASYMPTOTIC,
    VERDICT_FINITE,
    VERDICT_NEVER,
    VERDICT_PERSISTENT,
    DeathReport,
    _limit_margin,
    _pt_blocks,
)
from esdkit.entanglement import eigenvalues_hermitian, partial_transpose
from esdkit.errors import (
    NegativePopulationError,
    NotPositiveError,
    NotXFormError,
    OutOfRangeError,
    TraceNotOneError,
)
from esdkit.states import embed_x, format_state_literal, make_x, project_x

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
EYE2 = np.eye(2, dtype=complex)
EYE4 = np.eye(4, dtype=complex)


def pt_entrywise(m):
    """Partial transpose on qubit B by explicit index bookkeeping.

    Basis index i encodes qubit A on i // 2 and qubit B on i % 2, with
    level 0 excited.  Entry <j k|out|l n> = <j n|m|l k>.
    """
    out = np.zeros((4, 4), dtype=complex)
    for j in range(2):
        for k in range(2):
            for l in range(2):
                for n in range(2):
                    out[2 * j + k, 2 * l + n] = m[2 * j + n, 2 * l + k]
    return out


def charpoly_eigs(m):
    """Eigenvalues of a Hermitian 4x4 from characteristic-polynomial roots.

    Coefficients come from the Faddeev-LeVerrier recursion, roots from
    the companion matrix (np.roots); for Hermitian input the imaginary
    parts are pure roundoff.
    """
    coeffs = [1.0]
    mk = np.zeros((4, 4), dtype=complex)
    c = 1.0
    for k in range(1, 5):
        mk = m @ (mk + c * EYE4)
        c = -np.trace(mk).real / k
        coeffs.append(c)
    return np.sort(np.roots(coeffs).real)


def decay_jumps(gamma_a, gamma_b, nbar):
    """Jump list for independent amplitude damping at mean occupation nbar
    (both lowering jumps first, in the library's summation order)."""
    return [
        (np.kron(SIGMA_MINUS, EYE2), gamma_a * (nbar + 1.0)),
        (np.kron(EYE2, SIGMA_MINUS), gamma_b * (nbar + 1.0)),
        (np.kron(SIGMA_PLUS, EYE2), gamma_a * nbar),
        (np.kron(EYE2, SIGMA_PLUS), gamma_b * nbar),
    ]


def dephase_jumps(kappa_a, kappa_b):
    """Jump list for independent phase damping (sigma_z at kappa / 2)."""
    return [
        (np.kron(SIGMA_Z, EYE2), 0.5 * kappa_a),
        (np.kron(EYE2, SIGMA_Z), 0.5 * kappa_b),
    ]


def collective_jumps(kappa_c):
    """Single shared jump: half the total inversion at rate kappa_c."""
    half_total = 0.5 * (np.kron(SIGMA_Z, EYE2) + np.kron(EYE2, SIGMA_Z))
    return [(half_total, kappa_c)]


def lindblad_matrix(jumps):
    """16x16 generator of drho/dt under row-major vectorization, from
    ``np.kron`` products summed in the library's order."""
    lmat = np.zeros((16, 16), dtype=complex)
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        anti = op.conj().T @ op
        lmat += rate * (
            np.kron(op, op.conj())
            - 0.5 * (np.kron(anti, EYE4) + np.kron(EYE4, anti.T))
        )
    return lmat


def rk4_evolve(lmat, rho0, t, dt):
    """Classical fixed-step RK4 on vec(rho); rho0 may be a (n, 4, 4) stack."""
    rho0 = np.asarray(rho0, dtype=complex)
    v = rho0.reshape(-1, 16).T
    n_steps = max(1, int(np.ceil(t / dt - 1e-12)))
    for k in range(n_steps):
        h = min(dt, t - k * dt)
        k1 = lmat @ v
        k2 = lmat @ (v + 0.5 * h * k1)
        k3 = lmat @ (v + 0.5 * h * k2)
        k4 = lmat @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.ascontiguousarray(v.T).reshape(rho0.shape)


def random_hermitian(rng, scale=1.0):
    """Dense Hermitian 4x4 with independent Gaussian entries."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return scale * 0.5 * (g + g.conj().T)


def random_local_unitary(rng):
    """Haar-ish product unitary U_A (x) U_B from Gaussian + QR."""
    blocks = []
    for _ in range(2):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        blocks.append(q)
    return np.kron(blocks[0], blocks[1])


def _x_negativity_at(x0, channel, times):
    return _pt_blocks(x_closed_curves(x0, channel, times))[0]


def _midpoint(lo, hi):
    """``0.5 * (lo + hi)``, halving each end first only where the sum overflows."""
    return 0.5 * (lo + hi) if math.isfinite(lo + hi) else 0.5 * lo + 0.5 * hi


def _bisect_threshold(margin, lo, hi, xtol):
    """Locate a sign change of ``margin`` inside [lo, hi] to width ``xtol``."""
    sign_lo = margin(lo) > 0.0
    while hi - lo > xtol:
        mid = _midpoint(lo, hi)
        if not lo < mid < hi:
            break  # adjacent floats: halving cannot shrink the bracket
        if (margin(mid) > 0.0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return _midpoint(lo, hi)


def death_time_scalar(x0, channel, horizon, tol):
    """One-row death-time decision from negativity monotonicity: the
    negativity at 0 and at the horizon, the limit-margin verdict, a
    doubling bracket past the horizon and a scalar bisection.

    It reuses the library's closed forms and block margins.
    """
    with np.errstate(over="ignore"):
        curves = x_closed_curves(x0, channel, np.array([0.0, horizon]))
    neg, outer_pt, inner_pt = _pt_blocks(curves)
    alive_start, alive_end = bool(neg[0] > tol.eps_death), bool(neg[1] > tol.eps_death)

    def report(verdict, t_star=None):
        crossings = int(alive_start and not alive_end)
        return DeathReport(verdict, t_star, horizon, crossings, tol.eps_death)

    def margin(t):
        with np.errstate(over="ignore"):
            return float(_x_negativity_at(x0, channel, np.array([t]))[0]) - tol.eps_death

    if not alive_start:
        return report(VERDICT_NEVER)
    was_inner = bool(inner_pt[0] < outer_pt[0])
    if _limit_margin(x0, channel, was_inner) >= 0.0:
        undamped = isinstance(channel, CollectiveDephasing) and not was_inner
        return report(VERDICT_PERSISTENT if undamped else VERDICT_ASYMPTOTIC)
    lo, hi = 0.0, horizon
    if alive_end:
        lo = horizon
        while math.isfinite(2.0 * lo) and margin(2.0 * lo) > 0.0:
            lo *= 2.0
        hi = 2.0 * lo
        if not math.isfinite(hi):
            return report(VERDICT_PERSISTENT)
    return report(VERDICT_FINITE, _bisect_threshold(margin, lo, hi, 1e-9 / max_rate(channel)))


def death_time_grid_scalar(x0, channel, horizon, tol):
    """One-row death-time scan on a uniform grid of ``DEFAULT_SAMPLES``
    steps: the last grid crossing, the limit-margin verdict of the block
    at the negativity peak, a doubling bracket past the horizon and a
    scalar bisection.

    It assumes nothing about monotonicity and counts every grid crossing.
    """
    times = np.linspace(0.0, horizon, DEFAULT_SAMPLES + 1)
    with np.errstate(over="ignore"):
        curves = x_closed_curves(x0, channel, times)
    neg, outer_pt, inner_pt = _pt_blocks(curves)
    alive = neg > tol.eps_death
    flips = np.nonzero(alive[:-1] != alive[1:])[0]

    def report(verdict, t_star=None):
        return DeathReport(verdict, t_star, horizon, len(flips), tol.eps_death)

    def margin(t):
        with np.errstate(over="ignore"):
            return float(_x_negativity_at(x0, channel, np.array([t]))[0]) - tol.eps_death

    if not alive.any():
        return report(VERDICT_NEVER)
    peak = int(np.argmax(neg))
    was_inner = bool(inner_pt[peak] < outer_pt[peak])
    if _limit_margin(x0, channel, was_inner) >= 0.0:
        undamped = isinstance(channel, CollectiveDephasing) and not was_inner
        return report(VERDICT_PERSISTENT if undamped else VERDICT_ASYMPTOTIC)
    if alive[-1]:
        lo = horizon
        while math.isfinite(2.0 * lo) and margin(2.0 * lo) > 0.0:
            lo *= 2.0
        hi = 2.0 * lo
        if not math.isfinite(hi):
            return report(VERDICT_PERSISTENT)
    else:
        lo, hi = float(times[flips[-1]]), float(times[flips[-1] + 1])
    return report(VERDICT_FINITE, _bisect_threshold(margin, lo, hi, 1e-9 / max_rate(channel)))


def x_rule_scalar(a, b, c, d, w, z, tol):
    """make_x's rule for one member in plain Python floats: ``None`` if it
    passes, else ``(check, error class, message)`` for the first check it
    fails, in make_x's order.  The trace is summed left to right and each
    square is ``h * h`` of ``h = abs(v)``, whatever ``sum`` and ``**`` do on
    this Python."""
    pops = dict(zip("abcd", map(float, (a, b, c, d))))
    w, z = complex(w), complex(z)
    for name, p in pops.items():
        if not math.isfinite(p):
            return f"{name} finite", OutOfRangeError, f"population {name}={p!r} is not finite"
        if p < -tol.eps_psd:
            return (f"{name} negative", NegativePopulationError,
                    f"population {name}={p!r} below -{tol.eps_psd:.1e}")
    drift = abs(pops["a"] + pops["b"] + pops["c"] + pops["d"] - 1.0)
    if drift > tol.eps_trace:
        return "trace", TraceNotOneError, f"populations sum deviates from 1 by {drift:.3e}"
    for name, v in (("w", w), ("z", z)):
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            return f"{name} finite", OutOfRangeError, f"coherence {name}={v!r} is not finite"
    for name, v, p, q in (("w", w, "a", "d"), ("z", z, "b", "c")):
        h, eps = abs(v), tol.eps_psd
        # a 2x2 block's lowest eigenvalue is at least -eps_psd exactly when this holds
        bound = (pops[p] + eps) * (pops[q] + eps)
        if h * h > bound:
            return (f"{name} bound", NotPositiveError,
                    f"|{name}|^2={h * h:.6e} exceeds ({p}+{eps:.1e})*({q}+{eps:.1e})={bound:.6e}")
    return None


def family_members_scalar(family, n_samples, seed):
    """X-family members one at a time: the probe members, then seeded
    draws, each through make_x and embed_x."""
    members = []
    for a, b, c, d in _PROBE_POPULATIONS:
        for w in _coherence_extremes(float(np.sqrt(a * d)), family.w_zero):
            for z in _coherence_extremes(float(np.sqrt(b * c)), family.z_zero):
                members.append(make_x(a, b, c, d, w, z))
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        a, b, c, d = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        w = z = 0.0 + 0.0j
        if not family.w_zero:
            w = rng.uniform() * np.sqrt(a * d) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        if not family.z_zero:
            z = rng.uniform() * np.sqrt(b * c) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        members.append(make_x(a, b, c, d, w, z))
    return [embed_x(x) for x in members]


def classify_set_scalar(aset, tol, n_samples=100, seed=0):
    """The per-member classifier loop: two eigenvalues_hermitian calls
    per member, and its literal through project_x, or the dense form when
    project_x refuses it.

    Returns ``(family, case, rows)`` with one ``(literal, label, margin,
    rank_margin)`` row per member.
    """
    if isinstance(aset, XFamily):
        members = family_members_scalar(aset, n_samples, seed)
    elif isinstance(aset, SinglePoint):
        members = [aset.state]
    else:
        members = list(aset.states)
    rows = []
    entangled_seen = separable_seen = boundary_seen = False
    for rho in members:
        margin = float(eigenvalues_hermitian(partial_transpose(rho), tol)[0])
        rank_margin = float(eigenvalues_hermitian(rho.matrix, tol)[0])
        if margin < -tol.eps_ent:
            label = "entangled"
            entangled_seen = True
        else:
            label = "interior" if margin > tol.eps_ent and rank_margin > tol.eps_ent else "boundary"
            separable_seen = True
            boundary_seen = boundary_seen or label == "boundary"
        try:
            literal = format_state_literal(project_x(rho))
        except NotXFormError:
            literal = format_state_literal(rho)
        rows.append((literal, label, margin, rank_margin))
    if entangled_seen and separable_seen:
        case = "iv"
    elif entangled_seen:
        case = "iii"
    elif boundary_seen:
        case = "ii"
    else:
        case = "i"
    family = "one" if isinstance(aset, SinglePoint) or len(members) == 1 else "multi"
    return family, case, rows


def scenario_to_json_reference(label):
    """Scenario JSON as ``json.dumps(payload, indent=2)`` writes it, the
    writer's former body."""
    payload = {
        "family": label.family,
        "case": label.case,
        "evidence": [
            {"state": ev.state, "label": ev.region.label, "margin": ev.region.margin}
            for ev in label.evidence
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def trajectory_to_csv_reference(traj):
    """Trajectory CSV with ``repr`` called on every cell, the writer's
    former body."""
    pops = (traj.a, traj.b, traj.c, traj.d) if traj.is_x else ()
    rows = np.column_stack((
        traj.times, traj.negativity, traj.min_pt_eig, traj.min_eig, *pops,
        traj.abs_w, traj.abs_z,
    )).tolist()
    gap = "," if traj.is_x else ",,,,,"
    lines = [CSV_HEADER]
    lines += [",".join(map(repr, row[:-2])) + gap + ",".join(map(repr, row[-2:])) for row in rows]
    return "\n".join(lines) + "\n"
