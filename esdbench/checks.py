"""Output checks against references that are right by construction.

Every reference here is derived independently of the program's code
paths: closed-form X-state flows written from the channel definitions,
the pure-family death law, the exact late-time behaviour of thermal
decay and collective dephasing, and the fact that a two-qubit partial
transpose has at most one negative eigenvalue (so its determinant decides
separability).  The program's own parsers are used only for the
round-trip checks the output formats promise.

``check(op, output)`` returns ``None`` when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

from esdkit.classify import scenario_from_json, scenario_to_json
from esdkit.dynamics import parse_trajectory_csv
from esdkit.entanglement import x_entangled
from esdkit.states import XState

from ops import max_rate, pure_x

EPS_DEATH = 1e-10
EPS_ENT = 1e-10
EPS_PSD = 1e-9
SCENARIO_TABLE = {  # (kind, nbar > 0) -> (family, case)
    ("decay", False): ("one", "ii"),
    ("decay", True): ("one", "i"),
    ("dephase", False): ("multi", "ii"),
    ("collective", False): ("multi", "iv"),
}


class CheckFailed(Exception):
    pass


def expect(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# --- reference physics --------------------------------------------------------

def closed_form(ch: dict, x: dict, t) -> tuple[np.ndarray, ...]:
    """(a, b, c, d, w, z) of an X state at times ``t`` under a catalog
    channel, written from the channel definitions: populations move
    through each qubit's 2x2 transfer matrix, coherences shrink."""
    t = np.asarray(t, dtype=float)
    kind, p = ch["kind"], ch["params"]
    pops = np.array([[x["a"], x["b"]], [x["c"], x["d"]]], dtype=float)  # [A level, B level]
    w0, z0 = complex(x["w_re"], x["w_im"]), complex(x["z_re"], x["z_im"])
    if kind in ("decay", "custom"):
        scale = 2.0 * p[2] + 1.0
        q = p[2] / scale
        e_a, e_b = np.exp(-p[0] * scale * t), np.exp(-p[1] * scale * t)

        def transfer(e):  # excited weight p -> e p + q (1 - e)
            return np.array([[e + q * (1 - e), q * (1 - e)],
                             [(1 - q) * (1 - e), 1 - q * (1 - e)]])

        ta, tb = transfer(e_a), transfer(e_b)
        out = np.einsum("ik...,kl,jl...->ij...", ta, pops, tb)
        shrink = np.sqrt(e_a * e_b)
        return out[0, 0], out[0, 1], out[1, 0], out[1, 1], w0 * shrink, z0 * shrink
    ones = np.ones_like(t)
    if kind == "dephase":
        w_shrink = z_shrink = np.exp(-(p[0] + p[1]) * t)
    else:  # collective: the inner levels are decoherence-free
        w_shrink, z_shrink = np.exp(-2.0 * p[0] * t), ones
    return (pops[0, 0] * ones, pops[0, 1] * ones, pops[1, 0] * ones, pops[1, 1] * ones,
            w0 * w_shrink, z0 * z_shrink)


def pt_blocks(a, b, c, d, w, z) -> tuple:
    """Minimum eigenvalues of the partial transpose's outer and inner blocks."""
    outer = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(z))
    inner = 0.5 * (b + c) - np.hypot(0.5 * (b - c), np.abs(w))
    return outer, inner


def negativity(ch: dict, x: dict, t) -> np.ndarray:
    outer, inner = pt_blocks(*closed_form(ch, x, t))
    return np.maximum(-outer, 0.0) + np.maximum(-inner, 0.0)


def pure_death_time(a: float, gamma: float, eps: float = EPS_DEATH) -> float:
    """Time the negativity of sqrt(a)|ee> + sqrt(1-a)|gg> under equal-rate
    zero-temperature decay falls to ``eps``.  With E = exp(-gamma t) the
    negativity is a E^2 + (s - a) E, s = sqrt(a (1 - a)); at eps = 0 this
    is the law t* = -ln(1 - sqrt((1 - a)/a)) / gamma."""
    s = math.sqrt(a * (1.0 - a))
    e = ((a - s) + math.sqrt((a - s) ** 2 + 4.0 * a * eps)) / (2.0 * a)
    return -math.log(e) / gamma


def x_of_dense(matrix: np.ndarray) -> dict:
    return {"a": matrix[0, 0].real, "b": matrix[1, 1].real,
            "c": matrix[2, 2].real, "d": matrix[3, 3].real,
            "w_re": matrix[0, 3].real, "w_im": matrix[0, 3].imag,
            "z_re": matrix[1, 2].real, "z_im": matrix[1, 2].imag}


def parse_dense(literal: str) -> np.ndarray:
    pairs = literal[len("dense:"):].split(",")
    return np.array([complex(float(p.split(":")[0]), float(p.split(":")[1])) for p in pairs]
                    ).reshape(4, 4)


def parse_x(literal: str) -> dict:
    vals = [float(v) for v in literal[len("x:"):].split(",")]
    return dict(zip(("a", "b", "c", "d", "w_re", "w_im", "z_re", "z_im"), vals))


def partial_transpose(m: np.ndarray) -> np.ndarray:
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


# --- death-time verdicts ------------------------------------------------------

def check_verdict(ch: dict, x: dict, verdict: str, t_star, where: str) -> None:
    """One death-time verdict (a sweep row or a death-time report)."""
    rate = max_rate(ch)
    neg0 = float(negativity(ch, x, 0.0))
    expect((verdict == "never_entangled") == (neg0 <= EPS_DEATH),
           f"{where}: verdict {verdict} but initial negativity {neg0:.3e}")
    expect((t_star is not None) == (verdict == "finite"), f"{where}: t_star/verdict mismatch")
    if verdict == "finite":
        delta = 1e-7 / rate
        before, after = negativity(ch, x, [max(t_star - delta, 0.0), t_star + delta])
        expect(before > EPS_DEATH >= after,
               f"{where}: negativity does not cross eps_death at t*={t_star!r} "
               f"({before:.3e} -> {after:.3e})")
    p = ch["params"]
    if ch["kind"] == "decay" and p[2] > 0.0 and neg0 > EPS_DEATH:
        expect(verdict == "finite", f"{where}: thermal decay must kill entanglement, got {verdict}")
    if ch["kind"] == "collective":
        outer, _ = pt_blocks(*closed_form(ch, x, 0.0))
        if -outer > EPS_DEATH:
            expect(verdict == "persistent",
                   f"{where}: z-block entanglement under collective dephasing is {verdict}")
    pure = x["b"] == 0.0 and x["c"] == 0.0 and x["z_re"] == 0.0 and x["w_im"] == 0.0
    if ch["kind"] == "decay" and p[2] == 0.0 and p[0] == p[1] and pure \
            and x["w_re"] == math.sqrt(x["a"] * x["d"]):
        a = x["a"]
        expect((verdict == "finite") == (a > 0.5), f"{where}: pure a={a!r} gives {verdict}")
        if verdict == "finite":
            ref = pure_death_time(a, p[0])
            expect(abs(t_star - ref) <= 1e-8 / p[0],
                   f"{where}: pure a={a!r} t*={t_star!r}, law gives {ref!r}")


def _grid_states(spec: dict) -> tuple[list[str], list[tuple], list[dict]]:
    axes = [np.linspace(lo, hi, n) for _, lo, hi, n in spec["grids"]]
    names = [g[0] for g in spec["grids"]]
    mesh = np.meshgrid(*axes, indexing="ij")
    combos = list(zip(*(m.reshape(-1) for m in mesh)))
    states = []
    for values in combos:
        if spec["base"] is None:
            states.append(pure_x(float(values[0])))
        else:
            states.append(dict(spec["base"], **{n: float(v) for n, v in zip(names, values)}))
    return names, combos, states


def check_sweep(op: dict, text: str) -> None:
    spec = op["spec"]
    names, combos, states = _grid_states(spec)
    lines = text.splitlines()
    expect(lines[0] == ",".join(names) + ",verdict,t_star,crossings", "sweep: bad header")
    expect(len(lines) == len(combos) + 1, f"sweep: {len(lines) - 1} rows, expected {len(combos)}")
    for row, (line, values, x) in enumerate(zip(lines[1:], combos, states), start=1):
        cells = line.split(",")
        k = len(names)
        expect(cells[:k] == [repr(float(v)) for v in values], f"sweep row {row}: grid values")
        expect(int(cells[k + 2]) >= 0, f"sweep row {row}: negative crossings")
        t_star = float(cells[k + 1]) if cells[k + 1] else None
        check_verdict(spec["channel"], x, cells[k], t_star, f"sweep row {row}")


def check_death_time(op: dict, text: str) -> None:
    spec = op["spec"]
    report = json.loads(text)
    expect(report["horizon"] == 50.0 / max_rate(spec["channel"]), "death-time: horizon")
    expect(report["epsilon_death"] == EPS_DEATH, "death-time: epsilon_death")
    expect(isinstance(report["crossings"], int) and report["crossings"] >= 0, "death-time: crossings")
    check_verdict(spec["channel"], spec["state"], report["verdict"], report["t_star"], "death-time")


# --- trajectories and propagated states --------------------------------------

def _retained_count(horizon: float, rate: float) -> int:
    n_steps = max(1, math.ceil(horizon / (1e-3 / rate) * (1.0 - 1e-12)))
    every = max(1, math.ceil(n_steps / 2000))
    return len(range(0, n_steps + 1, every)) + (n_steps % every != 0)


def check_evolve(op: dict, text: str) -> None:
    spec = op["spec"]
    ch, horizon = spec["channel"], spec["horizon"]
    dense = isinstance(spec["state"], str)
    x0 = x_of_dense(parse_dense(spec["state"])) if dense else spec["state"]
    lines = text.splitlines()
    expect(len(lines) - 1 == _retained_count(horizon, max_rate(ch)), "evolve: row count")
    rows = [line.split(",") for line in lines[1:]]
    expect(all(len(r) == 10 for r in rows), "evolve: row width")
    expect(all((r[4] == "") == dense for r in rows), "evolve: population cells")
    num = np.array([[float(c) if c else np.nan for c in r] for r in rows])
    t = num[:, 0]
    expect(t[0] == 0.0 and bool(np.all(np.diff(t) > 0)), "evolve: times not increasing from 0")
    expect(t[-1] == horizon, f"evolve: last t {float(t[-1])!r} != horizon {horizon!r}")
    bad = np.nonzero(num[:, 3] < -EPS_PSD)[0]
    expect(bad.size == 0, f"evolve: min_eig < -eps_psd at row {bad[0] + 1 if bad.size else 0}")
    expect(bool(np.all(num[:, 1] >= 0.0)), "evolve: negative negativity")
    a, b, c, d, w, z = closed_form(ch, x0, t)
    atol = 1e-6 if dense else 1e-12
    expect(np.allclose(num[:, 8], np.abs(w), rtol=0, atol=atol)
           and np.allclose(num[:, 9], np.abs(z), rtol=0, atol=atol),
           "evolve: |w|/|z| differ from the closed form")
    if not dense:
        expect(np.allclose(num[:, 4:8], np.stack([a, b, c, d], axis=1), rtol=0, atol=atol),
               "evolve: populations differ from the closed form")
        outer, inner = pt_blocks(a, b, c, d, w, z)
        ref_neg = np.maximum(-outer, 0.0) + np.maximum(-inner, 0.0)
        expect(np.allclose(num[:, 1], ref_neg, rtol=0, atol=atol), "evolve: negativity")
    cols = parse_trajectory_csv(text)
    for j, name in enumerate(lines[0].split(",")):
        back = np.full(len(t), np.nan) if cols[name] is None else cols[name]
        expect(np.array_equal(back, num[:, j], equal_nan=True),
               f"evolve: column {name} does not round-trip")


def _physical(m: np.ndarray, what: str) -> None:
    expect(float(np.abs(m - m.conj().T).max()) <= 1e-12, f"{what}: not Hermitian")
    expect(abs(float(np.trace(m).real) - 1.0) <= 1e-9, f"{what}: trace != 1")
    expect(float(np.linalg.eigvalsh(m)[0]) >= -EPS_PSD, f"{what}: not positive")


def check_propagate(op: dict, m: np.ndarray) -> None:
    spec = op["spec"]
    _physical(m, "propagate")
    a, b, c, d, w, z = closed_form(spec["channel"], x_of_dense(parse_dense(spec["state"])),
                                   spec["t"])
    ref = np.array([a, b, c, d, w, z], dtype=complex)
    got = np.array([m[0, 0], m[1, 1], m[2, 2], m[3, 3], m[0, 3], m[1, 2]])
    expect(float(np.abs(got - ref).max()) <= 1e-6, "propagate: X part differs from the closed form")


def check_asymptote(op: dict, m: np.ndarray) -> None:
    spec = op["spec"]
    _physical(m, "asymptote")
    ch, m0 = spec["channel"], parse_dense(spec["state"])
    if ch["kind"] == "decay":
        q = ch["params"][2] / (2.0 * ch["params"][2] + 1.0)
        single = np.diag([q, 1.0 - q])
        ref = np.kron(single, single).astype(complex)
    else:  # populations frozen; collective dephasing also keeps z
        ref = np.diag(np.diag(m0)).astype(complex)
        if ch["kind"] == "collective":
            ref[1, 2], ref[2, 1] = m0[1, 2], m0[2, 1]
    expect(float(np.abs(m - ref).max()) <= 1e-8, "asymptote: limit differs from the exact one")


# --- classification -------------------------------------------------------------

def _reference_label(literal: str) -> str | None:
    """interior / boundary / entangled, or None inside the decision band."""
    if literal.startswith("x:"):
        x = parse_x(literal)
        a, b, c, d = x["a"], x["b"], x["c"], x["d"]
        w, z = complex(x["w_re"], x["w_im"]), complex(x["z_re"], x["z_im"])
        if x_entangled(XState(a, b, c, d, w, z)).entangled:
            return "entangled"
        pt = min(pt_blocks(a, b, c, d, w, z))
        rank = min(0.5 * (a + d) - math.hypot(0.5 * (a - d), abs(w)),
                   0.5 * (b + c) - math.hypot(0.5 * (b - c), abs(z)))
        return "interior" if pt > EPS_ENT and rank > EPS_ENT else "boundary"
    # |det| bounds the smallest eigenvalue in magnitude, since every other
    # eigenvalue of a state or of its partial transpose lies in [-1/2, 1]
    m = parse_dense(literal)
    m = 0.5 * (m + m.conj().T)
    det_pt = float(np.linalg.det(partial_transpose(m)).real)
    det = float(np.linalg.det(m).real)
    if det_pt < -1e-8:
        return "entangled"
    if det_pt > 1e-8 and det > 1e-8:
        return "interior"
    return None


def check_classify(op: dict, text: str) -> None:
    spec = op["spec"]
    label = json.loads(text)
    evidence = label["evidence"]
    expect(scenario_to_json(scenario_from_json(text)) == text, "classify: JSON does not round-trip")
    ch = spec["channel"]
    if ch is not None:
        expected = SCENARIO_TABLE[(ch["kind"], ch["kind"] == "decay" and ch["params"][2] > 0.0)]
        expect((label["family"], label["case"]) == expected,
               f"classify: {label['family']}/{label['case']}, table gives {'/'.join(expected)}")
        expect(len(evidence) >= (1 if expected[0] == "one" else spec["samples"]),
               "classify: too few members")
        literals = [ev["state"] for ev in evidence]
    else:
        literals = spec["members"]
        expect(len(evidence) == len(literals), "classify: member count")
        expect(label["family"] == ("one" if len(literals) == 1 else "multi"), "classify: family")
    for i, (literal, ev) in enumerate(zip(literals, evidence), start=1):
        ref = _reference_label(literal)
        if ref is not None:
            expect(ev["label"] == ref, f"classify: member {i} is {ev['label']}, reference {ref}")
    if ch is None:
        seen = {ev["label"] for ev in evidence}
        if "entangled" in seen and seen - {"entangled"}:
            case = "iv"
        elif "entangled" in seen:
            case = "iii"
        else:
            case = "ii" if "boundary" in seen else "i"
        expect(label["case"] == case, f"classify: case {label['case']}, members give {case}")


_CHECKS = {
    "sweep": check_sweep, "death-time": check_death_time, "evolve": check_evolve,
    "classify": check_classify, "propagate": check_propagate, "asymptote": check_asymptote,
}


def check(op: dict, output) -> str | None:
    """Reason the op's output is wrong, or None."""
    try:
        _CHECKS[op["kind"]](op, output)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{op['kind']}: unreadable output ({type(exc).__name__}: {exc})"
    return None
