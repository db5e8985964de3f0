"""Deterministic op lists for the three benchmark workloads.

``build(workload, seed, workdir)`` returns the fixed op list of one
workload and writes the input files its ops read (a custom jump list,
classification set files) under ``workdir``.  Everything comes from
``random.Random`` seeded with the workload name and seed, so one seed
always yields byte-identical ops and files, while another seed changes
only values: op kinds, op order, grid sizes, horizons in units of
1/rate, sample counts and set sizes are fixed per workload.  The program
sees only the generated literals and files.

An op is a JSON-serializable dict: ``id``, ``kind`` (``sweep``,
``death-time``, ``evolve``, ``classify``, ``propagate``, ``asymptote``),
``argv`` for CLI ops or ``call`` for direct library calls, and ``spec``,
the structured inputs the output checks compare against.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("xstate_scan", "dense_numeric", "classify")


# --- literals ---------------------------------------------------------------

def x_literal(x: dict) -> str:
    fields = (x["a"], x["b"], x["c"], x["d"], x["w_re"], x["w_im"], x["z_re"], x["z_im"])
    return "x:" + ",".join(repr(float(v)) for v in fields)


def dense_literal(matrix) -> str:
    return "dense:" + ",".join(
        f"{float(v.real)!r}:{float(v.imag)!r}" for row in matrix for v in row
    )


def channel(kind: str, params: list[float]) -> dict:
    """Catalog channel spec: its literal plus the values checks need."""
    body = ",".join(repr(float(p)) for p in params)
    return {"kind": kind, "params": [float(p) for p in params], "literal": f"{kind}:{body}"}


def max_rate(ch: dict) -> float:
    """Largest jump rate, computed exactly as the program's catalog defines it."""
    p = ch["params"]
    if ch["kind"] in ("decay", "custom"):
        return max(p[0], p[1]) * (p[2] + 1.0)
    if ch["kind"] == "dephase":
        return max(p[0] / 2.0, p[1] / 2.0)
    return p[0]


def typed_horizon(units: float, rate: float) -> float:
    """``units / rate`` as a user types a horizon: cut to five decimals.

    The program steps at dt = 1e-3/rate, so the exact quotient puts the
    horizon on a multiple of dt, the rounding edge of the step count
    (esdbench/BASELINE.md, *Known defect*).  Cutting, not rounding, keeps the
    step count at ``1000 * units``: the cut is under 1e-5, below 0.15 of a
    step at every rate and horizon the workloads use.
    """
    return math.floor(units / rate * 1e5) / 1e5


# --- seeded inputs ----------------------------------------------------------

def _rates(rng: random.Random, n: int) -> list[float]:
    return [round(rng.uniform(0.5, 2.0), 6) for _ in range(n)]


def _catalog(rng: random.Random) -> dict[str, dict]:
    """One channel of each catalog kind; ``decay0`` is at zero temperature."""
    ga, gb, gc, gd, ka, kb, kc = _rates(rng, 7)
    nbar = round(rng.uniform(0.1, 0.5), 6)
    return {
        "decay0": channel("decay", [ga, gb, 0.0]),
        "decayT": channel("decay", [gc, gd, nbar]),
        "dephase": channel("dephase", [ka, kb]),
        "collective": channel("collective", [kc]),
    }


def _simplex(rng: random.Random) -> list[float]:
    g = [rng.gammavariate(1.0, 1.0) for _ in range(4)]
    total = sum(g)
    return [v / total for v in g]


def random_x(rng: random.Random) -> dict:
    """X state with uniform populations and coherences inside their disks."""
    a, b, c, d = _simplex(rng)
    rw, rz = rng.random(), rng.random()
    pw, pz = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
    w = rw * math.sqrt(a * d)
    z = rz * math.sqrt(b * c)
    return {"a": a, "b": b, "c": c, "d": d,
            "w_re": w * math.cos(pw), "w_im": w * math.sin(pw),
            "z_re": z * math.cos(pz), "z_im": z * math.sin(pz)}


def _block_base(rng: random.Random, outer: bool) -> dict:
    """Base state whose large populations sit in the outer (a, d) or inner
    (b, c) block, with both coherences zero; grids then set one coherence.
    The small pair's product is a quarter of the large pair's, so a grid
    scaled to the large pair cuts the entangled region, and with it the
    share of rows that need bisection, in the same proportion for every
    seed."""
    big1, big2 = rng.uniform(0.25, 0.3), rng.uniform(0.25, 0.3)
    half = (1.0 - big1 - big2) / 2.0
    gap = math.sqrt(half * half - 0.25 * big1 * big2)
    small1, small2 = half + gap, half - gap
    if outer:
        a, b, c, d = big1, small1, small2, big2
    else:
        a, b, c, d = small1, big1, big2, small2
    return {"a": a, "b": b, "c": c, "d": d, "w_re": 0.0, "w_im": 0.0, "z_re": 0.0, "z_im": 0.0}


def random_dense(rng: random.Random) -> list[list[complex]]:
    """Hilbert-Schmidt random state G G^dag / tr(G G^dag); never of X form."""
    g = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
         for _ in range(4)]
    m = [[sum(g[i][k] * g[j][k].conjugate() for k in range(4)) for j in range(4)]
         for i in range(4)]
    trace = sum(m[i][i].real for i in range(4))
    return [[m[i][j] / trace for j in range(4)] for i in range(4)]


def pure_x(a: float) -> dict:
    """sqrt(a)|ee> + sqrt(1-a)|gg>, the pure family of the sweep command."""
    return {"a": a, "b": 0.0, "c": 0.0, "d": 1.0 - a,
            "w_re": math.sqrt(a * (1.0 - a)), "w_im": 0.0, "z_re": 0.0, "z_im": 0.0}


# --- workloads ----------------------------------------------------------------

def _sweep(ch: dict, grids: list, base: dict | None) -> dict:
    argv = ["sweep", "--channel", ch["literal"], "--jobs", "1"]
    if base is None:
        argv += ["--family", "pure"]
    else:
        argv += ["--state", x_literal(base)]
    for name, lo, hi, n in grids:
        argv += ["--grid", f"{name}={lo!r}:{hi!r}:{n}"]
    return {"kind": "sweep", "argv": argv,
            "spec": {"channel": ch, "base": base, "grids": [list(g) for g in grids]}}


def _xstate_scan(rng: random.Random, workdir: Path) -> list[dict]:
    cat = _catalog(rng)
    # the pure-family law t* = -ln(1 - sqrt((1-a)/a))/gamma needs equal rates
    gamma = cat["decay0"]["params"][0]
    decay_eq = channel("decay", [gamma, gamma, 0.0])
    kinds = ("decay0", "decayT", "dephase", "collective")
    sweeps = []
    for ch, sizes in ((decay_eq, (19, 29, 39, 49)), (cat["decayT"], (19, 29, 39, 49)),
                      (cat["dephase"], (19, 49)), (cat["collective"], (19, 49))):
        for n in sizes:
            lo, hi = rng.uniform(0.02, 0.1), rng.uniform(0.9, 0.98)
            sweeps.append(_sweep(ch, [("a", lo, hi, n)], None))
    for kind in kinds:
        base = _block_base(rng, outer=True)
        r = 0.999 * math.sqrt(base["a"] * base["d"] / 2.0)
        sweeps.append(_sweep(cat[kind], [("w_re", -r, r, 10), ("w_im", -r, r, 10)], base))
    for n in (21, 25, 31, 41):
        base = _block_base(rng, outer=False)
        r = 0.999 * math.sqrt(base["b"] * base["c"])
        sweeps.append(_sweep(cat["collective"], [("z_re", -r, r, n)], base))
    base = _block_base(rng, outer=True)
    r = 0.999 * math.sqrt(base["a"] * base["d"] / 2.0)
    big = _sweep(cat["decay0"], [("w_re", -r, r, 40), ("w_im", -r, r, 40)], base)

    singles = []
    for i in range(47):
        ch = decay_eq if i % 5 == 4 else cat[kinds[i % 4]]
        x = pure_x(rng.uniform(0.05, 0.95)) if i % 5 == 4 else random_x(rng)
        singles.append({"kind": "death-time",
                        "argv": ["death-time", "--channel", ch["literal"], "--state", x_literal(x)],
                        "spec": {"channel": ch, "state": x}})
        ch = cat[kinds[(i + 1) % 4]]
        x = random_x(rng)
        # 2000 or 4000 steps of dt = 1e-3/rate keep 2001 CSV rows
        horizon = typed_horizon(2.0 if i % 2 == 0 else 4.0, max_rate(ch))
        singles.append({"kind": "evolve",
                        "argv": ["evolve", "--channel", ch["literal"], "--state", x_literal(x),
                                 "--horizon", repr(horizon)],
                        "spec": {"channel": ch, "state": x, "horizon": horizon}})
    # batch grids sit between single-state calls; the 40x40 grid lands mid-list
    ops = []
    per_gap = len(singles) // (len(sweeps) + 1)
    for j, sweep in enumerate(sweeps):
        ops += singles[j * per_gap:(j + 1) * per_gap]
        ops.append(sweep)
        if j == len(sweeps) // 2:
            ops.append(big)
    ops += singles[len(sweeps) * per_gap:]
    return ops


def _custom_equivalent(rng: random.Random, workdir: Path) -> dict:
    """Jump list file equal to thermal decay, so the closed form checks it."""
    ga, gb = _rates(rng, 2)
    nbar = round(rng.uniform(0.1, 0.5), 6)
    lower = [[0, 0], [1, 0]]
    raise_ = [[0, 1], [0, 0]]
    eye = [[1, 0], [0, 1]]

    def kron(p, q):
        return [[p[i // 2][j // 2] * q[i % 2][j % 2] for j in range(4)] for i in range(4)]

    jumps = [(kron(lower, eye), ga * (nbar + 1.0)), (kron(eye, lower), gb * (nbar + 1.0)),
             (kron(raise_, eye), ga * nbar), (kron(eye, raise_), gb * nbar)]
    path = workdir / "custom_decay.json"
    payload = {"jumps": [{"matrix": dense_literal([[complex(v) for v in row] for row in op]),
                          "rate": rate} for op, rate in jumps]}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return {"kind": "custom", "params": [ga, gb, nbar], "literal": f"custom:{path.as_posix()}"}


def _dense_numeric(rng: random.Random, workdir: Path) -> list[dict]:
    cat = _catalog(rng)
    cat["custom"] = _custom_equivalent(rng, workdir)
    kinds = ("decay0", "decayT", "dephase", "collective", "custom")
    evolves = []
    for i in range(20):
        ch = cat[kinds[i % 5]]
        horizon = typed_horizon(float(1 + (i + i // 5) % 5), max_rate(ch))
        lit = dense_literal(random_dense(rng))
        evolves.append({"kind": "evolve",
                        "argv": ["evolve", "--channel", ch["literal"], "--state", lit,
                                 "--horizon", repr(horizon)],
                        "spec": {"channel": ch, "state": lit, "horizon": horizon}})
    props = []
    for i in range(80):
        ch = cat[kinds[i % 5]]
        t = (0.1, 0.2, 0.5, 1.0)[(i + i // 5) % 4] / max_rate(ch)
        lit = dense_literal(random_dense(rng))
        props.append({"kind": "propagate",
                      "call": {"fn": "propagate_numeric", "state": lit,
                               "channel": ch["literal"], "t": t},
                      "spec": {"channel": ch, "state": lit, "t": t}})
    # equal per-qubit rates and a low temperature fix the number of horizon
    # doublings (set by the slowest relaxation rate over the largest jump
    # rate), so these calls cost the same for every seed
    g, k, kc = _rates(rng, 3)
    asyms = []
    for ch in (channel("decay", [g, g, round(rng.uniform(0.04, 0.06), 6)]),
               channel("dephase", [k, k]), channel("collective", [kc])):
        lit = dense_literal(random_dense(rng))
        asyms.append({"kind": "asymptote",
                      "call": {"fn": "estimate_asymptote", "state": lit, "channel": ch["literal"]},
                      "spec": {"channel": ch, "state": lit}})
    ops = []
    for j in range(20):
        ops += props[4 * j:4 * j + 4]
        ops.append(evolves[j])
        if j % 7 == 3:
            ops.append(asyms[j // 7])
    return ops


# --samples per op; 0..10,000 for the sampled families, ignored by single points
_SAMPLES = {
    "decay0": (0, 5, 100, 1000, 10000, 0, 1, 50, 500, 3000, 20, 200),
    "decayT": (0, 5, 100, 1000, 10000, 0, 1, 50, 500, 3000, 20, 200),
    "dephase": (0, 1, 3, 10, 30, 100, 300, 1000, 3000, 0, 10, 100),
    "collective": (0, 1, 3, 10, 30, 100, 300, 1000, 10000, 0, 10, 100),
}
SET_SIZES = tuple(max(1, round(1000 ** (i / 59))) for i in range(60))


def _classify(rng: random.Random, workdir: Path) -> list[dict]:
    cat = _catalog(rng)
    kinds = ("decay0", "decayT", "dephase", "collective")
    channel_ops = []
    for i in range(48):
        kind = kinds[i % 4]
        samples = _SAMPLES[kind][i // 4]
        seed = rng.randrange(10 ** 6)
        channel_ops.append({
            "kind": "classify",
            "argv": ["classify", "--channel", cat[kind]["literal"],
                     "--samples", str(samples), "--seed", str(seed)],
            "spec": {"channel": cat[kind], "samples": samples},
        })
    set_ops = []
    for i, size in enumerate(SET_SIZES):
        members = [dense_literal(random_dense(rng)) if j % 3 == 2 else x_literal(random_x(rng))
                   for j in range(size)]
        path = workdir / f"set_{i:02d}.json"
        path.write_text(json.dumps({"states": members}, indent=1) + "\n")
        set_ops.append({"kind": "classify",
                        "argv": ["classify", "--set-file", path.as_posix()],
                        "spec": {"channel": None, "members": members}})
    ops = []
    for j in range(12):
        ops += channel_ops[4 * j:4 * j + 4]
        ops += set_ops[5 * j:5 * j + 5]
    return ops


_BUILDERS = {"xstate_scan": _xstate_scan, "dense_numeric": _dense_numeric, "classify": _classify}


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's input files under ``workdir`` and return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, workdir)
    for i, op in enumerate(ops):
        op["id"] = f"{workload}/{i:03d}-{op['kind']}"
    return ops


def signature(ops: list[dict]) -> list[tuple]:
    """What a seed must not change: each op's kind and size."""
    out = []
    for op in ops:
        spec = op["spec"]
        size = (tuple(g[3] for g in spec.get("grids", ())), spec.get("samples"),
                len(spec.get("members") or ()), spec.get("channel") and spec["channel"]["kind"])
        if "horizon" in spec:
            size += (round(spec["horizon"] * max_rate(spec["channel"]), 3),)
        if "t" in spec:
            size += (round(spec["t"] * max_rate(spec["channel"]), 9),)
        out.append((op["kind"],) + size)
    return out
