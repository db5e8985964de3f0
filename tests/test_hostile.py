"""Seeded hostile-input sweep over every entry path.

Valid inputs of each entry path are mutated one field at a time: ``--state``,
``--channel`` (``custom:`` files too), ``--set-file``, ``--config``, the
numeric flags (each as ``--flag=value`` and as ``--flag value``), and the
readers ``death_report_from_json``, ``scenario_from_json`` and
``parse_trajectory_csv``.  A number becomes NaN, +-inf, +-1e308, 5e-324 or
-0.0; in a JSON document a value also becomes a boolean, a null, a list or
an object, and fields go missing or are added.

A CLI run that fails must exit 2 or 3 with one ``error:`` line on stderr,
no traceback and no RuntimeWarning; one that exits 0 must pass an invariant
checked against ``_oracles``.  A reader must return a value that round-trips
or raise :class:`ParseError`.  The CLI runs in process, so the whole sweep
takes a few seconds; the corpus also runs as subprocesses under ``python -O``.
"""

import ast
import concurrent.futures
import contextlib
import io
import json
import math
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import esdkit
from esdkit import (
    CollectiveDephasing,
    DEFAULT_TOL,
    ExplicitSamples,
    IndependentDecay,
    IndependentDephasing,
    SinglePoint,
    ToleranceConfig,
    XFamily,
    XState,
    asymptotic_set,
    bell,
    classify_channel,
    cli,
    death_report_from_json,
    death_report_to_json,
    death_time,
    eigenvalues_hermitian,
    embed_x,
    format_channel_literal,
    make_x,
    max_rate,
    parse_channel_literal,
    parse_state_literal,
    parse_trajectory_csv,
    project_x,
    propagate_numeric,
    propagate_x_closed,
    random_density,
    reduce_qubit,
    scenario_from_json,
    scenario_to_json,
    set_contains,
    simulate,
    trajectory_to_csv,
    x_closed_curves,
)
from esdkit.errors import ParseError, ValidationError

from _cli import cli_env
from _oracles import classify_set_scalar, death_time_scalar, pt_entrywise

SEED = 24  # picks the mutated entries of the long literals and documents
TEXT_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-0.0")
JSON_VALUES = (math.nan, math.inf, -math.inf, 1e308, 5e-324, -0.0, True, False, None, [0.5], {})

X_STATE = "x:0.4,0.1,0.1,0.4,0.3,0,0.05,0"  # negativity 0.2 at t = 0
DENSE_STATE = ("dense:0.4:0,0.05:0,0:0,0.2:0,0.05:0,0.1:0,0.05:0,0:0,"
               "0:0,0.05:0,0.1:0,0:0,0.2:0,0:0,0:0,0.4:0")  # not of X form
MIXED_X = "x:0.25,0.25,0.25,0.25,0,0,0,0"
CHANNELS = ("decay:1,0.7,0.3", "decay:1,0.7,0", "dephase:1,0.5", "dephase:1,0", "collective:0.8")
HORIZON, SAMPLES, GRID = "0.5", "4", "a=0.3:0.5:2"


def mutations(text: str, prefix: str, picks: int | None = None):
    """``text`` with one comma/colon-separated field after ``prefix`` replaced
    by each of TEXT_VALUES, ``picks`` fields chosen with SEED or all; then
    ``text`` with its last field missing and with an extra field."""
    fields = re.split(r"([,:])", text[len(prefix):])
    numbers = range(0, len(fields), 2)
    if picks is not None:
        numbers = random.Random(SEED).sample(list(numbers), picks)
    for k in numbers:
        for value in TEXT_VALUES:
            yield prefix + "".join(fields[:k] + [value] + fields[k + 1:])
    yield prefix + "".join(fields[:-2])
    yield text + (fields[-2] if len(fields) > 1 else ",") + "0"


def json_mutations(doc):
    """The whole document replaced by each of JSON_VALUES or wrapped in a list;
    then, at every position of its tree, the value there replaced by each of
    JSON_VALUES, wrapped in a list or dropped; then an extra key."""
    def positions(node, path):
        items = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            yield path + (key,)
            yield from positions(child, path + (key,))

    def edited(path, edit):
        copy = json.loads(json.dumps(doc))
        parent = copy
        for key in path[:-1]:
            parent = parent[key]
        edit(parent, path[-1])
        return copy

    yield from JSON_VALUES + ([doc],)
    for path in positions(doc, ()):
        for value in JSON_VALUES:
            yield edited(path, lambda parent, key: parent.__setitem__(key, value))
        yield edited(path, lambda parent, key: parent.__setitem__(key, [parent[key]]))
        yield edited(path, lambda parent, key: parent.pop(key))
    yield {**doc, "extra": 1}


def run(argv):
    """``cli.main(argv)`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # argparse refuses through main too, never by SystemExit
    assert not caught, (argv, [str(w.message) for w in caught])
    return code, out.getvalue(), err.getvalue()


def check(argv, invariant):
    """A clean failure, or exit 0 with ``invariant(stdout)`` holding."""
    code, out, err = run(argv)
    if code == 0:
        assert err == "", (argv, err)
        try:
            invariant(out)
        except AssertionError as exc:
            raise AssertionError(f"{argv}: {exc}") from None
    else:
        assert code in (2, 3), (argv, code, err)
        assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), (argv, out, err)
    return code


def read(reader, text, roundtrip):
    """``reader(text)`` raises ParseError, or returns what ``roundtrip`` accepts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = reader(text)
        except ParseError:
            value = None
    assert not caught, (text, [str(w.message) for w in caught])
    if value is not None:
        roundtrip(value)


# --- oracle invariants for a run that exits 0 --------------------------------

def flag(argv, name, default=None):
    """The value of flag ``name`` in ``argv``, as ``name value`` or ``name=value``."""
    for k, arg in enumerate(argv):
        if arg == name:
            return argv[k + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return default


def evolve_ok(argv):
    def invariant(out):
        cols = parse_trajectory_csv(out)
        t = cols["t"]
        assert t[0] == 0.0 and np.all(np.diff(t) > 0.0) and t[-1] <= float(flag(argv, "--horizon"))
        state = parse_state_literal(flag(argv, "--state"))
        m = (embed_x(state) if isinstance(state, XState) else state).matrix
        want = -np.minimum(np.linalg.eigvalsh(pt_entrywise(m)), 0.0).sum()
        assert abs(cols["negativity"][0] - want) <= 1e-9, (cols["negativity"][0], want)
    return invariant


def x_of(text):
    state = parse_state_literal(text)
    return state if isinstance(state, XState) else project_x(state)


def horizon_of(argv, channel):
    return float(flag(argv, "--horizon", 50.0 / max_rate(channel)))


def death_time_ok(argv):
    def invariant(out):
        tol = ToleranceConfig(eps_death=float(flag(argv, "--eps-death", "1e-10")))
        channel = parse_channel_literal(flag(argv, "--channel"))
        want = death_time_scalar(x_of(flag(argv, "--state")), channel,
                                 horizon_of(argv, channel), tol)
        assert death_report_from_json(out) == want
    return invariant


def classify_ok(argv):
    def invariant(out):
        if "--set-file" in argv:
            with open(flag(argv, "--set-file")) as handle:
                members = [parse_state_literal(str(s)) for s in json.load(handle)["states"]]
            aset = ExplicitSamples(tuple(embed_x(s) if isinstance(s, XState) else s
                                         for s in members))
        else:
            aset = asymptotic_set(parse_channel_literal(flag(argv, "--channel")))
        family, case, rows = classify_set_scalar(
            aset, DEFAULT_TOL, int(flag(argv, "--samples", "100")), int(flag(argv, "--seed", "0")))
        payload = json.loads(out)
        assert (payload["family"], payload["case"]) == (family, case)
        assert [(e["state"], e["label"]) for e in payload["evidence"]] == [r[:2] for r in rows]
    return invariant


def sweep_ok(argv):
    def invariant(out):
        name, bounds = flag(argv, "--grid").split("=")
        start, stop, count = bounds.split(":")
        base = x_of(flag(argv, "--state"))
        channel = parse_channel_literal(flag(argv, "--channel"))
        lines = out.splitlines()
        assert lines[0] == f"{name},verdict,t_star,crossings"
        values = np.linspace(float(start), float(stop), int(count)).tolist()
        assert len(lines) == len(values) + 1
        for line, value in zip(lines[1:], values):
            x0 = make_x(value, base.b, base.c, base.d, base.w, base.z)
            want = death_time_scalar(x0, channel, horizon_of(argv, channel), DEFAULT_TOL)
            t_cell = "" if want.t_star is None else repr(want.t_star)
            assert line == f"{value!r},{want.verdict},{t_cell},{want.crossings}"
    return invariant


def evolve(channel, state, *extra):
    return ["evolve", "--channel", channel, "--state", state, "--horizon", HORIZON, *extra]


def death(channel, state, *extra):
    return ["death-time", "--channel", channel, "--state", state, "--horizon", HORIZON, *extra]


def classify(channel, *extra):
    return ["classify", "--channel", channel, "--samples", SAMPLES, *extra]


def sweep(channel, state, *extra):
    return ["sweep", "--channel", channel, "--state", state, "--horizon", HORIZON,
            "--grid", GRID, *extra]


INVARIANTS = {"evolve": evolve_ok, "death-time": death_time_ok, "classify": classify_ok,
              "sweep": sweep_ok}


def check_all(runs):
    """``check`` each argv of ``runs`` against its command's invariant; both
    outcomes must occur, or the mutations miss what they aim at."""
    codes = [check(argv, INVARIANTS[argv[0]](argv)) for argv in runs]
    assert 0 < codes.count(0) < len(codes), codes


# --- the sweep ----------------------------------------------------------------

def test_state_literals(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = []
    for state in mutations(X_STATE, "x:"):
        runs += [evolve("decay:1,0.7,0.3", state), death("dephase:1,0.5", state),
                 sweep("collective:0.8", state)]
    for state in mutations(DENSE_STATE, "dense:", picks=6):
        runs += [evolve("decay:1,0.7,0.3", state), death("collective:0.8", state)]
    check_all(runs)


def test_channel_literals(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = []
    for base in CHANNELS:
        for channel in mutations(base, base[:base.index(":") + 1]):
            runs += [evolve(channel, X_STATE), evolve(channel, DENSE_STATE),
                     death(channel, X_STATE), classify(channel), sweep(channel, X_STATE)]
    check_all(runs)


def spaced(argv):
    """``argv`` with each ``--flag=value`` split into ``--flag value``."""
    return [part for arg in argv
            for part in (arg.split("=", 1) if arg.startswith("--") else [arg])]


def test_numeric_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # each as --flag=value and as --flag value: both read one way, also for "-inf"
    values = TEXT_VALUES + ("1e-300", "0", "-1", "true", "[1]", "1.5", str(10 ** 20))
    runs = []
    for value in values:
        runs += [
            ["evolve", "--channel", "decay:1,0.7,0.3", "--state", DENSE_STATE,
             f"--horizon={value}"],
            evolve("dephase:1,0.5", DENSE_STATE, f"--dt={value}"),
            death("decay:1,0.7,0", X_STATE, f"--eps-death={value}"),
            ["death-time", "--channel", "decay:1,0.7,0", "--state", X_STATE, f"--horizon={value}"],
            classify("collective:0.8", f"--seed={value}"),
            ["classify", "--channel", "decay:1,0.7,0.3", f"--samples={value}"],
            classify("collective:0.8", f"--jobs={value}"),
        ]
    for grid in mutations(GRID, "a="):
        runs.append(sweep("decay:1,0.7,0", X_STATE)[:-2] + [f"--grid={grid}"])
    for argv in runs:
        assert run(spaced(argv)) == run(argv), argv
    check_all(runs)


def dense_text(matrix) -> str:
    return "dense:" + ",".join(f"{v.real!r}:{v.imag!r}" for v in np.ravel(matrix).tolist())


LOWER_A = np.kron([[0.0, 0.0], [1.0, 0.0]], np.eye(2)).astype(complex)
PHASE_B = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
CUSTOM = {"jumps": [{"matrix": dense_text(LOWER_A), "rate": 0.7},
                    {"matrix": dense_text(PHASE_B), "rate": 0.4}]}


def written(path, docs, argv):
    """``argv`` once per document, each written to ``path`` just before its run."""
    for doc in docs:
        path.write_text(json.dumps(doc))
        yield argv


def test_custom_channel_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    docs = list(json_mutations(CUSTOM))
    for entry in range(2):
        for matrix in mutations(CUSTOM["jumps"][entry]["matrix"], "dense:", picks=3):
            doc = json.loads(json.dumps(CUSTOM))
            doc["jumps"][entry]["matrix"] = matrix
            docs.append(doc)
    path = tmp_path / "channel.json"
    check_all(written(path, docs, evolve(f"custom:{path}", X_STATE)))


def test_set_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    members = [X_STATE, DENSE_STATE, MIXED_X]
    docs = list(json_mutations({"states": members}))
    for k, prefix in enumerate(("x:", "dense:", "x:")):
        for literal in mutations(members[k], prefix, picks=3):
            docs.append({"states": members[:k] + [literal] + members[k + 1:]})
    path = tmp_path / "set.json"
    check_all(written(path, docs, ["classify", "--set-file", str(path)]))


def as_flags(command, doc):
    """The flags that give ``command`` the values of config document ``doc``."""
    argv = [command]
    for key, value in doc.items():
        if value is not None:
            value = value[0] if key == "grid" and isinstance(value, list) and value else value
            argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


def test_config_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = {"channel": "decay:1,0.7,0.3", "state": X_STATE, "horizon": 0.5, "dt": 0.01,
            "eps_death": 1e-10, "seed": 3, "samples": 4, "jobs": 1, "grid": GRID}
    path = tmp_path / "config.json"
    codes = []
    for doc in json_mutations(base):
        path.write_text(json.dumps(doc))
        for command in INVARIANTS:
            invariant = INVARIANTS[command](as_flags(command, doc)) if isinstance(doc, dict) \
                else None
            codes.append(check([command, "--config", str(path)], invariant))
    assert 0 < codes.count(0) < len(codes)


def test_death_report_reader():
    base = json.loads(death_report_to_json(death_time(x_of(X_STATE),
                                                      IndependentDecay(1.0, 0.7), 2.0)))
    def roundtrip(report):
        assert death_report_from_json(death_report_to_json(report)) == report

    for doc in json_mutations(base):
        read(death_report_from_json, json.dumps(doc), roundtrip)


def test_scenario_reader():
    base = json.loads(scenario_to_json(classify_channel(CollectiveDephasing(0.8), n_samples=1)))
    base["evidence"] = base["evidence"][:2]

    def roundtrip(label):
        again = scenario_from_json(scenario_to_json(label))
        assert (again.family, again.case) == (label.family, label.case)
        assert list(again.evidence) == list(label.evidence)

    for doc in json_mutations(base):
        read(scenario_from_json, json.dumps(doc), roundtrip)


def test_trajectory_csv_reader():
    for state in (X_STATE, DENSE_STATE):
        text = trajectory_to_csv(simulate(parse_state_literal(state),
                                          IndependentDecay(1.0, 0.7), 0.004))
        lines = text.splitlines()
        variants = [text.replace("t,", "time,", 1), "\n".join(lines[:1]) + "\n"]
        for row in (1, len(lines) - 1):
            cells = lines[row].split(",")
            for col in range(len(cells)):
                for value in TEXT_VALUES + ("true", "null", "", "[1]"):
                    changed = cells[:col] + [value] + cells[col + 1:]
                    variants.append("\n".join(lines[:row] + [",".join(changed)]
                                              + lines[row + 1:]) + "\n")
            variants.append("\n".join(lines[:row] + [lines[row] + ",0"] + lines[row + 1:]))
            variants.append("\n".join(lines[:row] + [lines[row].rsplit(",", 1)[0]]
                                      + lines[row + 1:]))

        def roundtrip(cols):
            present = [v for v in cols.values() if v is not None]
            assert len({len(v) for v in present}) == 1
            assert all(np.isfinite(v).all() for v in present)

        for variant in variants:
            read(parse_trajectory_csv, variant, roundtrip)


# --- the corpus: crashes found by hand, each pinned ---------------------------

def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# refusals of one error line each, exit 2: spaced values that start with "-",
# default time scales that overflow for a subnormal rate, and the family check
ONE_LINE = [
    (["evolve", "--channel", "collective:1", "--horizon", "-inf", "--state", X_STATE],
     "error: invalid --horizon: must be positive and finite, got -inf\n"),
    (["evolve", "--channel", "collective:1", "--horizon", "-1e308", "--state", X_STATE],
     "error: invalid --horizon: must be positive and finite, got -1e+308\n"),
    (["death-time", "--channel", "collective:5e-324", "--state", X_STATE],
     "error: invalid --horizon: the default horizon = 50.0 / 5e-324 (the largest jump rate) "
     "overflows; pass horizon\n"),
    (["sweep", "--channel", "collective:5e-324", "--family", "pure", "--grid", "a=0.6:0.8:2"],
     "error: invalid --horizon: the default horizon = 50.0 / 5e-324 (the largest jump rate) "
     "overflows; pass horizon\n"),
    (["evolve", "--channel", "collective:5e-324", "--horizon", "1", "--state", X_STATE],
     "error: invalid --dt: the default dt = 0.001 / 5e-324 (the largest jump rate) "
     "overflows; pass dt\n"),
    (["sweep", "--channel", "decay:1,1,0", "--family", "y", "--grid", "a=0.6:0.8:2"],
     "error: invalid --family: expected 'x' or 'pure', got 'y'\n"),
]


# flags cut short, refused by argparse with one error line and exit 2: once
# "--hor 1" was read as "--horizon 1", and then both ended in usage text
ABBREVIATED = [
    (["evolve", "--channel", "collective:1", "--hor", "-inf", "--state", X_STATE],
     "error: unrecognized arguments: --hor -inf\n"),
    (["evolve", "--channel", "collective:1", "--hor", "1", "--state", X_STATE],
     "error: unrecognized arguments: --hor 1\n"),
]


def corpus(tmp_path):
    """(argv, exit code) of inputs that once crashed or gave wrong answers."""
    huge = write(tmp_path, "huge.json", {"jumps": [{"matrix": "dense:" + ",".join(["1e200:0"] * 16),
                                                    "rate": 1}]})
    return [
        # an overflowing coherence
        (evolve("decay:1,1,0", "x:0.5,0,0,0.5,1e200,0,0,0"), 2),
        # an unwritable --out
        (classify("collective:1", "--out", str(tmp_path / "missing" / "x.json")), 2),
        # a negative --seed, and a sample count that ran until killed
        (classify("collective:1", "--seed", "-3"), 2),
        (["classify", "--channel", "collective:1", "--samples", str(10 ** 20)], 2),
        # NaN nbar, and derived rates that overflow
        (death("decay:1,1,nan", X_STATE), 2),
        (death("collective:1e308", X_STATE), 2),
        (death("decay:1e308,1e308,1e308", X_STATE), 2),
        (death("collective:1,1", X_STATE), 2),
        # rates whose jump rates kappa/2 all round to 0
        (death("dephase:5e-324,0", X_STATE), 2),
        # finite dense entries whose hermitization overflows
        (evolve("dephase:1,1", dense_text(np.diag([1e308, 1e308, 0.0, 0.0]))), 2),
        # a sweep grid point off unit trace
        (sweep("decay:1,1,0", "x:0.4,0.1,0.1,0.4,0.1,0,0,0")[:-2] + ["--grid", "a=0.5:0.6:2"], 2),
        *((argv, 2) for argv, _ in ONE_LINE),
        *((argv, 2) for argv, _ in ABBREVIATED),
        # about 1e23 steps, whose default sample spacing once rounded down:
        # a 2,002nd sample repeated the horizon and the run exited 3
        (["evolve", "--channel", "decay:1,1,0", "--horizon", "1e20", "--state", X_STATE], 0),
        # a death bracketed at the largest floats, whose midpoint once overflowed
        (["death-time", "--channel", "dephase:7e-309,7e-309", "--horizon", "1e300",
          "--state", "x:0.4,0.1,0.1,0.4,0.3,0,0,0"], 0),
        # a jump list whose generator overflows: no step could integrate it
        (["evolve", "--channel", f"custom:{huge}", "--state", "x:0.4,0.1,0.1,0.4,0.3,0,0,0",
          "--horizon", "1"], 2),
        # a catalog generator that overflows, though each derived rate is finite
        (["evolve", "--channel", "decay:1e308,1e308,0", "--state", DENSE_STATE,
          "--horizon", "1e-300"], 3),
        # ... whose closed forms still apply
        (["death-time", "--channel", "decay:1e308,1e308,0", "--state", X_STATE], 0),
    ]


def test_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, code in corpus(tmp_path):
        assert check(argv, INVARIANTS[argv[0]](argv)) == code, argv
    messages = [run(argv)[2] for argv, _ in corpus(tmp_path)[-3:-1]]
    assert messages == ["error: invalid --channel: jump operator 1 makes the generator overflow\n",
                        "error: the generator of decay:1e+308,1e+308,0.0 overflows; "
                        "only its closed forms apply\n"]
    assert run(death("dephase:5e-324,0", X_STATE))[2] == (
        "error: invalid --channel: at least one jump rate kappa/2 must be positive\n")
    for argv, message in ONE_LINE + ABBREVIATED:
        assert run(argv) == (2, "", message), argv


def test_corpus_library_calls():
    channel = IndependentDecay(1.0, 1.0)
    calls = [
        # NaN times
        lambda: x_closed_curves(make_x(0.5, 0, 0, 0.5), channel, [math.nan]),
        lambda: propagate_x_closed(make_x(0.5, 0, 0, 0.5), channel, math.nan),
        # an unvalidated trace-2 XState
        lambda: death_time(XState(1.0, 1.0, 0.0, 0.0, 0j, 0j), channel, 1.0),
        lambda: simulate(XState(1.0, 1.0, 0.0, 0.0, 0j, 0j), channel, 1.0),
        # JSON booleans read as numbers
        lambda: death_report_from_json('{"verdict": "finite", "t_star": true, "horizon": true,'
                                       ' "crossings": 1, "epsilon_death": 1e-10}'),
        # an empty cell outside the populations, once dropped from its column
        lambda: parse_trajectory_csv("t,negativity,min_pt_eig,min_eig,a,b,c,d,abs_w,abs_z\n"
                                     "0.0,,0.1,0.1,,,,,0.1,0.1\n"),
        # a default dt of 1e-3 / 5e-324, once inf
        lambda: simulate(make_x(0.5, 0, 0, 0.5), CollectiveDephasing(5e-324), 1.0, dt=None),
        lambda: propagate_numeric(embed_x(make_x(0.5, 0, 0, 0.5)), CollectiveDephasing(5e-324),
                                  1.0, dt=None),
        # catalog fields that are no real number, once a TypeError or a bool literal
        lambda: IndependentDecay("1", 1),
        lambda: IndependentDephasing(1j, 1),
        lambda: CollectiveDephasing(True),
        # a NaN atol, once making every state a member of an X family
        lambda: set_contains(XFamily(True, True), random_density(3), atol=math.nan),
        # a state that is no DensityMatrix, once an AttributeError when classified
        lambda: SinglePoint("x"),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError):
                call()
        assert not caught
    # a matrix that is not square, once numpy's broadcast, transpose or reduction errors
    for shape in ((2, 3), (3,), (2, 2, 2), (0, 0)):
        message = re.escape(f"expected a square matrix, got shape {shape}")
        with pytest.raises(ValidationError, match=message):
            eigenvalues_hermitian(np.zeros(shape))
    assert np.array_equal(eigenvalues_hermitian([[2.0]]), [2.0])
    # a 2x2 matrix, once an IndexError from a 4x4 trace
    for matrix in (np.eye(2) / 2, reduce_qubit(embed_x(bell("phi+")), "A").matrix):
        assert np.array_equal(eigenvalues_hermitian(matrix), [0.5, 0.5])
    # a literal from numpy fields, once "decay:np.float64(1.0),1,0.0"
    literal = format_channel_literal(IndependentDecay(np.float64(1.0), 1))
    assert parse_channel_literal(literal) == IndependentDecay(1.0, 1.0)


def test_corpus_under_python_O(tmp_path, monkeypatch):
    # -O strips assert statements, and a RuntimeWarning is an error: every
    # corpus entry still gives the bytes it gives in process
    monkeypatch.chdir(tmp_path)
    entries = corpus(tmp_path)

    def process(argv):
        return subprocess.run([sys.executable, "-O", "-W", "error::RuntimeWarning", "-m",
                               "esdkit", *argv], capture_output=True, text=True, env=cli_env())

    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        results = list(pool.map(process, [argv for argv, _ in entries]))
    for (argv, code), result in zip(entries, results):
        assert (result.returncode, result.stdout, result.stderr) == run(argv), argv
        assert result.returncode == code, (argv, result.stderr)


def test_package_has_no_assert_statements():
    # under python -O a check written as an assert would not run
    for path in sorted(Path(esdkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], path


CATALOG_NAMES = {"IndependentDecay", "IndependentDephasing", "CollectiveDephasing"}
SET_NAMES = {"SinglePoint", "XFamily", "ExplicitSamples"}


def package_trees_but_channels():
    """(path, AST) of every module of the package but channels.py."""
    for path in sorted(Path(esdkit.__file__).parent.glob("*.py")):
        if path.name != "channels.py":
            yield path, ast.parse(path.read_text(), str(path))


def isinstance_names(tree) -> set:
    """Every name or attribute in the class arguments of the tree's isinstance calls."""
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "isinstance"
            for arg in node.args[1:] for name in
            {sub.id for sub in ast.walk(arg) if isinstance(sub, ast.Name)}
            | {sub.attr for sub in ast.walk(arg) if isinstance(sub, ast.Attribute)}}


def test_only_channels_knows_the_catalog_classes():
    # what differs between catalog channels lives on their classes in
    # channels.py; the package only re-exports them, and no other module
    # names one, so none can switch on a channel's type
    for path, tree in package_trees_but_channels():
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        tested = isinstance_names(tree)
        assert not tested & CATALOG_NAMES, path
        if path.name != "__init__.py":
            assert not (named | imported) & CATALOG_NAMES, path


def test_only_channels_tests_an_asymptotic_sets_type():
    # channels.py reads a set one way: a finite set's states, or an X
    # family's mask; every other module asks it, and none switches on the
    # set's type itself
    testing = [path.name for path, tree in package_trees_but_channels()
               if isinstance_names(tree) & SET_NAMES]
    assert testing == []


@pytest.mark.parametrize("argv, code", [
    (["evolve", "--channel", "decay:1e308,1e308,0", "--state", DENSE_STATE,
      "--horizon", "1e-300"], 3),
    (["death-time", "--channel", "decay:1e308,1e308,0", "--state", X_STATE], 0),
])
def test_overflowing_catalog_generator_as_a_process(argv, code):
    # the real stderr, with RuntimeWarnings raised as errors
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "esdkit", *argv],
                            capture_output=True, text=True, env=cli_env())
    assert result.returncode == code, result.stderr
    if code:
        assert result.stdout == "" and re.fullmatch(r"error: [^\n]*\n", result.stderr)
    else:
        assert result.stderr == "" and json.loads(result.stdout)["verdict"] == "finite"
