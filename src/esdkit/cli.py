"""Command-line front end.

Subcommands ``evolve``, ``death-time``, ``classify`` and ``sweep`` parse
state/channel literals, run the corresponding library operations and emit
CSV or JSON to stdout or ``--out``.  The parser is built once per process
from one table of flags, and every subcommand takes every flag: each value
is validated, then ignored where it is not used.  ``--flag value`` and
``--flag=value`` are the same, even for a value that starts with ``-``,
and a config entry is read as its flag's text (``"seed": 1.5`` exits 2
like ``--seed 1.5``); flags override config entries, which override
defaults.  ``--config``, ``--set-file`` and ``custom:`` files share one
JSON reader.  Identical inputs give byte-identical outputs.  Exit codes:
0 ok, 2 usage or parse error (including non-finite numbers and an
overflowing default time scale), 3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channels import (
    ChannelSpec, _read_json, _time_scale, is_catalog, parse_channel_literal,
)
from .classify import classify_channel, classify_set, scenario_to_json
from .dynamics import (
    _death_reports,
    death_report_to_json,
    death_time,
    simulate,
    trajectory_to_csv,
)
from .errors import NotXFormError, OutOfRangeError, ParseError, ValidationError
from .states import (
    DensityMatrix,
    ToleranceConfig,
    XState,
    _checked_x,
    _literal_stack,
    _raise_x,
    parse_state_literal,
    project_x,
)

__all__ = ["RunConfig", "build_parser", "main",
           "cmd_evolve", "cmd_death_time", "cmd_classify", "cmd_sweep"]

# x-literal field names accepted as sweep parameters; bare w/z mean the real parts
_SWEEP_FIELDS = ("a", "b", "c", "d", "w_re", "w_im", "z_re", "z_im")
_SWEEP_ALIASES = {"w": "w_re", "z": "z_re"}
_MAX_SAMPLES = 1_000_000  # each sampled member holds about 1 KB; more exits 2


@dataclass
class RunConfig:
    """Resolved inputs for one command invocation."""

    command: str
    channel: ChannelSpec | None = None
    state: XState | DensityMatrix | None = None
    horizon: float | None = None
    dt: float | None = None
    seed: int = 0
    tol: ToleranceConfig = field(default_factory=ToleranceConfig)
    out: str | None = None
    samples: int = 100
    set_file: str | None = None
    family: str = "x"
    grids: list[tuple[str, float, float, int]] = field(default_factory=list)


def _parse_grid(text: str) -> tuple[str, float, float, int]:
    head, sep, tail = text.partition("=")
    if not sep:
        raise ParseError(f"{text!r}: expected param=start:stop:n")
    name = head.strip()
    name = _SWEEP_ALIASES.get(name, name)
    if name not in _SWEEP_FIELDS:
        raise ParseError(
            f"{text!r}: unknown parameter {head.strip()!r} "
            f"(expected one of {', '.join(_SWEEP_FIELDS)})"
        )
    parts = tail.split(":")
    if len(parts) != 3:
        raise ParseError(f"{text!r}: expected start:stop:n")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ParseError(f"{text!r}: non-numeric bound or count") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ParseError(f"{text!r}: bounds must be finite")
    if count < 1:
        raise ParseError(f"{text!r}: n must be >= 1")
    return name, start, stop, count


def _positive(text: str) -> float:
    number = float(text)
    if not (number > 0.0 and math.isfinite(number)):
        raise ValueError(f"must be positive and finite, got {number!r}")
    return number


def _count(low: int, most: float = math.inf):
    def count(text: str) -> int:
        number = int(text)
        if number < low:
            raise ValueError(f"must be >= {low}, got {number!r}")
        if number > most:
            raise ValueError(f"must be <= {most}, got {number!r}")
        return number
    return count


def _family(text: str) -> str:
    if text not in ("x", "pure"):
        raise ValueError(f"expected 'x' or 'pure', got {text!r}")
    return text


# Each flag's RunConfig field (None: validated only), how its text is read,
# and its help.  The keys but "config" are also the accepted config-file keys.
_FIELDS = {
    "channel": ("channel", parse_channel_literal,
                "channel literal (decay:/dephase:/collective:/custom:)"),
    "state": ("state", parse_state_literal, "state literal (x: or dense:)"),
    "horizon": ("horizon", _positive, "observation time span"),
    "dt": ("dt", _positive, "evolve's step; other subcommands ignore it"),
    "seed": ("seed", _count(0), "seed for sampled classification members"),
    "eps_death": ("tol", lambda text: ToleranceConfig(eps_death=float(text)),
                  "negativity death threshold"),
    "out": ("out", str, "output path (default: stdout)"),
    "config": (None, str, "JSON file with defaults for any flag"),
    "jobs": (None, _count(1), "accepted for compatibility; has no effect"),
    "samples": ("samples", _count(0, _MAX_SAMPLES), "random members per sampled family "
                f"(default 100, at most {_MAX_SAMPLES:,})"),
    "set_file": ("set_file", str, "JSON file with explicit member states"),
    "family": ("family", _family, "swept family: overrides of --state (x) or "
               "pure superpositions of |ee> and |gg> (pure)"),
    "grid": ("grids", _parse_grid, "parameter grid, param=start:stop:n (repeatable)"),
}
_FLAGS = {f"--{name.replace('_', '-')}": name for name in _FIELDS}


def _read(name: str, value):
    """``value`` converted as the text of flag ``--name`` would be.

    A config entry ``v`` is read as the text ``str(v)``, so ``1.5`` or
    ``true`` for an integer flag fails as ``--seed 1.5`` would.  ``grid``
    takes one text or a list of them, as the repeatable flag does.
    """
    kind = _FIELDS[name][1]
    try:
        if name == "grid":
            return [kind(str(item)) for item in (value if isinstance(value, list) else [value])]
        return kind(str(value))
    except ValueError as exc:
        raise ParseError(f"invalid --{name.replace('_', '-')}: {exc}") from None


def _load_config_file(path: str) -> dict:
    values = {}
    for key, value in _read_json(path, "--config").items():
        name = key.replace("-", "_")
        if name not in _FIELDS or name == "config":
            raise ParseError(f"--config {path!r} has unknown key {key!r}")
        if value is not None:
            values[name] = value
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Config-file entries overlaid with the flags that were set, each
    converted by :func:`_read`; every failure is a :class:`ParseError`."""
    values = _load_config_file(args.config) if args.config else {}
    values.update((name, value) for name, value in vars(args).items()
                  if name in _FIELDS and value is not None)
    config = RunConfig(command=args.command)
    for name, value in values.items():
        target = _FIELDS[name][0]
        converted = _read(name, value)
        if target is not None:
            setattr(config, target, converted)
    return config


def _require(value, name: str):
    if value is None:
        raise ParseError(f"missing required --{name} (flag or config entry)")
    return value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write --out {out!r}: {exc}") from None


def _require_x(state, name: str) -> XState:
    if isinstance(state, XState):
        return state
    try:
        return project_x(state)
    except NotXFormError as exc:
        raise ParseError(f"invalid --{name}: {exc} (an X state is required)") from None


def _horizon(config: RunConfig, channel: ChannelSpec) -> float:
    try:
        return config.horizon or _time_scale(channel, 50.0, "horizon")
    except OutOfRangeError as exc:
        raise ParseError(f"invalid --horizon: {exc}") from None


def cmd_evolve(config: RunConfig) -> int:
    channel = _require(config.channel, "channel")
    state = _require(config.state, "state")
    horizon = _require(config.horizon, "horizon")
    try:
        traj = simulate(state, channel, horizon, dt=config.dt, tol=config.tol)
    except OutOfRangeError as exc:  # horizon / dt overflows the step count
        raise ParseError(f"invalid --dt: {exc}") from None
    _emit(trajectory_to_csv(traj), config.out)
    return 0


def cmd_death_time(config: RunConfig) -> int:
    channel = _require(config.channel, "channel")
    if not is_catalog(channel):
        raise ParseError("invalid --channel: death-time requires a catalog channel")
    x0 = _require_x(_require(config.state, "state"), "state")
    horizon = _horizon(config, channel)
    report = death_time(x0, channel, horizon, tol=config.tol)
    _emit(death_report_to_json(report), config.out)
    return 0


def _load_set_file(path: str, tol: ToleranceConfig) -> np.ndarray:
    """Read explicit members from JSON, ``{"states": ["<literal>", ...]}``,
    as one validated (n, 4, 4) stack."""
    literals = list(map(str, _read_json(path, "--set-file", "states")["states"]))
    try:
        return _literal_stack(literals, tol)
    except ParseError as exc:
        raise ParseError(f"--set-file {path!r} {exc}") from None


def cmd_classify(config: RunConfig) -> int:
    if (config.channel is None) == (config.set_file is None):
        raise ParseError("classify requires exactly one of --channel or --set-file")
    if config.set_file is not None:
        members = _load_set_file(config.set_file, config.tol)
        label = classify_set(members, tol=config.tol, n_samples=config.samples,
                             seed=config.seed)
    else:
        if not is_catalog(config.channel):
            raise ParseError(
                "invalid --channel: custom channels have no catalog asymptotic set; "
                "supply --set-file instead"
            )
        label = classify_channel(config.channel, tol=config.tol,
                                 n_samples=config.samples, seed=config.seed)
    _emit(scenario_to_json(label), config.out)
    return 0


def cmd_sweep(config: RunConfig) -> int:
    channel = _require(config.channel, "channel")
    if not config.grids:
        raise ParseError("sweep requires at least one --grid (param=start:stop:n)")
    if not is_catalog(channel):
        raise ParseError("invalid --channel: sweep requires a catalog channel")
    names = [grid[0] for grid in config.grids]
    if len(set(names)) != len(names):
        raise ParseError("sweep grids repeat a parameter name")
    horizon = _horizon(config, channel)
    if config.family == "pure":
        if names != ["a"]:
            raise ParseError("pure family sweeps accept exactly one grid over a")
        fields = dict.fromkeys(_SWEEP_FIELDS, 0.0)
    else:
        base = _require_x(_require(config.state, "state"), "state")
        fields = dict(zip(_SWEEP_FIELDS, (base.a, base.b, base.c, base.d, base.w.real,
                                          base.w.imag, base.z.real, base.z.imag)))
    try:
        # one column per grid, in itertools.product order
        axes = [axis.ravel() for axis in np.meshgrid(
            *(np.linspace(*grid[1:]) for grid in config.grids), indexing="ij")]
    except (MemoryError, ValueError):
        size = math.prod(grid[3] for grid in config.grids)
        raise ParseError(f"a sweep grid of {size} points is too large to allocate") from None
    fields.update(zip(names, axes))
    if config.family == "pure":
        # superpositions sqrt(a)|ee> + sqrt(1-a)|gg>
        a = fields["a"]
        outside = np.flatnonzero(~((0.0 < a) & (a < 1.0)))
        if outside.size:
            raise ParseError(f"pure family requires 0 < a < 1, got {float(a[outside[0]])!r}")
        fields.update(d=1.0 - a, w_re=np.sqrt(a * (1.0 - a)))
    table = np.column_stack([np.broadcast_to(fields[f], axes[0].size) for f in _SWEEP_FIELDS])
    # each (re, im) pair read as one complex keeps both parts' bits, signed zeros too
    cols = (*table[:, :4].T, *table[:, 4:].view(complex).T)
    i, check = _checked_x(cols, config.tol)
    try:
        _raise_x(cols, i, check, config.tol)
    except ValidationError as exc:
        point = ", ".join(f"{name}={float(axis[i])!r}" for name, axis in zip(names, axes))
        raise ParseError(f"invalid sweep grid point {point}: {exc}") from None
    verdicts, t_star, crossings = _death_reports(XState(*cols), channel, horizon, config.tol)
    t_cells = ("" if math.isnan(t) else repr(t) for t in t_star.tolist())
    rows = zip(*(map(repr, axis.tolist()) for axis in axes), verdicts.tolist(), t_cells,
               map(str, crossings.tolist()))
    lines = [",".join([*names, "verdict", "t_star", "crossings"]), *map(",".join, rows)]
    _emit("\n".join(lines) + "\n", config.out)
    return 0


_HANDLERS = {
    "evolve": (cmd_evolve, "sample a trajectory and write its CSV"),
    "death-time": (cmd_death_time, "scan for loss of entanglement and write a JSON report"),
    "classify": (cmd_classify, "label a channel's asymptotic set and write JSON evidence"),
    "sweep": (cmd_sweep, "evaluate death-time over a parameter grid and write CSV"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one error: line and exit 2, as for every other refusal
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="esdkit", allow_abbrev=False,
        description="Simulate two-qubit noise channels and classify "
                    "entanglement sudden death.",
    )
    # each subcommand takes all of them, spelled out: --hor is not --horizon
    flags = _Parser(add_help=False, allow_abbrev=False)
    for flag, name in _FLAGS.items():
        flags.add_argument(flag, help=_FIELDS[name][2],
                           action="append" if name == "grid" else "store")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _HANDLERS.items():
        sub.add_parser(command, help=text, parents=[flags], allow_abbrev=False)
    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    words: list[str] = []
    for word in sys.argv[1:] if argv is None else argv:
        # a flag and its value as one --flag=value, even for a value that starts with "-"
        if words and words[-1] in _FLAGS and not word.startswith("--"):
            words[-1] += "=" + word
        else:
            words.append(word)
    try:
        args = _PARSER.parse_args(words)
        return _HANDLERS[args.command][0](_build_config(args))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
