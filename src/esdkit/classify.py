"""Geometric classification of asymptotic sets.

A channel's long-time behaviour is summarized by where its asymptotic set
sits relative to the separable states: a single asymptote is either an
interior separable point (case i), a separable point on a boundary
(case ii) or an entangled point (case iii); a multi-state asymptotic set
additionally admits the mixed case iv containing both separable and
entangled members.  Families are probed at the extreme points of their
constraint polytope (where boundary contact lives) plus seeded random
interior members, so the label is deterministic given (tol, n_samples,
seed).

Members are classified in one batched pass: they are built as (k, 4, 4)
stacks of at most ``_CLASSIFY_MEMBERS`` (X-family members straight from
parameter arrays), and each stack is validated, partially transposed and
diagonalized as a whole.  A malformed member of an explicit set fails
loudly, naming its position, instead of being labelled.  Members stay
columns up to the evidence bytes, those of one member at a time.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from ._floattext import format_rows
from .channels import (
    AsymptoticSet,
    ChannelSpec,
    XFamily,
    _finite_states,
    asymptotic_set,
    is_catalog,
)
from .entanglement import _LABELS, RegionLabel, _regions
from .errors import (
    EmptySetError,
    OutOfRangeError,
    ParseError,
    UnsupportedChannelError,
    ValidationError,
)
from .states import (
    DEFAULT_TOL,
    DensityMatrix,
    ToleranceConfig,
    _literal_fields,
    _stack_literals,
    _unchecked_density,
    _x_stack,
)

__all__ = [
    "FAMILY_ONE",
    "FAMILY_MULTI",
    "CASES",
    "Evidence",
    "ScenarioLabel",
    "sample_asymptotic",
    "classify_set",
    "classify_channel",
    "scenario_to_json",
    "scenario_from_json",
]

FAMILY_ONE = "one"
FAMILY_MULTI = "multi"
CASES = ("i", "ii", "iii", "iv")
# the JSON text between an evidence entry's state and its margin, given its quoted label
_middle = '",\n      "label": {},\n      "margin": '.format
_MIDDLES = np.array([_middle(_quote(name)) for name in _LABELS], dtype=object)

# members per chunk of a batched classification; each chunk's arrays stay
# below glibc's default 128 KiB mmap threshold, whose dynamic raise on
# freeing a larger array would otherwise grow the heap of later work
_CLASSIFY_MEMBERS = 256


@dataclass(frozen=True)
class Evidence:
    """One probed member: its state literal and region label."""

    state: str
    region: RegionLabel


@dataclass(frozen=True, eq=False)
class _EvidenceView(Sequence):
    """Read-only sequence over :func:`classify_set`'s member columns; each access
    builds an :class:`Evidence`.  Equal to, and hashed as, the tuple of them."""

    literals: list = field(repr=False)
    codes: np.ndarray = field(repr=False)
    margins: np.ndarray = field(repr=False)
    rank_margins: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.literals)

    def __getitem__(self, i) -> Evidence:
        i = operator.index(i)
        return Evidence(self.literals[i], RegionLabel(
            _LABELS[self.codes[i]], float(self.margins[i]), float(self.rank_margins[i])))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _EvidenceView)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True, eq=False)
class ScenarioLabel:
    """Scenario assignment with the member evidence that produced it: a
    tuple of :class:`Evidence` if built by hand, and from :func:`classify_set`
    a read-only sequence that builds each :class:`Evidence` when it is read."""

    family: str
    case: str
    evidence: Sequence

    def __post_init__(self) -> None:
        if self.family not in (FAMILY_ONE, FAMILY_MULTI):
            raise ValidationError(f"unknown family {self.family!r}")
        if self.case not in CASES:
            raise ValidationError(f"unknown case {self.case!r}")
        if self.case == "iv" and self.family != FAMILY_MULTI:
            raise ValidationError("case iv requires a multi-state asymptotic set")
        if not isinstance(self.evidence, _EvidenceView):
            object.__setattr__(self, "evidence", tuple(self.evidence))


# deterministic probe populations: simplex vertices and face centers
_THIRD = 1.0 / 3.0
_PROBE_POPULATIONS = (
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
    (0.0, _THIRD, _THIRD, _THIRD),
    (_THIRD, 0.0, _THIRD, _THIRD),
    (_THIRD, _THIRD, 0.0, _THIRD),
    (_THIRD, _THIRD, _THIRD, 0.0),
)


def _coherence_extremes(bound: float, frozen: bool) -> tuple[complex, ...]:
    if frozen or bound == 0.0:
        return (0.0 + 0.0j,)
    return (0.0 + 0.0j, complex(bound), complex(-bound))


def _random_members(family: XFamily, rng: np.random.Generator, n: int) -> np.ndarray:
    """The next ``n`` random members of a family as one stack.

    The stream is consumed exactly as one ``rng.dirichlet`` call and one
    ``rng.uniform`` pair per free coherence per member would consume it,
    so a seed gives the same members however they are chunked.
    """
    # (fraction of the bound, phase) of w, then of z; 0 for a frozen one
    draws = np.zeros((n, 4))
    if family.w_zero and family.z_zero:
        pops = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=n)
    else:
        # the stream of rng.dirichlet((1, 1, 1, 1)), then rng.uniform() and
        # rng.uniform(0, 2 pi) per free coherence, member by member: the
        # Dirichlet draw is four unit exponentials over their running sum,
        # and a uniform draw is low + (high - low) * rng.random()
        gammas = np.empty((n, 4))
        for k in range(n):
            rng.standard_exponential(out=gammas[k])
            if not family.w_zero:
                rng.random(out=draws[k, :2])
            if not family.z_zero:
                rng.random(out=draws[k, 2:])
        total = gammas[:, 0] + gammas[:, 1] + gammas[:, 2] + gammas[:, 3]
        pops = gammas * (1.0 / total)[:, None]
        draws[:, 1::2] *= 2.0 * np.pi
    a, b, c, d = pops.T
    w = draws[:, 0] * np.sqrt(a * d) * np.exp(1j * draws[:, 1])
    z = draws[:, 2] * np.sqrt(b * c) * np.exp(1j * draws[:, 3])
    return _x_stack((a, b, c, d, w, z))


def _family_chunks(family: XFamily, n_samples: int, seed: int) -> Iterator[np.ndarray]:
    probes = [
        (a, b, c, d, w, z)
        for a, b, c, d in _PROBE_POPULATIONS
        for w in _coherence_extremes(float(np.sqrt(a * d)), family.w_zero)
        for z in _coherence_extremes(float(np.sqrt(b * c)), family.z_zero)
    ]
    yield _x_stack(tuple(map(np.array, zip(*probes))))
    rng = np.random.default_rng(seed)
    for first in range(0, n_samples, _CLASSIFY_MEMBERS):
        yield _random_members(family, rng, min(_CLASSIFY_MEMBERS, n_samples - first))


def _member_chunks(aset: AsymptoticSet | np.ndarray, n_samples: int,
                   seed: int) -> Iterator[np.ndarray]:
    """The members of :func:`sample_asymptotic`, or of an (n, 4, 4) member
    array, in order, as stacks of at most ``_CLASSIFY_MEMBERS``; X-family
    members come straight from parameter arrays."""
    if not isinstance(aset, np.ndarray):
        states = _finite_states(aset)
        if states is None:
            return _family_chunks(aset, n_samples, seed)
        aset = np.array([m.matrix for m in states])
    elif aset.ndim != 3 or aset.shape[1:] != (4, 4):
        raise ValidationError(f"expected an (n, 4, 4) member array, got shape {aset.shape}")
    return (aset[i:i + _CLASSIFY_MEMBERS] for i in range(0, len(aset), _CLASSIFY_MEMBERS))


def _check_sampling(n_samples: int, seed: int) -> None:
    for name, value in (("n_samples", n_samples), ("seed", seed)):
        if value < 0:
            raise OutOfRangeError(f"{name} must be nonnegative, got {value!r}")


def sample_asymptotic(
    aset: AsymptoticSet, n_samples: int = 100, seed: int = 0
) -> list[DensityMatrix]:
    """Concrete members of an asymptotic set.

    A finite set (a single point or explicit samples) returns its states
    as-is; an X family returns the deterministic extreme members (simplex
    vertices and face centers, each with coherences at 0 and at the
    positivity bound) plus ``n_samples`` seeded uniform interior members.
    A negative ``n_samples`` or ``seed`` raises
    :class:`~esdkit.errors.OutOfRangeError`.
    """
    _check_sampling(n_samples, seed)
    states = _finite_states(aset)
    if states is not None:
        return list(states)
    return [_unchecked_density(m) for chunk in _family_chunks(aset, n_samples, seed)
            for m in chunk]


def classify_set(
    aset: AsymptoticSet | np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
    n_samples: int = 100,
    seed: int = 0,
) -> ScenarioLabel:
    """Assign the scenario label for an asymptotic set.

    ``aset`` may also be an (n, 4, 4) array of explicit members, classified
    as the :class:`~esdkit.channels.ExplicitSamples` of their matrices.
    Family comes from the member count alone: "one" exactly when there is
    one member (a single point, or an explicit set or array of one state),
    "multi" otherwise; an X family always has its 8 or more probe members.
    The case follows the evidence labels: all interior -> i; all separable
    with boundary contact -> ii; all entangled -> iii; both entangled and
    separable members -> iv.

    Members are built and classified in one batched pass over (k, 4, 4)
    stacks of at most ``_CLASSIFY_MEMBERS``, so that memory stays flat in
    ``n_samples``; X-family members come straight from parameter arrays,
    and the result keeps them as columns, its ``evidence`` building each
    :class:`Evidence` when it is read.  A malformed member (non-finite,
    non-Hermitian, off unit trace or not positive) raises a
    :class:`~esdkit.errors.ValidationError` naming its position, as does a
    member array not of shape (n, 4, 4); a negative ``n_samples`` or
    ``seed`` raises :class:`~esdkit.errors.OutOfRangeError`.  Labels,
    margins and evidence literals are byte for byte those of
    :func:`~esdkit.entanglement.classify_position` and
    :func:`~esdkit.states.format_state_literal` applied member by member.
    """
    _check_sampling(n_samples, seed)
    parts, count = [], 0
    for chunk in _member_chunks(aset, n_samples, seed):
        parts.append((*_regions(chunk, tol, count), *_literal_fields(chunk)))
        count += len(chunk)
    if not count:
        raise EmptySetError("asymptotic set has no members to classify")
    codes, margins, rank_margins, *fields = map(np.concatenate, zip(*parts))
    family = FAMILY_ONE if count == 1 else FAMILY_MULTI
    interior, boundary, entangled = np.bincount(codes, minlength=3) > 0
    if entangled:
        case = "iv" if interior or boundary else "iii"
    elif boundary:
        case = "ii"
    else:
        case = "i"
    evidence = _EvidenceView(_stack_literals(*fields), codes, margins, rank_margins)
    return ScenarioLabel(family, case, evidence)


def classify_channel(
    channel: ChannelSpec,
    tol: ToleranceConfig = DEFAULT_TOL,
    n_samples: int = 100,
    seed: int = 0,
) -> ScenarioLabel:
    """Classify a catalog channel through its asymptotic set.

    Custom channels carry no catalog asymptotics; classify an
    :class:`~esdkit.channels.ExplicitSamples` set instead.
    """
    if not is_catalog(channel):
        raise UnsupportedChannelError(
            "classify_channel requires a catalog channel; "
            "use classify_set with explicit samples instead"
        )
    return classify_set(asymptotic_set(channel), tol=tol, n_samples=n_samples, seed=seed)


def scenario_to_json(label: ScenarioLabel) -> str:
    """The label as JSON with an indent of 2: the bytes of ``json.dumps``
    on the same fields in the same order, plus a newline.  Margins are
    written as their shortest round-trip floats and must be finite.

    A label from :func:`classify_set` is written from its columns, with no
    per-member object; a hand-built one from its :class:`Evidence`.  No
    ``rank_margin`` is written: a round trip equals the evidence but for it."""
    evidence = label.evidence
    if isinstance(evidence, _EvidenceView):
        # these literals spell only x d e n s : , . + - and digits, which
        # JSON keeps as they are: quotes suffice
        states, middles = evidence.literals, _MIDDLES[evidence.codes].tolist()
        margins = evidence.margins
    else:
        # a hand-built label may hold any string: escape it, and drop the
        # quotes the constant text already has
        states = [_quote(ev.state)[1:-1] for ev in evidence]
        middles = [_middle(_quote(ev.region.label)) for ev in evidence]
        margins = np.array([float(ev.region.margin) for ev in evidence])
    if not np.isfinite(margins).all():
        raise ValidationError("scenario evidence has a non-finite margin")
    head = (f'{{\n  "family": {_quote(label.family)},\n  "case": {_quote(label.case)},\n'
            '  "evidence": ')
    n = len(states)
    if not n:
        return head + "[]\n}\n"
    # per member: its state, label and margin, each after constant text
    pieces = [""] * (4 * n + 1)
    pieces[0] = head + '[\n    {\n      "state": "'
    pieces[1::4] = states
    pieces[2::4] = middles
    pieces[3::4] = format_rows(margins[:, None], ["\n"]).split("\n")[:-1]
    pieces[4::4] = ['\n    },\n    {\n      "state": "'] * n
    pieces[-1] = "\n    }\n  ]\n}\n"
    return "".join(pieces)


def scenario_from_json(text: str) -> ScenarioLabel:
    """Read :func:`scenario_to_json` output; a malformed document raises
    :class:`ParseError`.  A round trip equals the evidence except for
    ``rank_margin``, which the JSON lacks and so reads as ``None``."""
    try:
        # integers read as floats, so a huge one is inf and refused below
        payload = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad scenario JSON: {exc}") from None
    if not (isinstance(payload, dict) and {"family", "case", "evidence"} <= set(payload)
            and isinstance(payload["evidence"], list)):
        raise ParseError("scenario JSON must contain family, case and an evidence list")
    evidence = []
    for idx, entry in enumerate(payload["evidence"]):
        entry = entry if isinstance(entry, dict) else {}
        state, region, margin = entry.get("state"), entry.get("label"), entry.get("margin")
        if not (isinstance(state, str) and region in _LABELS
                and isinstance(margin, float) and math.isfinite(margin)):
            raise ParseError(f"evidence entry {idx + 1} needs a string state, a label in "
                             f"{_LABELS} and a finite number as margin")
        evidence.append(Evidence(state, RegionLabel(region, margin)))
    try:
        return ScenarioLabel(str(payload["family"]), str(payload["case"]), tuple(evidence))
    except ValidationError as exc:
        raise ParseError(f"bad scenario JSON: {exc}") from None
