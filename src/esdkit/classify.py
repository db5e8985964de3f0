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
loudly, naming its position, instead of being labelled.  The evidence
bytes are those of classifying and formatting one member at a time.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channels import (
    AsymptoticSet,
    ChannelSpec,
    ExplicitSamples,
    SinglePoint,
    XFamily,
    asymptotic_set,
    is_catalog,
)
from .entanglement import LABEL_BOUNDARY, LABEL_ENTANGLED, RegionLabel, _regions
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
    _X_PATTERN,
    _unchecked_density,
    _x_stack,
    format_dense_entries,
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
class ScenarioLabel:
    """Scenario assignment with the member evidence that produced it."""

    family: str
    case: str
    evidence: tuple

    def __post_init__(self) -> None:
        if self.family not in (FAMILY_ONE, FAMILY_MULTI):
            raise ValidationError(f"unknown family {self.family!r}")
        if self.case not in CASES:
            raise ValidationError(f"unknown case {self.case!r}")
        if self.case == "iv" and self.family != FAMILY_MULTI:
            raise ValidationError("case iv requires a multi-state asymptotic set")
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
            gammas[k] = rng.standard_exponential(4)
            if not family.w_zero:
                draws[k, :2] = rng.random(2)
            if not family.z_zero:
                draws[k, 2:] = rng.random(2)
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


def _member_chunks(aset: AsymptoticSet, n_samples: int, seed: int) -> Iterator[np.ndarray]:
    """The members of :func:`sample_asymptotic`, in order, as stacks of at
    most ``_CLASSIFY_MEMBERS``; X-family members come straight from
    parameter arrays."""
    # a negative count falls through to sample_asymptotic, which rejects it
    if isinstance(aset, XFamily) and n_samples >= 0:
        return _family_chunks(aset, n_samples, seed)
    states = sample_asymptotic(aset, n_samples, seed)
    return (np.array([m.matrix for m in states[i:i + _CLASSIFY_MEMBERS]])
            for i in range(0, len(states), _CLASSIFY_MEMBERS))


def sample_asymptotic(
    aset: AsymptoticSet, n_samples: int = 100, seed: int = 0
) -> list[DensityMatrix]:
    """Concrete members of an asymptotic set.

    Single points and explicit sets return their states as-is; X families
    return the deterministic extreme members (simplex vertices and face
    centers, each with coherences at 0 and at the positivity bound) plus
    ``n_samples`` seeded uniform interior members.
    """
    if n_samples < 0:
        raise OutOfRangeError(f"n_samples must be nonnegative, got {n_samples!r}")
    if isinstance(aset, SinglePoint):
        return [aset.state]
    if isinstance(aset, ExplicitSamples):
        return list(aset.states)
    if isinstance(aset, XFamily):
        return [_unchecked_density(m) for chunk in _family_chunks(aset, n_samples, seed)
                for m in chunk]
    raise ValidationError(f"unknown asymptotic set type {type(aset).__name__}")


def _literals(stack: np.ndarray) -> list[str]:
    """Evidence literals of stacked members, as member by member: the
    ``x:`` form of :func:`~esdkit.states.project_x` where it accepts the
    member (at the default ``eps_psd``), else the ``dense:`` form."""
    is_x = np.abs(stack[:, ~_X_PATTERN]).max(axis=1) < DEFAULT_TOL.eps_psd
    xs = stack[is_x]
    # populations, then the real and imaginary parts of w and of z
    coherences = np.ascontiguousarray(xs[:, [0, 1], [3, 2]]).view(float)
    fields = np.column_stack([xs[:, [0, 1, 2, 3], [0, 1, 2, 3]].real, coherences])
    x_literals = iter(["x:" + ",".join(map(repr, row)) for row in fields.tolist()])
    dense_literals = iter(["dense:" + format_dense_entries(m) for m in stack[~is_x]])
    return [next(x_literals) if x else next(dense_literals) for x in is_x.tolist()]


def classify_set(
    aset: AsymptoticSet,
    tol: ToleranceConfig = DEFAULT_TOL,
    n_samples: int = 100,
    seed: int = 0,
) -> ScenarioLabel:
    """Assign the scenario label for an asymptotic set.

    Family is "one" for a single point (or an explicit set of one state)
    and "multi" otherwise.  The case follows the evidence labels: all
    interior -> i; all separable with boundary contact -> ii; all
    entangled -> iii; both entangled and separable members -> iv.

    Members are built and classified in one batched pass over (k, 4, 4)
    stacks of at most ``_CLASSIFY_MEMBERS``, so that memory stays flat in
    ``n_samples``; X-family members come straight from parameter arrays.
    A malformed member (non-finite, non-Hermitian, off unit trace or not
    positive) raises a :class:`~esdkit.errors.ValidationError` naming its
    position.  Labels, margins and evidence literals are byte for byte
    those of :func:`~esdkit.entanglement.classify_position` and
    :func:`~esdkit.states.format_state_literal` applied member by member.
    """
    evidence: list[Evidence] = []
    for chunk in _member_chunks(aset, n_samples, seed):
        regions = _regions(chunk, tol, len(evidence))
        evidence.extend(map(Evidence, _literals(chunk), regions))
    if not evidence:
        raise EmptySetError("asymptotic set has no members to classify")
    single = isinstance(aset, SinglePoint) or (
        isinstance(aset, ExplicitSamples) and len(evidence) == 1
    )
    family = FAMILY_ONE if single else FAMILY_MULTI
    labels = {ev.region.label for ev in evidence}
    if LABEL_ENTANGLED in labels:
        case = "iv" if len(labels) > 1 else "iii"
    elif LABEL_BOUNDARY in labels:
        case = "ii"
    else:
        case = "i"
    return ScenarioLabel(family, case, tuple(evidence))


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
    payload = {
        "family": label.family,
        "case": label.case,
        "evidence": [
            {
                "state": ev.state,
                "label": ev.region.label,
                "margin": ev.region.margin,
            }
            for ev in label.evidence
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def scenario_from_json(text: str) -> ScenarioLabel:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad scenario JSON: {exc}") from None
    if not isinstance(payload, dict) or not {"family", "case", "evidence"} <= set(payload):
        raise ParseError("scenario JSON must contain family, case and evidence")
    evidence = []
    for idx, entry in enumerate(payload["evidence"]):
        if not isinstance(entry, dict) or not {"state", "label", "margin"} <= set(entry):
            raise ParseError(f"evidence entry {idx + 1} needs state, label and margin")
        evidence.append(
            Evidence(str(entry["state"]), RegionLabel(str(entry["label"]), float(entry["margin"])))
        )
    return ScenarioLabel(str(payload["family"]), str(payload["case"]), tuple(evidence))
