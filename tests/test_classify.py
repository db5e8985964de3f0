"""Scenario classification of asymptotic sets and channels."""

import numpy as np
import pytest

from _oracles import classify_set_scalar
from esdkit import (
    CASES,
    DEFAULT_TOL,
    CollectiveDephasing,
    CustomChannel,
    DensityMatrix,
    Evidence,
    ExplicitSamples,
    FAMILY_MULTI,
    FAMILY_ONE,
    IndependentDecay,
    IndependentDephasing,
    LABEL_BOUNDARY,
    LABEL_ENTANGLED,
    LABEL_INTERIOR,
    RegionLabel,
    ScenarioLabel,
    SinglePoint,
    XFamily,
    bell,
    classify_channel,
    classify_position,
    classify_set,
    embed_x,
    make_density,
    maximally_mixed,
    random_density,
    random_x,
    sample_asymptotic,
    scenario_from_json,
    scenario_to_json,
    thermal_product,
    werner,
)
from esdkit.classify import _CLASSIFY_MEMBERS
from esdkit.errors import (
    EmptySetError,
    NotHermitianError,
    NotPositiveError,
    OutOfRangeError,
    ParseError,
    TraceNotOneError,
    UnsupportedChannelError,
    ValidationError,
)

DEFAULT_EPS_ENT = 1e-10


# --- sampling ---------------------------------------------------------------

def test_sample_single_point_and_explicit():
    point = SinglePoint(thermal_product(0.0))
    assert sample_asymptotic(point) == [point.state]
    members = ExplicitSamples((maximally_mixed(), thermal_product(1.0)))
    assert sample_asymptotic(members) == list(members.states)


def test_sample_x_family_counts():
    # diagonal family: 8 probe populations, no coherence choices
    diag = sample_asymptotic(XFamily(w_zero=True, z_zero=True), n_samples=5)
    assert len(diag) == 8 + 5
    # z free: the two face centers with b and c both nonzero each
    # contribute z in {0, +bound, -bound}
    with_z = sample_asymptotic(XFamily(w_zero=True, z_zero=False), n_samples=5)
    assert len(with_z) == 12 + 5
    with pytest.raises(OutOfRangeError):
        sample_asymptotic(diag and XFamily(w_zero=True, z_zero=True), n_samples=-1)


def test_sample_x_family_members_valid_and_deterministic():
    family = XFamily(w_zero=True, z_zero=False)
    first = sample_asymptotic(family, n_samples=20, seed=3)
    second = sample_asymptotic(family, n_samples=20, seed=3)
    for rho_a, rho_b in zip(first, second):
        np.testing.assert_array_equal(rho_a.matrix, rho_b.matrix)
        assert abs(np.trace(rho_a.matrix).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho_a.matrix)[0] > -1e-12
        assert rho_a.matrix[0, 3] == 0.0  # w frozen throughout the family
    shifted = sample_asymptotic(family, n_samples=20, seed=4)
    assert any(
        not np.array_equal(rho_a.matrix, rho_b.matrix)
        for rho_a, rho_b in zip(first, shifted)
    )


# --- scenario table ---------------------------------------------------------

def test_decay_zero_temperature_single_boundary_point():
    label = classify_channel(IndependentDecay(1.0, 1.0, nbar=0.0))
    assert (label.family, label.case) == (FAMILY_ONE, "ii")
    assert len(label.evidence) == 1
    assert label.evidence[0].region.label == LABEL_BOUNDARY


def test_decay_thermal_single_interior_point():
    label = classify_channel(IndependentDecay(1.0, 1.0, nbar=0.5))
    assert (label.family, label.case) == (FAMILY_ONE, "i")
    assert label.evidence[0].region.label == LABEL_INTERIOR
    assert label.evidence[0].region.margin > 0.0


def test_dephasing_family_separable_with_boundary_contact():
    label = classify_channel(IndependentDephasing(1.0, 1.0))
    assert (label.family, label.case) == (FAMILY_MULTI, "ii")
    seen = {ev.region.label for ev in label.evidence}
    assert LABEL_ENTANGLED not in seen
    assert LABEL_BOUNDARY in seen


def test_collective_family_mixes_separable_and_entangled():
    label = classify_channel(CollectiveDephasing(1.0))
    assert (label.family, label.case) == (FAMILY_MULTI, "iv")
    seen = {ev.region.label for ev in label.evidence}
    assert LABEL_ENTANGLED in seen
    assert seen - {LABEL_ENTANGLED}  # separable members too


def test_synthetic_entangled_single_point():
    label = classify_set(SinglePoint(embed_x(bell("phi+"))))
    assert (label.family, label.case) == (FAMILY_ONE, "iii")
    assert label.evidence[0].region.label == LABEL_ENTANGLED


def test_explicit_samples_cardinality_drives_family():
    one = classify_set(ExplicitSamples((maximally_mixed(),)))
    assert (one.family, one.case) == (FAMILY_ONE, "i")
    both = classify_set(
        ExplicitSamples((maximally_mixed(), embed_x(bell("psi+"))))
    )
    assert (both.family, both.case) == (FAMILY_MULTI, "iv")
    entangled_pair = classify_set(
        ExplicitSamples((embed_x(bell("psi+")), embed_x(bell("phi-"))))
    )
    assert (entangled_pair.family, entangled_pair.case) == (FAMILY_MULTI, "iii")
    separable_interior_pair = classify_set(
        ExplicitSamples((maximally_mixed(), embed_x(werner(0.3))))
    )
    assert (separable_interior_pair.family, separable_interior_pair.case) == (
        FAMILY_MULTI, "i",
    )


# --- stability and evidence invariants --------------------------------------

def test_catalog_labels_stable_across_sample_sizes():
    channels = (
        IndependentDecay(1.0, 1.0, nbar=0.0),
        IndependentDecay(1.0, 1.0, nbar=0.5),
        IndependentDephasing(1.0, 1.0),
        CollectiveDephasing(1.0),
    )
    for channel in channels:
        outcomes = {
            (label.family, label.case)
            for label in (
                classify_channel(channel, n_samples=n) for n in (10, 100, 1000)
            )
        }
        assert len(outcomes) == 1


def test_classification_deterministic_given_seed():
    first = classify_channel(CollectiveDephasing(1.0), n_samples=50, seed=11)
    second = classify_channel(CollectiveDephasing(1.0), n_samples=50, seed=11)
    assert first.case == second.case
    assert [ev.state for ev in first.evidence] == [ev.state for ev in second.evidence]
    assert [ev.region for ev in first.evidence] == [ev.region for ev in second.evidence]


def test_evidence_labels_match_margins():
    label = classify_channel(CollectiveDephasing(1.0), n_samples=200)
    for ev in label.evidence:
        if ev.region.label == LABEL_ENTANGLED:
            assert ev.region.margin < -DEFAULT_EPS_ENT
        elif ev.region.label == LABEL_INTERIOR:
            assert ev.region.margin > DEFAULT_EPS_ENT
            assert ev.region.rank_margin > DEFAULT_EPS_ENT
        else:
            assert (
                abs(ev.region.margin) <= DEFAULT_EPS_ENT
                or ev.region.rank_margin <= DEFAULT_EPS_ENT
            )


def test_case_consistency_with_evidence():
    for channel in (
        IndependentDecay(1.0, 1.0, nbar=0.5),
        IndependentDephasing(1.0, 1.0),
        CollectiveDephasing(1.0),
    ):
        label = classify_channel(channel)
        labels = {ev.region.label for ev in label.evidence}
        if label.case == "i":
            assert labels == {LABEL_INTERIOR}
        elif label.case == "ii":
            assert LABEL_ENTANGLED not in labels and LABEL_BOUNDARY in labels
        elif label.case == "iii":
            assert labels == {LABEL_ENTANGLED}
        else:
            assert LABEL_ENTANGLED in labels and labels != {LABEL_ENTANGLED}


# --- the batched pass against the per-member loop ---------------------------

def assert_matches_scalar_loop(aset, n_samples=100, seed=0):
    label = classify_set(aset, n_samples=n_samples, seed=seed)
    family, case, rows = classify_set_scalar(aset, DEFAULT_TOL, n_samples, seed)
    assert (label.family, label.case) == (family, case)
    got = [
        (ev.state, ev.region.label, ev.region.margin, ev.region.rank_margin)
        for ev in label.evidence
    ]
    assert got == rows
    return label


@pytest.mark.parametrize(
    "w_zero, z_zero", [(True, True), (True, False), (False, False)],
    ids=["dephasing", "collective", "both-free"],
)
def test_family_classification_matches_scalar_loop_bit_for_bit(w_zero, z_zero):
    family = XFamily(w_zero=w_zero, z_zero=z_zero)
    for seed in (0, 1, 7):
        for n in (0, 1, 1000):
            assert_matches_scalar_loop(family, n, seed)
    # several chunks of random members, the last one partial
    assert_matches_scalar_loop(family, 2 * _CLASSIFY_MEMBERS + 5, 3)


def test_thermal_points_match_scalar_loop_bit_for_bit():
    for nbar in (0.0, 0.5):
        assert_matches_scalar_loop(SinglePoint(thermal_product(nbar)))


def stray_member(size):
    """A valid X state with one Hermitian pair of entries outside the
    X pattern, of magnitude ``size``."""
    m = embed_x(random_x(3)).matrix.copy()
    m[0, 1] = m[1, 0] = size
    return make_density(m)


MIXED_MEMBERS = (
    maximally_mixed(),
    embed_x(bell("psi-")),
    embed_x(werner(0.3)),
    random_density(1),
    embed_x(random_x(2)),
    stray_member(0.9 * DEFAULT_TOL.eps_psd),  # formats as x:
    stray_member(1.1 * DEFAULT_TOL.eps_psd),  # formats as dense:
    random_density(4),
)


def test_mixed_members_match_scalar_loop_bit_for_bit():
    label = assert_matches_scalar_loop(ExplicitSamples(MIXED_MEMBERS))
    kinds = [ev.state.split(":")[0] for ev in label.evidence]
    assert kinds == ["x", "x", "x", "dense", "x", "x", "dense", "dense"]
    one = assert_matches_scalar_loop(ExplicitSamples((random_density(5),)))
    assert one.family == FAMILY_ONE


def test_classify_position_is_the_batch_of_one():
    label = classify_set(ExplicitSamples(MIXED_MEMBERS))
    for rho, ev in zip(MIXED_MEMBERS, label.evidence):
        assert classify_position(rho) == ev.region
        assert classify_set(ExplicitSamples((rho,))).evidence[0] == ev


# --- malformed members -----------------------------------------------------

def _nan_diagonal():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 0] = np.nan
    return m


def _inf_entry():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = m[1, 0] = np.inf
    return m


HOSTILE_MEMBERS = {
    "nan-diagonal": (_nan_diagonal(), OutOfRangeError),
    "inf-entry": (_inf_entry(), OutOfRangeError),
    "all-nan": (np.full((4, 4), np.nan, dtype=complex), OutOfRangeError),
    "trace-two": (np.eye(4, dtype=complex) / 2.0, TraceNotOneError),
    "not-hermitian": (np.eye(4, dtype=complex) / 4.0 + np.triu(np.ones((4, 4)), 1) * 1e-3,
                      NotHermitianError),
    "not-positive": (np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), NotPositiveError),
}


@pytest.mark.parametrize("name", list(HOSTILE_MEMBERS))
def test_hostile_member_fails_loudly(name):
    matrix, error = HOSTILE_MEMBERS[name]
    hostile = DensityMatrix(matrix)
    with pytest.raises(error, match="^member 2: "):
        classify_set(ExplicitSamples((maximally_mixed(), hostile)))
    with pytest.raises(error):
        classify_position(hostile)


def test_hostile_member_in_a_later_chunk_is_named():
    members = (maximally_mixed(),) * (_CLASSIFY_MEMBERS + 1) + (
        DensityMatrix(np.eye(4, dtype=complex) / 2.0),
    )
    with pytest.raises(TraceNotOneError, match=f"^member {_CLASSIFY_MEMBERS + 2}: "):
        classify_set(ExplicitSamples(members))


# --- refusals and validation ------------------------------------------------

def test_classify_channel_refusals():
    with pytest.raises(UnsupportedChannelError):
        classify_channel(CustomChannel(((np.eye(4), 1.0),)))
    with pytest.raises(UnsupportedChannelError):
        classify_channel(IndependentDecay(1.0, 0.0, nbar=0.0))


def test_classify_empty_set():
    with pytest.raises(EmptySetError):
        classify_set(ExplicitSamples(()))


def test_scenario_label_validation():
    evidence = (Evidence("x:0.25,0.25,0.25,0.25,0,0", RegionLabel("interior", 0.25)),)
    with pytest.raises(ValidationError):
        ScenarioLabel("some", "i", evidence)
    with pytest.raises(ValidationError):
        ScenarioLabel(FAMILY_ONE, "v", evidence)
    with pytest.raises(ValidationError):
        ScenarioLabel(FAMILY_ONE, "iv", evidence)
    assert ScenarioLabel(FAMILY_MULTI, "iv", evidence).case == "iv"
    assert CASES == ("i", "ii", "iii", "iv")


# --- serialization ----------------------------------------------------------

def test_scenario_json_round_trip_hand_built():
    label = ScenarioLabel(
        FAMILY_MULTI,
        "iv",
        (
            Evidence("x:0.5,0,0,0.5,0.5,0", RegionLabel("entangled", -0.25)),
            Evidence("x:0.25,0.25,0.25,0.25,0,0", RegionLabel("interior", 0.25)),
        ),
    )
    back = scenario_from_json(scenario_to_json(label))
    assert (back.family, back.case) == (label.family, label.case)
    assert back.evidence == label.evidence


def test_scenario_json_round_trip_classifier_output():
    label = classify_channel(CollectiveDephasing(1.0), n_samples=10)
    back = scenario_from_json(scenario_to_json(label))
    assert (back.family, back.case) == (label.family, label.case)
    assert [ev.state for ev in back.evidence] == [ev.state for ev in label.evidence]
    assert [ev.region.label for ev in back.evidence] == [
        ev.region.label for ev in label.evidence
    ]
    np.testing.assert_array_equal(
        [ev.region.margin for ev in back.evidence],
        [ev.region.margin for ev in label.evidence],
    )


def test_scenario_json_errors():
    with pytest.raises(ParseError):
        scenario_from_json("{oops")
    with pytest.raises(ParseError):
        scenario_from_json('{"family": "one"}')
    with pytest.raises(ParseError):
        scenario_from_json(
            '{"family": "one", "case": "i", "evidence": [{"state": "x"}]}'
        )
