"""Scenario classification of asymptotic sets and channels."""

import json
import re

import numpy as np
import pytest

from _oracles import classify_set_scalar, scenario_to_json_reference
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
from esdkit._floattext import _KERNEL_FROM
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
from esdkit.states import _X_PATTERN, _literal_fields, _stack_literals

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


def test_negative_seed_or_count_is_refused_for_every_set_type():
    sets = (SinglePoint(thermal_product(0.0)), ExplicitSamples((maximally_mixed(),)),
            XFamily(w_zero=True, z_zero=False))
    for aset in (*sets, np.array([np.eye(4) / 4.0])):
        for n_samples, seed, name in ((0, -3, "seed"), (5, -1, "seed"), (-1, 0, "n_samples")):
            match = f"^{name} must be nonnegative, got -"
            with pytest.raises(OutOfRangeError, match=match):
                classify_set(aset, n_samples=n_samples, seed=seed)
            if not isinstance(aset, np.ndarray):
                with pytest.raises(OutOfRangeError, match=match):
                    sample_asymptotic(aset, n_samples=n_samples, seed=seed)


def test_non_integer_seed_or_count_is_refused_by_name():
    sets = (SinglePoint(thermal_product(0.0)), XFamily(w_zero=True, z_zero=False))
    for n_samples, seed, name in ((2.5, 0, "n_samples"), (5, 0.5, "seed"), (5, "1", "seed"),
                                  (None, 0, "n_samples"), (np.float64(3.0), 0, "n_samples")):
        match = f"^{name} must be an integer, got "
        for aset in sets:
            with pytest.raises(OutOfRangeError, match=match):
                classify_set(aset, n_samples=n_samples, seed=seed)
            with pytest.raises(OutOfRangeError, match=match):
                sample_asymptotic(aset, n_samples=n_samples, seed=seed)
        for channel in (IndependentDecay(1, 1), CollectiveDephasing(1.0)):
            with pytest.raises(OutOfRangeError, match=match):
                classify_channel(channel, n_samples=n_samples, seed=seed)
    # anything operator.index takes is an integer, as for range()
    label = classify_channel(CollectiveDephasing(1.0), n_samples=np.int64(5), seed=np.uint8(3))
    same = classify_channel(CollectiveDephasing(1.0), n_samples=5, seed=3)
    assert scenario_to_json(label) == scenario_to_json(same)


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


def test_family_comes_from_the_member_count():
    rho = embed_x(bell("phi+"))
    for aset in (SinglePoint(rho), ExplicitSamples((rho,)), rho.matrix[None]):
        assert classify_set(aset).family == FAMILY_ONE
    # an X family always yields its 8 or more probe members
    for w_zero in (False, True):
        label = classify_set(XFamily(w_zero, True), n_samples=0)
        assert (label.family, len(label.evidence) >= 8) == (FAMILY_MULTI, True)


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
    # several chunks of random members, the last one partial; 600 members
    # also cross the size from which format_rows uses its kernel
    assert_matches_scalar_loop(family, 2 * _CLASSIFY_MEMBERS + 5, 3)
    assert_matches_scalar_loop(family, 600, 5)


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
    # more members than a chunk, each form above format_rows' kernel switch
    many = MIXED_MEMBERS + tuple(
        random_density(seed) if seed % 3 == 2 else embed_x(random_x(seed)) for seed in range(320))
    label = assert_matches_scalar_loop(ExplicitSamples(many))
    dense = sum(ev.state.startswith("dense:") for ev in label.evidence)
    assert min(32 * dense, 8 * (len(many) - dense)) > _KERNEL_FROM


def test_member_stack_classifies_as_explicit_samples():
    stack = np.array([rho.matrix for rho in MIXED_MEMBERS])
    assert classify_set(stack).evidence == classify_set(ExplicitSamples(MIXED_MEMBERS)).evidence
    # a real-valued stack writes the eight x: fields, as its complex twin
    real = classify_set(np.array([np.eye(4) / 4.0]))
    assert real.evidence == classify_set(ExplicitSamples((maximally_mixed(),))).evidence
    one = classify_set(stack[3:4])
    assert (one.family, one.evidence) == (FAMILY_ONE, classify_set(
        ExplicitSamples(MIXED_MEMBERS[3:4])).evidence)


@pytest.mark.parametrize("members", [
    np.zeros((2, 4)), np.array([np.eye(3) / 3.0] * 2), np.zeros((2, 3, 3)), np.eye(4) / 4.0,
], ids=["2x4", "eye3-stack", "zeros3-stack", "bare-4x4"])
def test_member_array_of_wrong_shape_is_refused(members):
    shape = re.escape(str(members.shape))
    with pytest.raises(ValidationError, match=rf"^expected an \(n, 4, 4\) member array, "
                                              rf"got shape {shape}$"):
        classify_set(members)


def test_classify_set_evidence_is_a_read_only_sequence():
    label = classify_set(ExplicitSamples(MIXED_MEMBERS))
    evidence, built = label.evidence, tuple(label.evidence)
    assert len(evidence) == len(built) == len(MIXED_MEMBERS)
    assert all(isinstance(ev, Evidence) for ev in built)
    assert (evidence[0], evidence[-1]) == (built[0], built[-1])
    with pytest.raises(IndexError):
        evidence[len(MIXED_MEMBERS)]
    with pytest.raises(TypeError):
        evidence[0] = built[1]
    with pytest.raises(TypeError):
        evidence[:2]
    assert list(evidence) == list(built)
    assert evidence == built and built == evidence
    assert evidence != built[:-1] and built[:-1] != evidence
    assert evidence != list(built)
    assert hash(evidence) == hash(built)
    # JSON carries no rank margin: the round trip is the evidence without it,
    # which writes the same bytes by the hand-built path
    bare = tuple(Evidence(ev.state, RegionLabel(ev.region.label, ev.region.margin))
                 for ev in evidence)
    assert scenario_from_json(scenario_to_json(label)).evidence == bare
    assert scenario_to_json(ScenarioLabel(label.family, label.case, bare)) == (
        scenario_to_json(label))


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


def test_lowest_failing_member_is_named():
    # member 2 is off unit trace; member 3 fails the earlier non-finite check
    nan_member = np.eye(4, dtype=complex) / 4.0
    nan_member[1, 2] = np.nan
    members = (maximally_mixed(), DensityMatrix(np.eye(4, dtype=complex) / 2.0),
               DensityMatrix(nan_member))
    with pytest.raises(TraceNotOneError, match="^member 2: trace deviates from 1 by "):
        classify_set(ExplicitSamples(members))
    with pytest.raises(OutOfRangeError, match="^member 2: density matrix has non-finite"):
        classify_set(ExplicitSamples(members[::2] + members[1:2]))
    # a positivity failure ahead of a cheaper failure is still the one named
    not_positive = DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(NotPositiveError, match="^member 2: minimum eigenvalue "):
        classify_set(ExplicitSamples((members[0], not_positive, members[2])))


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


CATALOG = (
    IndependentDecay(1.0, 1.0, nbar=0.0),
    IndependentDecay(1.0, 0.5, nbar=0.5),
    IndependentDephasing(1.0, 2.0),
    CollectiveDephasing(1.0),
)


def test_scenario_json_matches_json_dumps_byte_for_byte():
    labels = [classify_channel(channel, n_samples=n) for channel in CATALOG for n in (0, 5, 100)]
    labels.append(classify_set(ExplicitSamples(MIXED_MEMBERS)))
    labels.append(ScenarioLabel(FAMILY_MULTI, "i", ()))
    states = ('x:"quoted"', "back\\slash", "caf\u00e9 \u2603\n", "x:0.5,0,0,0.5,0,0,0,0")
    margins = (np.float64(-0.125), -0.0, 5e-324, 1e300)
    labels.append(ScenarioLabel(FAMILY_MULTI, "iv", tuple(
        Evidence(state, RegionLabel(LABEL_BOUNDARY, margin))
        for state, margin in zip(states, margins)
    )))
    # literals and margins above format_rows' kernel switch, margins hand-built
    labels.append(classify_channel(CollectiveDephasing(1.0), n_samples=1000))
    margins = (-0.0, 5e-324, 1e-05, 1e16, 1e22, -0.125, 1e300)
    labels.append(ScenarioLabel(FAMILY_MULTI, "iv", tuple(
        Evidence(states[k % 4], RegionLabel(LABEL_BOUNDARY, margins[k % 7] * (1 + k // 7)))
        for k in range(2 * _KERNEL_FROM))))
    for label in labels:
        assert scenario_to_json(label) == scenario_to_json_reference(label)


def test_classifier_literals_need_no_json_escapes():
    # scenario_to_json quotes classify_set's literals without a scan: finite
    # floats of any bits spell only digits and . e + -, in x: and dense:
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 32 * 256, dtype=np.uint64).view(np.float64)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300,
                1.7976931348623157e308, 1e16, 1e-05, 0.1]
    subnormals = rng.integers(1, 2**52, 200, dtype=np.uint64).view(np.float64)
    values = np.where(np.isfinite(bits), bits, 0.0)
    values[:len(specials) + 2 * len(subnormals)] = np.concatenate(
        (specials, subnormals, -subnormals))
    alphabet = set("xdens:,.+-0123456789")
    for n in (3, 256):
        stack = values[: 32 * n].view(complex).reshape(n, 4, 4)
        x_members = np.where(_X_PATTERN, stack, 0.0)
        dense_members = stack.copy()
        dense_members[:, 0, 1] = 1.0
        parts = zip(_literal_fields(x_members), _literal_fields(dense_members))
        literals = _stack_literals(*map(np.concatenate, parts))
        assert [lit.split(":")[0] for lit in literals] == ["x"] * n + ["dense"] * n
        for literal in literals:
            assert set(literal) <= alphabet, literal
            assert json.dumps(literal) == '"' + literal + '"'


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), -float("inf")])
def test_scenario_json_refuses_non_finite_margin(margin):
    label = ScenarioLabel(FAMILY_ONE, "ii", (Evidence("x:1,0,0,0,0,0,0,0", RegionLabel(
        LABEL_BOUNDARY, margin)),))
    with pytest.raises(ValidationError, match="non-finite margin"):
        scenario_to_json(label)


def test_scenario_json_errors():
    with pytest.raises(ParseError):
        scenario_from_json("{oops")
    with pytest.raises(ParseError):
        scenario_from_json('{"family": "one"}')
    with pytest.raises(ParseError):
        scenario_from_json(
            '{"family": "one", "case": "i", "evidence": [{"state": "x"}]}'
        )

    def document(state='"x:1,0,0,0,0,0,0,0"', label='"boundary"', margin="0.0",
                 evidence=None, family='"one"'):
        entry = f'{{"state": {state}, "label": {label}, "margin": {margin}}}'
        evidence = f"[{entry}]" if evidence is None else evidence
        return f'{{"family": {family}, "case": "ii", "evidence": {evidence}}}'

    for bad in (
        document(evidence="5"),
        document(evidence="[5]"),
        document(state="5"),
        document(label='"bogus"'),
        *(document(margin=margin)
          for margin in ('"abc"', "[1]", "true", "NaN", "-Infinity", "1e400", "1" + "0" * 400)),
        document(family='"some"'),
    ):
        with pytest.raises(ParseError):
            scenario_from_json(bad)
    # an integer margin is a finite number
    assert scenario_from_json(document(margin="0")).evidence[0] == (
        Evidence("x:1,0,0,0,0,0,0,0", RegionLabel(LABEL_BOUNDARY, 0.0)))
