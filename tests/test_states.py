"""Construction, validation and serialization of two-qubit states."""

import itertools
import re

import numpy as np
import pytest

from _oracles import x_rule_scalar
from esdkit import (
    DEFAULT_TOL,
    DensityMatrix,
    ToleranceConfig,
    XState,
    bell,
    bell_mixture,
    eigenvalues_hermitian,
    embed_x,
    expectation,
    format_state_literal,
    local_coherences,
    make_density,
    make_x,
    maximally_mixed,
    observable,
    parse_dense_entries,
    parse_state_literal,
    project_x,
    random_density,
    random_x,
    reduce_qubit,
    werner,
)
from esdkit.errors import (
    BadDistributionError,
    NegativePopulationError,
    NotHermitianError,
    NotPositiveError,
    NotXFormError,
    OutOfRangeError,
    ParseError,
    TraceNotOneError,
    ValidationError,
)
from esdkit import states
from esdkit.states import _checked_x, _literal_stack, _x_stack

SX = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = 0.5 * np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def _faulty_members() -> dict:
    """One member per fault of the stack check: its matrix, error and message."""
    nan, inf_imag, asym = (np.eye(4, dtype=complex) / 4.0 for _ in range(3))
    nan[1, 2] = np.nan
    inf_imag[2, 2] = complex(0.25, np.inf)  # its average and trace stay finite
    asym[0, 1] = 1e-3
    return {
        "nan": (nan, OutOfRangeError, "density matrix has non-finite entries"),
        "inf-imag": (inf_imag, OutOfRangeError, "density matrix has non-finite entries"),
        "asym": (asym, NotHermitianError,
                 "density matrix deviates from Hermiticity by 1.000e-03 (> 1.0e-09)"),
        "trace": (np.eye(4, dtype=complex) / 2.0, TraceNotOneError,
                  "trace deviates from 1 by 1.000e+00 (> 1.0e-09)"),
        "psd": (np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), NotPositiveError,
                "minimum eigenvalue -5.000e-01 below -1.0e-09"),
    }


def test_first_of_several_bad_members_is_named_with_its_fault():
    # the finiteness test runs only on the first member that fails a cheaper
    # check; in any order, that member and its fault are the ones named
    members = _faulty_members()
    valid = [np.eye(4, dtype=complex) / 4.0] * 2
    for order in itertools.permutations(members):
        stack = np.stack(valid + [members[name][0] for name in order])
        _, error, message = members[order[0]]
        with pytest.raises(error, match=f"^member 3: {re.escape(message)}$"):
            states._density_stack(stack, DEFAULT_TOL, first=0)
    with pytest.raises(OutOfRangeError, match="^matrix has non-finite entries$"):
        eigenvalues_hermitian(members["inf-imag"][0])


def test_tolerance_defaults():
    tol = ToleranceConfig()
    assert tol.eps_trace == 1e-9
    assert tol.eps_psd == 1e-9
    assert tol.eps_ent == 1e-10
    assert tol.eps_death == 1e-10


def test_tolerance_domain():
    with pytest.raises(OutOfRangeError):
        ToleranceConfig(eps_trace=0.0)
    with pytest.raises(OutOfRangeError):
        ToleranceConfig(eps_psd=2e-2)
    # the upper end of the admissible band is allowed
    ToleranceConfig(eps_death=1e-2)


def test_make_density_accepts_valid():
    rho = make_density(np.eye(4) / 4.0)
    assert isinstance(rho, DensityMatrix)
    np.testing.assert_array_equal(rho.matrix, np.eye(4) / 4.0)
    assert not rho.matrix.flags.writeable


def test_make_density_hermitizes_roundoff():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 1e-12
    rho = make_density(m)
    np.testing.assert_array_equal(rho.matrix, rho.matrix.conj().T)


def test_make_density_rejections():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 0.3  # grossly non-Hermitian
    with pytest.raises(NotHermitianError):
        make_density(m)
    with pytest.raises(TraceNotOneError):
        make_density(np.eye(4) / 2.0)
    bad = np.diag([0.6, 0.5, 0.0, -0.1])
    with pytest.raises(NotPositiveError):
        make_density(bad)
    with pytest.raises(ValidationError):
        make_density(np.eye(3) / 3.0)
    for value in (np.nan, np.inf, complex(0.0, np.nan)):
        entries = np.eye(4, dtype=complex) / 4.0
        entries[3, 3] = value
        with pytest.raises(OutOfRangeError):
            make_density(entries)


def test_make_x_validation():
    x = make_x(0.5, 0.0, 0.0, 0.5, w=0.5)
    assert isinstance(x, XState)
    with pytest.raises(NegativePopulationError):
        make_x(-0.1, 0.4, 0.4, 0.3)
    with pytest.raises(TraceNotOneError):
        make_x(0.3, 0.3, 0.3, 0.3)
    with pytest.raises(NotPositiveError):
        make_x(0.5, 0.0, 0.0, 0.5, w=0.51)
    with pytest.raises(NotPositiveError):
        make_x(0.25, 0.25, 0.25, 0.25, z=0.26)
    with pytest.raises(OutOfRangeError):
        make_x(float("nan"), 0.0, 0.0, 1.0)
    with pytest.raises(OutOfRangeError):
        make_x(0.5, 0.0, 0.0, 0.5, w=complex(0.0, float("nan")))
    with pytest.raises(OutOfRangeError):
        make_x(0.5, 0.0, 0.0, 0.5, z=float("inf"))


def _x_params(rows):
    return tuple(np.array(col) for col in zip(*rows))


def test_x_stack_matches_embed_x_bit_for_bit():
    xs = [random_x(seed) for seed in range(50)] + [bell("phi-"), werner(0.2)]
    stack = _x_stack(_x_params((x.a, x.b, x.c, x.d, x.w, x.z) for x in xs))
    for x, m in zip(xs, stack):
        assert m.tobytes() == embed_x(x).matrix.tobytes()


@pytest.mark.parametrize("bad, error", [
    ((-0.1, 0.4, 0.4, 0.3, 0.0, 0.0), NegativePopulationError),
    ((0.3, 0.3, 0.3, 0.3, 0.0, 0.0), TraceNotOneError),
    ((0.5, 0.0, 0.0, 0.5, 0.51, 0.0), NotPositiveError),
    ((0.25, 0.25, 0.25, 0.25, 0.0, 0.26), NotPositiveError),
    ((float("nan"), 0.0, 0.0, 1.0, 0.0, 0.0), OutOfRangeError),
    ((0.5, 0.0, 0.0, 0.5, complex(0.0, float("inf")), 0.0), OutOfRangeError),
    # |w|^2 above (a + eps_psd)(d + eps_psd) by Python's abs and a square, not by numpy's
    ((0.4598761641418843, 0.1718529728040154, 0.1718529728040154, 0.19641789025008494,
      0.2565094451106953 - 0.15662315014820752j, 0.0), NotPositiveError),
])
def test_x_stack_raises_make_x_error_for_first_failing_member(bad, error):
    good = (0.25, 0.25, 0.25, 0.25, 0.1, 0.0)
    later = (0.5, 0.5, 0.5, 0.5, 0.0, 0.0)  # fails too, but later
    with pytest.raises(error) as want:
        make_x(*bad)
    with pytest.raises(error) as got:
        _x_stack(_x_params([good, bad, good, later]))
    assert str(got.value) == str(want.value)


def _x_members(rng, n):
    """``n`` random X members as (a, b, c, d, w, z) columns; about one in 24
    has its trace drift near ``eps_trace``, one a population near
    ``-eps_psd``, one a non-finite field, and a coherence may pass its bound."""
    eps = DEFAULT_TOL.eps_psd
    pops = rng.dirichlet(np.ones(4), n)
    mode = rng.integers(0, 24, n)
    pops[mode == 1] *= 1.0 + rng.uniform(-2.0 * eps, 2.0 * eps, ((mode == 1).sum(), 1))
    # one population near -eps_psd, its mass moved to the next one
    rows = np.flatnonzero(mode == 2)
    cols = rng.integers(0, 4, rows.size)
    low = -eps * rng.uniform(0.5, 1.5, rows.size)
    pops[rows, (cols + 1) % 4] += pops[rows, cols] - low
    pops[rows, cols] = low
    a, b, c, d = pops.T
    radii = rng.uniform(0.0, 1.01, (2, n)) * np.sqrt(np.abs([a * d, b * c]) + eps)
    w, z = radii * np.exp(2j * np.pi * rng.uniform(size=(2, n)))
    fields = np.column_stack([a, b, c, d, w.real, w.imag, z.real, z.imag])
    bad = np.flatnonzero(mode == 3)
    fields[bad, rng.integers(0, 8, bad.size)] = rng.choice([np.nan, np.inf, -np.inf], bad.size)
    # each (re, im) pair read as one complex, so an inf part stays alone
    return (*fields[:, :4].T, *np.ascontiguousarray(fields[:, 4:]).view(complex).T)


def _ulps(values, steps):
    """``values`` moved by ``steps`` ulps (towards +inf if positive)."""
    for _ in range(abs(steps)):
        values = np.nextafter(values, np.inf if steps > 0 else -np.inf)
    return values


def _x_near_bounds(rng, n):
    """Members within four ulps of each bound: the trace at ``1 +- eps_trace``
    (through ``d``), ``a`` at ``-eps_psd``, and ``|w|``, ``|z|`` at the root
    of their bound, along an axis or at a random phase."""
    eps = DEFAULT_TOL.eps_psd
    members = []
    for steps in range(-4, 5):
        a, b, c, d = rng.dirichlet(np.ones(4), n).T
        zero = np.zeros(n, dtype=complex)
        sign = rng.choice([-1.0, 1.0], n)
        members.append((a, b, c, _ulps((1.0 + sign * eps) - (a + b + c), steps), zero, zero))
        low = _ulps(np.full(n, -eps), steps)
        members.append((low, b, c, 1.0 - low - b - c, zero, zero))
        phase = np.exp(1j * rng.choice([0.0, 0.5 * np.pi, rng.uniform(0, 2 * np.pi)], n))
        members.append((a, b, c, d, _ulps(np.sqrt((a + eps) * (d + eps)), steps) * phase, zero))
        members.append((a, b, c, d, zero, _ulps(np.sqrt((b + eps) * (c + eps)), steps) * phase))
    return tuple(map(np.concatenate, zip(*members)))


def test_x_stack_follows_the_scalar_rule_member_by_member():
    rng = np.random.default_rng(18)
    params = tuple(map(np.concatenate, zip(_x_members(rng, 100_000), _x_near_bounds(rng, 150))))
    rules = [x_rule_scalar(*member, DEFAULT_TOL) for member in zip(*params)]
    failing = [i for i, rule in enumerate(rules) if rule is not None]
    # each check both passes and fails somewhere, near its bound too
    assert {rule[0] for rule in rules if rule} == set(states._X_CHECKS)
    assert 5_000 < len(failing) < 0.5 * len(rules)
    start = 0
    for i in [*failing, len(rules)]:
        # members start..i-1 pass; member i, the first to fail from start, fails its check
        _x_stack(tuple(p[start:i] for p in params))
        if i == len(rules):
            break
        check, error, message = rules[i]
        head = tuple(p[start:i + 1] for p in params)
        assert _checked_x(head) == (i - start, check)
        with pytest.raises(error) as got:
            _x_stack(head)
        assert str(got.value) == message
        start = i + 1


@pytest.mark.parametrize("member", [
    (-0.1, 0.4, 0.4, 0.3, 0.0, 0.0), (0.3, 0.3, 0.3, 0.3, 0.0, 0.0),
    (0.5, 0.0, 0.0, 0.5, 0.51, 0.0), (0.25, 0.25, 0.25, 0.25, 0.0, 0.26j),
    (np.nan, 0.0, 0.0, 1.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.5, 0.0, complex(np.inf, 0.0)),
    # |w|^2 is inf, where abs(w) ** 2 raised OverflowError
    (0.5, 0.0, 0.0, 0.5, 1e200, 0.0),
])
def test_x_messages_spell_python_numbers(member):
    params = tuple(np.array([value]) for value in member)
    messages = []
    for call in (lambda: _x_stack(params), lambda: make_x(*(p[0] for p in params))):
        with pytest.raises(ValidationError) as got:
            call()
        messages.append(str(got.value))
    assert messages[0] == messages[1] == x_rule_scalar(*member, DEFAULT_TOL)[2]
    assert "np." not in messages[0]


def test_literal_stack_matches_member_by_member_parse(monkeypatch):
    texts = [format_state_literal(random_x(seed)) for seed in range(20)]
    texts[3::4] = [format_state_literal(random_density(seed)) for seed in range(5)]
    texts += [" x: 0.5,0,0 ,0.5,-0.0,-0.0,0,-0.0\n",
              "dense: 0.25:0,0:-0.0,0:0,0:0, 0:0,0.25:0,0:0,0:0, "
              "0:0,0:0,0.25:-0.0,0:0, 0:0,0:0,0:0,0.25:0 ",
              # underscores, signs, exponents and whitespace that float() accepts
              "x:0.2_5,\t0.25 ,+0.25,2.5e-1,1E-1,-0.0, 0 ,0",
              "dense:0.2_5 : 0,0:0,0:0,0:0,0:0,+0.25\t:-0.0,0:0,0:0,"
              "0:0,0:0,2_5e-2:0,0:0,0:0,0:0,0:0,0.25:0_0"]
    members = [parse_state_literal(text) for text in texts]
    want = [embed_x(m) if isinstance(m, XState) else m for m in members]

    def per_member(*args, **kwargs):
        raise AssertionError("a valid stack was parsed member by member")

    for name in ("parse_state_literal", "make_x", "make_density", "embed_x"):
        monkeypatch.setattr(states, name, per_member)
    stack = _literal_stack(texts)
    assert [m.tobytes() for m in stack] == [m.matrix.tobytes() for m in want]
    assert _literal_stack([]).shape == (0, 4, 4)


def test_embed_project_round_trip():
    x = make_x(0.4, 0.1, 0.2, 0.3, w=0.2 + 0.1j, z=0.05 - 0.1j)
    back = project_x(embed_x(x))
    assert (back.a, back.b, back.c, back.d) == (x.a, x.b, x.c, x.d)
    assert back.w == x.w and back.z == x.z


def test_embed_places_entries_on_pattern():
    x = make_x(0.4, 0.1, 0.2, 0.3, w=0.2 + 0.1j, z=0.05 - 0.1j)
    m = embed_x(x).matrix
    np.testing.assert_array_equal(np.diag(m), [0.4, 0.1, 0.2, 0.3])
    assert m[0, 3] == x.w and m[3, 0] == np.conj(x.w)
    assert m[1, 2] == x.z and m[2, 1] == np.conj(x.z)
    off_pattern = m.copy()
    off_pattern[[0, 3, 1, 2], [3, 0, 2, 1]] = 0.0
    np.testing.assert_array_equal(off_pattern, np.diag(np.diag(off_pattern)))


def test_project_x_rejects_dense():
    with pytest.raises(NotXFormError):
        project_x(random_density(3))


def test_reductions_of_x_states_are_diagonal():
    x = make_x(0.4, 0.1, 0.2, 0.3, w=0.2j, z=0.1)
    rho = embed_x(x)
    for party in "AB":
        red = reduce_qubit(rho, party).matrix
        assert red[0, 1] == 0.0 and red[1, 0] == 0.0
        np.testing.assert_allclose(np.trace(red).real, 1.0, atol=1e-15)
    coh_a, coh_b = local_coherences(rho)
    assert coh_a == 0.0 and coh_b == 0.0


def test_reduction_values():
    x = make_x(0.4, 0.1, 0.2, 0.3)
    red_a = reduce_qubit(embed_x(x), "A").matrix
    red_b = reduce_qubit(embed_x(x), "B").matrix
    np.testing.assert_allclose(np.diag(red_a).real, [0.5, 0.5])
    np.testing.assert_allclose(np.diag(red_b).real, [0.6, 0.4])
    with pytest.raises(ValidationError):
        reduce_qubit(embed_x(x), "C")


def test_bell_states():
    phi = bell("phi+")
    assert (phi.a, phi.d, phi.w) == (0.5, 0.5, 0.5 + 0.0j)
    psi = bell("psi-")
    assert (psi.b, psi.c, psi.z) == (0.5, 0.5, -0.5 + 0.0j)
    with pytest.raises(ValidationError):
        bell("omega")


def test_werner_family():
    quarter = embed_x(werner(0.25))
    np.testing.assert_array_equal(quarter.matrix, np.eye(4) / 4.0)
    singlet = werner(0.5)
    assert singlet.b == 0.5 and singlet.z == -0.5
    for bad in (0.1, 0.6):
        with pytest.raises(OutOfRangeError):
            werner(bad)


def test_bell_mixture():
    x = bell_mixture([0.4, 0.2, 0.3, 0.1])
    np.testing.assert_allclose([x.a, x.b, x.c, x.d], [0.3, 0.2, 0.2, 0.3])
    np.testing.assert_allclose([x.w, x.z], [0.1, 0.1])
    with pytest.raises(BadDistributionError):
        bell_mixture([0.5, 0.5])
    with pytest.raises(BadDistributionError):
        bell_mixture([0.7, 0.5, -0.1, -0.1])
    with pytest.raises(BadDistributionError):
        bell_mixture([0.3, 0.3, 0.3, 0.3])
    # NaN compares False: each weight check still refuses it, naming the weight
    for weights in ([np.nan, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, np.nan]):
        with pytest.raises(BadDistributionError, match="^weight nan is negative or not a number$"):
            bell_mixture(weights)


def test_random_density_determinism_and_validity():
    first = random_density(11)
    second = random_density(11)
    np.testing.assert_array_equal(first.matrix, second.matrix)
    for seed in range(50):
        rho = random_density(seed)
        m = rho.matrix
        np.testing.assert_array_equal(m, m.conj().T)
        np.testing.assert_allclose(np.trace(m).real, 1.0, atol=DEFAULT_TOL.eps_trace)
        assert np.linalg.eigvalsh(m).min() >= -DEFAULT_TOL.eps_psd


def test_random_x_determinism_and_validity():
    first = random_x(11)
    assert first == random_x(11)
    for seed in range(200):
        x = random_x(seed)
        assert min(x.a, x.b, x.c, x.d) >= 0.0
        assert abs(x.a + x.b + x.c + x.d - 1.0) <= DEFAULT_TOL.eps_trace
        assert abs(x.w) ** 2 <= x.a * x.d + 1e-15
        assert abs(x.z) ** 2 <= x.b * x.c + 1e-15


def test_expectation_eigenstate():
    phi = embed_x(bell("phi+"))
    proj = observable(phi.matrix)  # pure state: the matrix is its own projector
    np.testing.assert_allclose(expectation(phi, proj), 1.0)


def test_expectation_traceless_on_mixed():
    obs = observable(np.kron(SX, SY) + np.kron(SY, SX))
    np.testing.assert_allclose(expectation(maximally_mixed(), obs), 0.0, atol=1e-15)


def test_expectation_reads_coherence():
    # S_x(x)S_x - S_y(x)S_y couples only the |ee>,|gg| pair: trace = Re(w)
    obs = observable(np.kron(SX, SX) - np.kron(SY, SY))
    for w in (0.5, 0.3 - 0.2j, -0.1 + 0.4j):
        x = make_x(0.5, 0.0, 0.0, 0.5, w=w)
        direct = np.trace(embed_x(x).matrix @ obs.matrix).real
        np.testing.assert_allclose(expectation(embed_x(x), obs), direct, atol=1e-15)
        np.testing.assert_allclose(direct, complex(w).real, atol=1e-15)


def test_observable_rejects_gross_asymmetry():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NotHermitianError):
        observable(m)
    # non-finite entries are rejected before the asymmetry, which they make NaN
    for bad in (np.full((4, 4), np.nan), np.diag([np.inf, 0.0, 0.0, 0.0])):
        with pytest.raises(OutOfRangeError, match="^observable has non-finite entries$"):
            observable(bad)


def test_x_literal_round_trip():
    x = make_x(0.4, 0.1, 0.2, 0.3, w=0.2 + 0.1j, z=-0.05 + 0.125j)
    literal = format_state_literal(x)
    assert literal.startswith("x:")
    back = parse_state_literal(literal)
    assert back == x


def test_dense_literal_round_trip():
    rho = random_density(5)
    literal = format_state_literal(rho)
    assert literal.startswith("dense:")
    back = parse_state_literal(literal)
    np.testing.assert_array_equal(back.matrix, rho.matrix)


def test_parse_dense_entries_optional_prefix():
    rho = maximally_mixed()
    literal = format_state_literal(rho)
    np.testing.assert_array_equal(parse_dense_entries(literal), rho.matrix)
    np.testing.assert_array_equal(
        parse_dense_entries(literal.removeprefix("dense:")), rho.matrix
    )


def test_parse_state_literal_errors():
    for bad in (
        "x:1,2,3",                       # wrong arity
        "x:a,b,c,d,e,f,g,h",             # non-numeric
        "dense:1:0,2:0",                 # wrong arity
        "dense:" + ",".join(["nope"] * 16),
        "wat:1,2,3",
    ):
        with pytest.raises(ParseError):
            parse_state_literal(bad)
    # well-formed literal with an invalid state surfaces validation errors
    with pytest.raises(NotPositiveError):
        parse_state_literal("x:0.5,0.0,0.0,0.5,0.9,0.0,0.0,0.0")


@pytest.mark.parametrize("text, message", [
    ("x:1,2,3", "x literal needs 8 comma-separated fields"),
    ("x:0.5:0,0,0.5,0,0,0,0,0", "x literal needs 8 comma-separated fields"),
    ("x:0.5,zero,0,0.5,0,0,0,0",
     "x literal has a non-numeric field (could not convert string to float: 'zero')"),
    ("dense:0.25:0,0:0,0:0", "dense literal needs 16 comma-separated re:im entries"),
    ("dense:" + ",".join(["0.25"] * 16), "dense literal needs 16 comma-separated re:im entries"),
    ("dense:" + ",".join(["nope:0"] * 16),
     "dense literal has a non-numeric field (could not convert string to float: 'nope')"),
], ids=["x-arity", "x-colon", "x-non-numeric", "dense-arity", "dense-no-colon",
        "dense-non-numeric"])
def test_malformed_literal_messages(text, message):
    calls = [parse_state_literal] + [parse_dense_entries] * text.startswith("dense:")
    for call in calls:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            call(text)


def test_literal_floats_survive_repr_round_trip():
    x = make_x(1.0 / 3.0, 1.0 / 7.0, 0.2, 1.0 - 1.0 / 3.0 - 1.0 / 7.0 - 0.2,
               w=np.sqrt(2.0) / 5.0)
    back = parse_state_literal(format_state_literal(x))
    assert back.a == x.a and back.b == x.b and back.c == x.c and back.d == x.d
    assert back.w == x.w and back.z == x.z
