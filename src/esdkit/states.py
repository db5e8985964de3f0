"""Two-qubit states and the X-state parametrization.

Conventions
-----------
The Hilbert space is C^2 (x) C^2 with qubit A the first factor and qubit B
the second.  Basis ordering is ``|1> = |ee>``, ``|2> = |eg>``, ``|3> = |ge>``,
``|4> = |gg>`` where ``e`` is the excited (spin-up) level and ``g`` the
ground (spin-down) level; row/column index ``i`` therefore encodes A on
``i // 2`` and B on ``i % 2`` with the excited level at index 0.

An X state keeps only the diagonal populations ``a, b, c, d`` (in basis
order) and the two anti-diagonal coherences ``w = rho_14`` (outer, between
``|ee>`` and ``|gg>``) and ``z = rho_23`` (inner, between ``|eg>`` and
``|ge>``).  Positivity of such a matrix is equivalent to ``|w|^2 <= a d``
and ``|z|^2 <= b c`` on top of nonnegative populations.

Dense matrices are stored row-major; literals serialize them the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._floattext import format_rows
from .errors import (
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

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "DensityMatrix",
    "XState",
    "QubitState",
    "HermitianObservable",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "IDENTITY_2",
    "make_density",
    "make_x",
    "embed_x",
    "project_x",
    "reduce_qubit",
    "local_coherences",
    "maximally_mixed",
    "bell",
    "werner",
    "bell_mixture",
    "random_density",
    "random_x",
    "observable",
    "expectation",
    "parse_state_literal",
    "format_state_literal",
    "parse_dense_entries",
    "format_dense_entries",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# excited level sits at index 0, so sigma_minus maps |e> -> |g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T.copy()
IDENTITY_2 = np.eye(2, dtype=complex)

# the eight entries an X state may occupy: the diagonal and the anti-diagonal
_X_PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_MINUS, SIGMA_PLUS, IDENTITY_2, _X_PATTERN):
    _m.setflags(write=False)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used by validation and classification.

    ``eps_trace`` bounds trace drift, ``eps_psd`` bounds eigenvalue /
    Hermiticity slack, ``eps_ent`` is the entanglement decision band and
    ``eps_death`` the negativity threshold for death-time detection.
    All must lie in (0, 1e-2].
    """

    eps_trace: float = 1e-9
    eps_psd: float = 1e-9
    eps_ent: float = 1e-10
    eps_death: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("eps_trace", "eps_psd", "eps_ent", "eps_death"):
            value = getattr(self, name)
            if not 0.0 < value <= 1e-2:
                raise OutOfRangeError(
                    f"{name}={value!r} outside the admissible interval (0, 1e-2]"
                )


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated 4x4 density matrix.

    Construct through :func:`make_density`; instances hold an exactly
    Hermitian, read-only array with trace within ``eps_trace`` of 1 and
    minimum eigenvalue above ``-eps_psd``.
    """

    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class XState:
    """Populations and anti-diagonal coherences of an X state.

    Construct through :func:`make_x`, which enforces the positivity
    constraints; direct instantiation performs no checks.
    """

    a: float
    b: float
    c: float
    d: float
    w: complex
    z: complex


@dataclass(frozen=True, eq=False)
class QubitState(DensityMatrix):
    """Validated 2x2 reduced state of a single qubit."""


@dataclass(frozen=True, eq=False)
class HermitianObservable:
    """Exactly Hermitian 4x4 observable (read-only array); construct through
    :func:`observable`, which rejects non-finite entries and asymmetry."""

    matrix: np.ndarray = field(repr=False)


def _frozen(matrix: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(matrix, dtype=complex)
    out.setflags(write=False)
    return out


def _unchecked_density(matrix: np.ndarray) -> DensityMatrix:
    """Wrap a matrix known-valid by construction.  Internal."""
    return DensityMatrix(_frozen(matrix))


def make_density(entries, tol: ToleranceConfig = DEFAULT_TOL) -> DensityMatrix:
    """Validate entries as a two-qubit density matrix.

    Hermiticity is enforced exactly by averaging with the conjugate
    transpose once the asymmetry is below ``eps_psd``; trace and
    positivity are then checked against ``eps_trace`` and ``eps_psd``.

    Raises
    ------
    OutOfRangeError, NotHermitianError, TraceNotOneError, NotPositiveError
    """
    matrix = np.asarray(entries, dtype=complex)
    if matrix.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got shape {matrix.shape}")
    return DensityMatrix(_frozen(_density_stack(matrix[None], tol)[0][0]))


def _averaged(stack: np.ndarray) -> tuple:
    """Each member's asymmetry ``|m - m^dag|`` and average, members square of
    any size.  A non-finite entry makes its member's asymmetry NaN or inf."""
    # callers ignore overflow: non-finite members and finite ones whose
    # differences overflow fail the checks; halving first keeps a Hermitian
    # pair near 1e308 finite
    adjoint = stack.conj().transpose(0, 2, 1)
    return np.abs(stack - adjoint).max(axis=(1, 2)), 0.5 * stack + 0.5 * adjoint


def _checked_stack(stack: np.ndarray, tol: ToleranceConfig, normalize: bool = False) -> tuple:
    """Check an (n, 4, 4) stack member by member for finite entries (fault
    ``"finite"``), asymmetry ``|m - m^dag|`` within ``eps_psd`` (``"asym"``),
    then the average ``(m + m^dag) / 2`` for trace (summed left to right)
    within ``eps_trace`` of 1 (``"trace"``) and, divided by numpy's trace if
    ``normalize``, lowest eigenvalue at least ``-eps_psd`` (``"psd"``).
    Returns ``(hermitian, lowest, i, kind, value)``: the averages and lowest
    eigenvalues up to the first failure ``i`` (``len(stack)`` if none), its
    fault and the asymmetry, trace or eigenvalue it failed on (else ``None``)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing trace fails too
        asym, hermitian = _averaged(stack)
        diag = hermitian.diagonal(axis1=1, axis2=2).real
        trace = diag[:, 0] + diag[:, 1] + diag[:, 2] + diag[:, 3]  # as make_x sums
    # a NaN asymmetry or trace compares False, so it fails
    cheap_bad = ~(asym <= tol.eps_psd) | ~(np.abs(trace - 1.0) <= tol.eps_trace)
    # only members before the first to fail a cheaper check need eigenvalues
    k = int(cheap_bad.argmax()) if cheap_bad.any() else len(stack)
    if normalize:  # numpy's trace sums pairwise; RK4's reference outputs pin its bits
        hermitian[:k] /= hermitian[:k].trace(axis1=1, axis2=2).real[:, None, None]
    lowest = np.linalg.eigvalsh(hermitian[:k])[:, 0]
    negative = lowest < -tol.eps_psd
    i = int(negative.argmax()) if negative.any() else k
    kind, values = ((None, None) if i == len(stack) else ("psd", lowest) if i < k
                    else ("finite", None) if not np.isfinite(stack[i]).all()
                    else ("asym", asym) if not asym[i] <= tol.eps_psd else ("trace", trace))
    return hermitian, lowest, i, kind, None if values is None else float(values[i])


def _raise_fault(kind: str | None, value, tol: ToleranceConfig, what: str, where: str = ""):
    """Raise the validation error of a :func:`_checked_stack` fault, if any."""
    if kind == "finite":
        raise OutOfRangeError(f"{where}{what} has non-finite entries")
    if kind == "asym":
        raise NotHermitianError(
            f"{where}{what} deviates from Hermiticity by {value:.3e} (> {tol.eps_psd:.1e})")
    if kind == "trace":
        raise TraceNotOneError(
            f"{where}trace deviates from 1 by {abs(value - 1.0):.3e} (> {tol.eps_trace:.1e})")
    if kind == "psd":
        raise NotPositiveError(f"{where}minimum eigenvalue {value:.3e} below -{tol.eps_psd:.1e}")


def _density_stack(
    stack: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, first: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Validate an (n, 4, 4) stack as :func:`make_density` validates one
    matrix; return the exactly Hermitian stack and each lowest eigenvalue.
    The first failure of :func:`_checked_stack` raises; with ``first`` given,
    its message names it as member ``first + position`` (counting from 1).
    """
    hermitian, lowest, i, kind, value = _checked_stack(stack, tol)
    where = "" if first is None else f"member {first + i + 1}: "
    _raise_fault(kind, value, tol, "density matrix", where)
    return hermitian, lowest


def _hermitize(matrix: np.ndarray, tol: ToleranceConfig, what: str) -> np.ndarray:
    """Check a matrix's entries and asymmetry, not its spectrum; return its Hermitian average."""
    with np.errstate(over="ignore", invalid="ignore"):
        (asym,), (hermitian,) = _averaged(matrix[None])
    kind = None if asym <= tol.eps_psd else "asym" if np.isfinite(matrix).all() else "finite"
    _raise_fault(kind, float(asym), tol, what)
    return hermitian


def make_x(a, b, c, d, w=0.0, z=0.0, tol: ToleranceConfig = DEFAULT_TOL) -> XState:
    """Validate X-state parameters.

    Checks finite values, nonnegative populations, unit trace (summed left
    to right on every Python) and the two positivity bounds ``|w|^2 <= a d``
    and ``|z|^2 <= b c`` (each within tolerance), as :func:`_checked_x` does.
    The tolerances match the dense check's: each 2x2 block's lowest
    eigenvalue is at least ``-eps_psd``.
    """
    values = (float(a), float(b), float(c), float(d), complex(w), complex(z))
    params = tuple(np.array([value]) for value in values)
    _raise_x(params, *_checked_x(params, tol), tol)
    return XState(*values)


# make_x's checks, in its order
_X_CHECKS = (*(f"{p} {kind}" for p in "abcd" for kind in ("finite", "negative")),
             "trace", "w finite", "z finite", "w bound", "z bound")


def _checked_x(params: tuple[np.ndarray, ...], tol: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """The first member of X parameter columns ``(a, b, c, d, w, z)`` that
    :func:`make_x` rejects and the first of ``_X_CHECKS`` it fails, else
    ``(n, None)``: each population finite and then at least ``-eps_psd``,
    ``((a + b) + c) + d`` within ``eps_trace`` of 1, ``w`` and ``z`` finite,
    then ``|w|^2 <= (a + eps_psd)(d + eps_psd)`` and ``|z|^2 <= (b + eps_psd)(c +
    eps_psd)``, the exact form of the lowest eigenvalue of each 2x2 block at
    least ``-eps_psd``, with each square that of ``hypot(re, im)``, the bits
    of a scalar ``abs``."""
    a, b, c, d, w, z = params
    pops, wz = np.array([a, b, c, d]), np.array([w, z])
    failed = np.empty((len(_X_CHECKS), len(a)), dtype=bool)  # a row per check
    with np.errstate(over="ignore", invalid="ignore"):
        failed[0:8:2], failed[1:8:2] = ~np.isfinite(pops), pops < -tol.eps_psd
        failed[8] = np.abs(a + b + c + d - 1.0) > tol.eps_trace
        failed[9:11] = ~np.isfinite(wz)
        bounds = (np.array([a, b]) + tol.eps_psd) * (np.array([d, c]) + tol.eps_psd)
        failed[11:] = np.square(np.hypot(wz.real, wz.imag)) > bounds
    if not failed.any():
        return len(a), None
    i = int(failed.any(axis=0).argmax())
    return i, _X_CHECKS[int(failed[:, i].argmax())]


def _raise_x(params: tuple[np.ndarray, ...], i: int, check: str | None, tol: ToleranceConfig):
    """Raise :func:`make_x`'s error for member ``i`` failing ``check``, if any."""
    if check is None:
        return
    # Python floats and complexes, so that no message spells a numpy scalar
    v = dict(zip("abcdwz", (cast(p[i]) for cast, p in zip([float] * 4 + [complex] * 2, params))))
    name, _, kind = check.partition(" ")
    if kind == "finite":
        what = "coherence" if name in "wz" else "population"
        raise OutOfRangeError(f"{what} {name}={v[name]!r} is not finite")
    if kind == "negative":
        raise NegativePopulationError(f"population {name}={v[name]!r} below -{tol.eps_psd:.1e}")
    if check == "trace":
        drift = abs(v["a"] + v["b"] + v["c"] + v["d"] - 1.0)
        raise TraceNotOneError(f"populations sum deviates from 1 by {drift:.3e}")
    h, (p, q), eps = abs(v[name]), ("ad" if name == "w" else "bc"), tol.eps_psd
    raise NotPositiveError(f"|{name}|^2={h * h:.6e} exceeds ({p}+{eps:.1e})*({q}+{eps:.1e})="
                           f"{(v[p] + eps) * (v[q] + eps):.6e}")


def embed_x(x: XState) -> DensityMatrix:
    """Return the dense 4x4 matrix of an X state."""
    return _unchecked_density(_x_matrices([np.atleast_1d(getattr(x, f)) for f in "abcdwz"])[0])


def _x_matrices(params: tuple[np.ndarray, ...]) -> np.ndarray:
    """Stack X parameter arrays ``(a, b, c, d, w, z)`` into an (n, 4, 4)
    array; :func:`embed_x` is its one-row call."""
    a, b, c, d, w, z = params
    arr = np.zeros((a.size, 4, 4), dtype=complex)
    arr[:, 0, 0], arr[:, 1, 1], arr[:, 2, 2], arr[:, 3, 3] = a, b, c, d
    arr[:, 0, 3] = w
    arr[:, 3, 0] = np.conj(w)
    arr[:, 1, 2] = z
    arr[:, 2, 1] = np.conj(z)
    return arr


def _x_stack(params: tuple[np.ndarray, ...], tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """:func:`_x_matrices` of parameter arrays that pass :func:`make_x`; the
    first member it rejects raises its error."""
    _raise_x(params, *_checked_x(params, tol), tol)
    return _x_matrices(params)


def project_x(rho: DensityMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> XState:
    """Extract X-state parameters from a dense matrix.

    Raises :class:`NotXFormError` if any entry outside the X pattern has
    magnitude at or above ``eps_psd``.  The extraction itself copies
    entries without arithmetic, so ``embed_x(project_x(rho))`` reproduces
    an exactly-X input bit for bit.
    """
    m = rho.matrix
    stray = np.abs(np.where(_X_PATTERN, 0.0, m))
    worst = float(stray.max())
    if worst >= tol.eps_psd:
        i, j = np.unravel_index(int(stray.argmax()), (4, 4))
        raise NotXFormError(
            f"entry ({i + 1},{j + 1}) has magnitude {worst:.3e} outside the X pattern"
        )
    return XState(
        m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real,
        complex(m[0, 3]), complex(m[1, 2]),
    )


def reduce_qubit(rho: DensityMatrix, party: str) -> QubitState:
    """Partial trace onto one qubit.  ``party`` is ``"A"`` or ``"B"``."""
    m = rho.matrix
    if party == "A":
        out = np.array(
            [[m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]],
             [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]]]
        )
    elif party == "B":
        out = np.array(
            [[m[0, 0] + m[2, 2], m[0, 1] + m[2, 3]],
             [m[1, 0] + m[3, 2], m[1, 1] + m[3, 3]]]
        )
    else:
        raise ValidationError(f"party must be 'A' or 'B', got {party!r}")
    return QubitState(_frozen(out))


def local_coherences(rho: DensityMatrix) -> tuple[complex, complex]:
    """Off-diagonal elements of the two reduced states, as ``(A, B)``.

    Both vanish identically for X states.
    """
    m = rho.matrix
    return complex(m[0, 2] + m[1, 3]), complex(m[0, 1] + m[2, 3])


def maximally_mixed() -> DensityMatrix:
    """The state I/4."""
    return _unchecked_density(np.eye(4) / 4.0)


_BELL_PARAMS = {
    "phi+": (0.5, 0.0, 0.0, 0.5, 0.5 + 0.0j, 0.0j),
    "phi-": (0.5, 0.0, 0.0, 0.5, -0.5 + 0.0j, 0.0j),
    "psi+": (0.0, 0.5, 0.5, 0.0, 0.0j, 0.5 + 0.0j),
    "psi-": (0.0, 0.5, 0.5, 0.0, 0.0j, -0.5 + 0.0j),
}


def bell(kind: str) -> XState:
    """One of the four Bell states as an X state.

    ``kind`` is ``"phi+"``, ``"phi-"`` (superpositions of |ee> and |gg>,
    coherence in ``w``) or ``"psi+"``, ``"psi-"`` (superpositions of |eg>
    and |ge>, coherence in ``z``).
    """
    try:
        a, b, c, d, w, z = _BELL_PARAMS[kind]
    except KeyError:
        raise ValidationError(
            f"unknown Bell state {kind!r}; expected one of {sorted(_BELL_PARAMS)}"
        ) from None
    return XState(a, b, c, d, w, z)


def werner(b: float) -> XState:
    """One-parameter family interpolating I/4 and the singlet.

    Populations are ``a = d = (1 - 2 b)/2`` on the outer levels and ``b``
    on each inner level, with inner coherence ``z = (1 - 4 b)/2`` and
    ``w = 0``.  Positivity restricts ``b`` to [1/6, 1/2]; ``b = 1/4``
    gives I/4 and ``b = 1/2`` the singlet.
    """
    b = float(b)
    if not 1.0 / 6.0 <= b <= 0.5:
        raise OutOfRangeError(f"werner parameter b={b!r} outside [1/6, 1/2]")
    outer = (1.0 - 2.0 * b) / 2.0
    return make_x(outer, b, b, outer, 0.0, (1.0 - 4.0 * b) / 2.0)


def bell_mixture(weights) -> XState:
    """Convex mixture of the four Bell states.

    ``weights`` are the probabilities of (phi+, phi-, psi+, psi-); they
    must be nonnegative and sum to 1.  The result is always an X state
    with real coherences ``w = (p1 - p2)/2`` and ``z = (p3 - p4)/2``.
    """
    p = np.asarray(weights, dtype=float)
    if p.shape != (4,):
        raise BadDistributionError(f"expected 4 weights, got shape {p.shape}")
    if float(p.min()) < -1e-12:
        raise BadDistributionError(f"negative weight {float(p.min())!r}")
    drift = abs(float(p.sum()) - 1.0)
    if drift > DEFAULT_TOL.eps_trace:
        raise BadDistributionError(f"weights sum deviates from 1 by {drift:.3e}")
    outer = (p[0] + p[1]) / 2.0
    inner = (p[2] + p[3]) / 2.0
    return make_x(outer, inner, inner, outer, (p[0] - p[1]) / 2.0, (p[2] - p[3]) / 2.0)


def random_density(seed: int) -> DensityMatrix:
    """Hilbert-Schmidt random state: G G^dag / tr(G G^dag), G complex Ginibre."""
    return DensityMatrix(_frozen(_random_density_stack([seed])[0]))


def _random_density_stack(seeds) -> np.ndarray:
    """The (n, 4, 4) stack of :func:`random_density` matrices, bit for bit:
    each seed draws its Ginibre matrix from its own generator, and the stack
    is validated once."""
    draws = np.array([np.random.default_rng(seed).standard_normal((2, 4, 4)) for seed in seeds])
    g = draws[:, 0] + 1j * draws[:, 1]
    m = g @ g.conj().transpose(0, 2, 1)
    m /= m.trace(axis1=1, axis2=2).real[:, None, None]
    return _density_stack(m)[0]


def random_x(seed: int) -> XState:
    """Random valid X state: Dirichlet populations, coherences uniform in
    magnitude over their positivity disks with uniform phases."""
    rng = np.random.default_rng(seed)
    a, b, c, d = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    r_w, r_z = rng.uniform(0.0, 1.0, 2)
    ph_w, ph_z = rng.uniform(0.0, 2.0 * np.pi, 2)
    w = r_w * np.sqrt(a * d) * np.exp(1j * ph_w)
    z = r_z * np.sqrt(b * c) * np.exp(1j * ph_z)
    return make_x(a, b, c, d, w, z)


def observable(entries, tol: ToleranceConfig = DEFAULT_TOL) -> HermitianObservable:
    """Validate a 4x4 Hermitian observable (exact Hermitization applied):
    non-finite entries raise :class:`OutOfRangeError`, and an asymmetry
    ``|m - m^dag|`` above ``eps_psd`` raises :class:`NotHermitianError`."""
    m = np.asarray(entries, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 observable, got shape {m.shape}")
    return HermitianObservable(_frozen(_hermitize(m, tol, "observable")))


def expectation(rho: DensityMatrix, obs: HermitianObservable) -> float:
    """Real expectation value tr(rho O); the roundoff imaginary part is dropped."""
    return float(np.trace(rho.matrix @ obs.matrix).real)


def format_dense_entries(matrix: np.ndarray) -> str:
    """Row-major ``re:im`` pairs joined by commas (no prefix)."""
    # real and imaginary parts alternate in the float view
    flat = np.ascontiguousarray(matrix, dtype=complex).reshape(-1).view(float)
    parts = list(map(repr, flat.tolist()))
    return ",".join(map(":".join, zip(parts[::2], parts[1::2])))


def parse_dense_entries(text: str) -> np.ndarray:
    """Parse 16 comma-separated ``re:im`` pairs into a row-major 4x4 array.

    A leading ``dense:`` prefix is accepted and stripped.  The numbers are
    read as a ``dense:`` literal's are; no physical validation is performed.
    """
    numbers = _literal_numbers([text.strip()], "dense:", _DENSE_SEPARATORS)
    return numbers.view(complex).reshape(4, 4)


def format_state_literal(state: XState | DensityMatrix) -> str:
    """Serialize a state to its literal form.

    X states become ``x:a,b,c,d,w_re,w_im,z_re,z_im``; dense states become
    ``dense:`` followed by 16 row-major ``re:im`` pairs.  Floats use their
    shortest round-trip representation, so equal states serialize to equal
    bytes.
    """
    if isinstance(state, XState):
        fields = (
            state.a, state.b, state.c, state.d,
            state.w.real, state.w.imag, state.z.real, state.z.imag,
        )
        return "x:" + ",".join(map(repr, map(float, fields)))
    if isinstance(state, DensityMatrix):
        return "dense:" + format_dense_entries(state.matrix)
    raise ValidationError(f"cannot serialize object of type {type(state).__name__}")


def _literal_fields(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``is_x`` mask of the stacked members :func:`project_x` accepts (at the default
    ``eps_psd``), their (k, 8) ``x:`` fields and the (k, 32) ``dense:`` numbers of the rest."""
    is_x = np.abs(stack[:, ~_X_PATTERN]).max(axis=1) < DEFAULT_TOL.eps_psd
    floats = np.ascontiguousarray(stack, dtype=complex).reshape(-1, 16).view(float)
    # of the 32 row-major (re, im) floats: a, b, c, d, then w and z as (re, im)
    return is_x, floats[is_x][:, [0, 10, 20, 30, 6, 7, 12, 13]], floats[~is_x]


def _stack_literals(is_x: np.ndarray, xs: np.ndarray, dense: np.ndarray) -> list[str]:
    """The literals of the members whose :func:`_literal_fields` are ``is_x, xs, dense``,
    as :func:`format_state_literal` writes them, in one :func:`format_rows` call per form."""
    # each row's last separator is "\n" and the next row's prefix; the last piece is bare
    literals = np.empty(len(is_x), dtype=object)
    literals[is_x] = ("x:" + format_rows(xs, [*_X_SEPARATORS, "\nx:"])).split("\n")[:-1]
    literals[~is_x] = ("dense:" + format_rows(
        dense, [*_DENSE_SEPARATORS, "\ndense:"])).split("\n")[:-1]
    return literals.tolist()


# the commas and colons of one x: and one dense: literal, in order
_X_SEPARATORS = "," * 7
_DENSE_SEPARATORS = ":," * 15 + ":"
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",:")))


def _literal_numbers(bodies: list[str], prefix: str, separators: str) -> np.ndarray:
    """The numbers of stripped literals in one form, a row each, read with one
    join, split and ``map(float, ...)``; a leading ``prefix`` is dropped.

    Raises :class:`ParseError` unless each literal's commas and colons are
    ``separators`` in order and each item between them is a ``float`` text.
    """
    texts = [body.removeprefix(prefix) for body in bodies]
    joined = ",".join(texts)
    found = joined.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
    # equal totals do not place the separators, so each literal keeps its commas
    commas = separators.count(",")
    if (found != ",".join([separators] * len(texts)).encode()
            or any(text.count(",") != commas for text in texts)):
        fields = "re:im entries" if ":" in separators else "fields" if commas else "field"
        raise ParseError(f"{prefix[:-1]} literal needs {commas + 1} comma-separated {fields}")
    try:
        numbers = list(map(float, joined.replace(":", ",").split(","))) if texts else []
    except ValueError as exc:
        raise ParseError(f"{prefix[:-1]} literal has a non-numeric field ({exc})") from None
    return np.array(numbers).reshape(len(texts), len(separators) + 1)


def _literal_stack(texts: list[str], tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The (n, 4, 4) stack of the states :func:`parse_state_literal` reads
    from ``texts``, validated as one stack per form.  If any fails, the
    first it rejects, in order, raises its message prefixed ``state k: ``
    (counting from 1) as a :class:`ParseError`."""
    bodies = [text.strip() for text in texts]
    x_at = [k for k, body in enumerate(bodies) if body.startswith("x:")]
    dense_at = [k for k, body in enumerate(bodies) if body.startswith("dense:")]
    try:
        if len(x_at) + len(dense_at) != len(bodies):
            raise ParseError("state literal must start with 'x:' or 'dense:'")
        x = _literal_numbers([bodies[k] for k in x_at], "x:", _X_SEPARATORS)
        dense = _literal_numbers([bodies[k] for k in dense_at], "dense:", _DENSE_SEPARATORS)
        dense = dense.view(complex).reshape(-1, 4, 4)
        stack = np.empty((len(bodies), 4, 4), dtype=complex)
        coherences = np.ascontiguousarray(x[:, 4:]).view(complex).T  # w and z
        stack[x_at] = _x_stack((*x[:, :4].T, *coherences), tol)
        stack[dense_at] = _density_stack(dense, tol)[0]
    except ValueError:
        for k, text in enumerate(texts):
            try:
                parse_state_literal(text, tol)
            except ValueError as exc:
                raise ParseError(f"state {k + 1}: {exc}") from None
        raise
    return stack


def parse_state_literal(text: str, tol: ToleranceConfig = DEFAULT_TOL) -> XState | DensityMatrix:
    """Parse a state literal (``x:`` or ``dense:`` form) with validation."""
    body = text.strip()
    if body.startswith("x:"):
        a, b, c, d, w_re, w_im, z_re, z_im = _literal_numbers([body], "x:", _X_SEPARATORS)[0]
        return make_x(a, b, c, d, complex(w_re, w_im), complex(z_re, z_im), tol=tol)
    if body.startswith("dense:"):
        return make_density(parse_dense_entries(body), tol=tol)
    raise ParseError(
        f"state literal must start with 'x:' or 'dense:', got {body[:16]!r}"
    )
