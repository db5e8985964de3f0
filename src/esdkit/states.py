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

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

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
    """Exactly Hermitian 4x4 observable (read-only array)."""

    matrix: np.ndarray = field(repr=False)


def _hermitize(matrix: np.ndarray, eps: float, what: str) -> np.ndarray:
    """Check Hermiticity within ``eps`` and return the exact average."""
    asym = float(np.abs(matrix - matrix.conj().T).max())
    if asym > eps:
        raise NotHermitianError(
            f"{what} deviates from Hermiticity by {asym:.3e} (> {eps:.1e})"
        )
    return 0.5 * (matrix + matrix.conj().T)


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


def _density_stack(
    stack: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, first: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Validate an (n, 4, 4) stack as :func:`make_density` validates one
    matrix; return the exactly Hermitian stack and each lowest eigenvalue.

    The first failing matrix raises; with ``first`` given, its message
    names it as member ``first + position`` (counting from 1).
    """

    def reject(error, bad: np.ndarray, describe) -> None:
        i = int(bad.argmax())
        if bad[i]:
            where = "" if first is None else f"member {first + i + 1}: "
            raise error(where + describe(i))

    reject(OutOfRangeError, ~np.isfinite(stack).all(axis=(1, 2)),
           lambda i: "density matrix has non-finite entries")
    adjoint = stack.conj().transpose(0, 2, 1)
    asym = np.abs(stack - adjoint).max(axis=(1, 2))
    reject(NotHermitianError, asym > tol.eps_psd, lambda i: (
        f"density matrix deviates from Hermiticity by {asym[i]:.3e} (> {tol.eps_psd:.1e})"))
    hermitian = 0.5 * (stack + adjoint)
    drift = np.abs(hermitian.trace(axis1=1, axis2=2).real - 1.0)
    reject(TraceNotOneError, drift > tol.eps_trace,
           lambda i: f"trace deviates from 1 by {drift[i]:.3e} (> {tol.eps_trace:.1e})")
    lowest = np.linalg.eigvalsh(hermitian)[:, 0]
    reject(NotPositiveError, lowest < -tol.eps_psd,
           lambda i: f"minimum eigenvalue {lowest[i]:.3e} below -{tol.eps_psd:.1e}")
    return hermitian, lowest


def make_x(a, b, c, d, w=0.0, z=0.0, tol: ToleranceConfig = DEFAULT_TOL) -> XState:
    """Validate X-state parameters.

    Checks finite values, nonnegative populations, unit trace and the two
    positivity bounds ``|w|^2 <= a d`` and ``|z|^2 <= b c`` (each within
    tolerance).
    """
    pops = {"a": float(a), "b": float(b), "c": float(c), "d": float(d)}
    for name, value in pops.items():
        if not math.isfinite(value):
            raise OutOfRangeError(f"population {name}={value!r} is not finite")
        if value < -tol.eps_psd:
            raise NegativePopulationError(f"population {name}={value!r} below -{tol.eps_psd:.1e}")
    drift = abs(sum(pops.values()) - 1.0)
    if drift > tol.eps_trace:
        raise TraceNotOneError(f"populations sum deviates from 1 by {drift:.3e}")
    w = complex(w)
    z = complex(z)
    for name, value in (("w", w), ("z", z)):
        if not cmath.isfinite(value):
            raise OutOfRangeError(f"coherence {name}={value!r} is not finite")
    if abs(w) ** 2 > pops["a"] * pops["d"] + tol.eps_psd:
        raise NotPositiveError(
            f"|w|^2={abs(w) ** 2:.6e} exceeds a*d={pops['a'] * pops['d']:.6e}"
        )
    if abs(z) ** 2 > pops["b"] * pops["c"] + tol.eps_psd:
        raise NotPositiveError(
            f"|z|^2={abs(z) ** 2:.6e} exceeds b*c={pops['b'] * pops['c']:.6e}"
        )
    return XState(pops["a"], pops["b"], pops["c"], pops["d"], w, z)


def embed_x(x: XState) -> DensityMatrix:
    """Return the dense 4x4 matrix of an X state."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = x.a, x.b, x.c, x.d
    m[0, 3] = x.w
    m[3, 0] = np.conj(x.w)
    m[1, 2] = x.z
    m[2, 1] = np.conj(x.z)
    return _unchecked_density(m)


def _x_matrices(params: tuple[np.ndarray, ...]) -> np.ndarray:
    """Stack X parameter arrays ``(a, b, c, d, w, z)`` into an (n, 4, 4)
    array, each matrix bit for bit the one :func:`embed_x` builds."""
    a, b, c, d, w, z = params
    arr = np.zeros((a.size, 4, 4), dtype=complex)
    arr[:, 0, 0], arr[:, 1, 1], arr[:, 2, 2], arr[:, 3, 3] = a, b, c, d
    arr[:, 0, 3] = w
    arr[:, 3, 0] = np.conj(w)
    arr[:, 1, 2] = z
    arr[:, 2, 1] = np.conj(z)
    return arr


def _x_stack(params: tuple[np.ndarray, ...], tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """:func:`_x_matrices` of parameter arrays that pass :func:`make_x`.

    An array test mirroring its checks picks out the suspect members, and
    :func:`make_x` runs on those in order, so the first failing member
    raises its error and message.
    """
    a, b, c, d, w, z = params
    pops = np.stack([a, b, c, d])
    with np.errstate(over="ignore", invalid="ignore"):
        ok = (np.isfinite(pops).all(axis=0) & (pops >= -tol.eps_psd).all(axis=0)
              & (np.abs(a + b + c + d - 1.0) <= tol.eps_trace) & np.isfinite(w) & np.isfinite(z)
              & (np.abs(w) ** 2 <= a * d + tol.eps_psd) & (np.abs(z) ** 2 <= b * c + tol.eps_psd))
    for i in np.flatnonzero(~ok):
        make_x(a[i], b[i], c[i], d[i], w[i], z[i], tol=tol)
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
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    m /= m.trace().real
    return make_density(m)


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
    """Validate a 4x4 Hermitian observable (exact Hermitization applied)."""
    m = np.asarray(entries, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 observable, got shape {m.shape}")
    return HermitianObservable(_frozen(_hermitize(m, tol.eps_psd, "observable")))


def expectation(rho: DensityMatrix, obs: HermitianObservable) -> float:
    """Real expectation value tr(rho O); the roundoff imaginary part is dropped."""
    return float(np.trace(rho.matrix @ obs.matrix).real)


def _format_float(value: float) -> str:
    return repr(float(value))


def format_dense_entries(matrix: np.ndarray) -> str:
    """Row-major ``re:im`` pairs joined by commas (no prefix)."""
    # real and imaginary parts alternate in the float view
    flat = np.ascontiguousarray(matrix, dtype=complex).reshape(-1).view(float)
    parts = list(map(repr, flat.tolist()))
    return ",".join(map(":".join, zip(parts[::2], parts[1::2])))


def parse_dense_entries(text: str) -> np.ndarray:
    """Parse 16 comma-separated ``re:im`` pairs into a row-major 4x4 array.

    A leading ``dense:`` prefix is accepted and stripped.  No physical
    validation is performed here.
    """
    body = text.strip()
    if body.startswith("dense:"):
        body = body[len("dense:"):]
    items = body.split(",")
    if len(items) != 16:
        raise ParseError(f"dense literal needs 16 entries, got {len(items)}")
    values = []
    for pos, item in enumerate(items):
        parts = item.split(":")
        if len(parts) != 2:
            raise ParseError(f"dense entry {pos + 1} ({item!r}) is not of the form re:im")
        try:
            values.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise ParseError(f"dense entry {pos + 1} ({item!r}) has a non-numeric part") from None
    return np.array(values, dtype=complex).reshape(4, 4)


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
        return "x:" + ",".join(_format_float(v) for v in fields)
    if isinstance(state, DensityMatrix):
        return "dense:" + format_dense_entries(state.matrix)
    raise ValidationError(f"cannot serialize object of type {type(state).__name__}")


def parse_state_literal(text: str, tol: ToleranceConfig = DEFAULT_TOL) -> XState | DensityMatrix:
    """Parse a state literal (``x:`` or ``dense:`` form) with validation."""
    body = text.strip()
    if body.startswith("x:"):
        items = body[len("x:"):].split(",")
        if len(items) != 8:
            raise ParseError(f"x literal needs 8 fields, got {len(items)}")
        try:
            vals = [float(item) for item in items]
        except ValueError:
            raise ParseError(f"x literal has a non-numeric field in {body!r}") from None
        return make_x(
            vals[0], vals[1], vals[2], vals[3],
            complex(vals[4], vals[5]), complex(vals[6], vals[7]), tol=tol,
        )
    if body.startswith("dense:"):
        return make_density(parse_dense_entries(body), tol=tol)
    raise ParseError(
        f"state literal must start with 'x:' or 'dense:', got {body[:16]!r}"
    )
