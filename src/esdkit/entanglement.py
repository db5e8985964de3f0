"""Partial transposition, negativity and separability decisions.

For two qubits the positive-partial-transpose test is conclusive: a state
is entangled exactly when its partial transpose has a negative eigenvalue.
On the X family the same decision reduces to comparing each coherence
against the opposite diagonal pair, ``|w|^2 > b c`` or ``|z|^2 > a d``,
because partial transposition swaps the two coherences between the inner
and outer 2x2 blocks.  Positivity of the state itself guarantees at most
one of the two inequalities can hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveError
from .states import DEFAULT_TOL, DensityMatrix, ToleranceConfig, XState, _density_stack, _hermitize

__all__ = [
    "LABEL_INTERIOR",
    "LABEL_BOUNDARY",
    "LABEL_ENTANGLED",
    "RegionLabel",
    "XVerdict",
    "partial_transpose",
    "eigenvalues_hermitian",
    "min_pt_eigenvalue",
    "negativity",
    "is_entangled_ppt",
    "x_entangled",
    "classify_position",
]

LABEL_INTERIOR = "interior"
LABEL_BOUNDARY = "boundary"
LABEL_ENTANGLED = "entangled"
# label of each code the batched classifier assigns
_LABELS = (LABEL_INTERIOR, LABEL_BOUNDARY, LABEL_ENTANGLED)


@dataclass(frozen=True)
class RegionLabel:
    """Position of a state relative to the separable set.

    ``margin`` is the signed minimum eigenvalue of the partial transpose
    (negative inside the entangled region); ``rank_margin`` is the minimum
    eigenvalue of the state itself, separating full-rank interior points
    from the boundary of the state space.
    """

    label: str
    margin: float
    rank_margin: float | None = None


@dataclass(frozen=True)
class XVerdict:
    """Outcome of the X-state entanglement criterion.

    ``w_margin = |w|^2 - b c`` and ``z_margin = |z|^2 - a d``; the state is
    entangled when either exceeds the decision band, and ``active_block``
    names the coherence responsible (``"w-block"`` or ``"z-block"``).
    """

    entangled: bool
    active_block: str | None
    w_margin: float
    z_margin: float


def partial_transpose(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Transpose the second qubit's indices.

    A pure entry permutation: with composite indices ``(jA, jB), (kA, kB)``
    the output entry is the input at ``(jA, kB), (kA, jB)``.  Exact,
    involutive, trace- and Hermiticity-preserving.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return _partial_transpose_many(m[None])[0]


def _partial_transpose_many(stack: np.ndarray) -> np.ndarray:
    """Batched partial transpose over the leading axis of an (n, 4, 4) stack."""
    return np.ascontiguousarray(
        stack.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    )


def _pt_diagnostics(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(negativity, min PT eigenvalue) per matrix of an exactly Hermitian
    (n, 4, 4) stack: the one partial-transpose eigensolve.  Partial transposition
    permutes entries, so it commutes with an exact Hermitian average taken first."""
    pt_eigs = np.linalg.eigvalsh(_partial_transpose_many(stack))
    neg = np.where(pt_eigs < 0.0, -pt_eigs, 0.0).sum(axis=1)
    return neg, pt_eigs[:, 0]


def eigenvalues_hermitian(
    matrix: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Non-finite entries raise :class:`~esdkit.errors.OutOfRangeError`, and an
    asymmetry ``|m - m^dag|`` above ``eps_psd`` raises
    :class:`~esdkit.errors.NotHermitianError`; the input is then exactly symmetrized.
    """
    return np.linalg.eigvalsh(_hermitize(np.asarray(matrix, dtype=complex), tol, "matrix"))


def min_pt_eigenvalue(rho: DensityMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Minimum eigenvalue of the partial transpose (the signed margin)."""
    return float(_pt_diagnostics(_hermitize(rho.matrix, tol, "matrix")[None])[1][0])


def negativity(rho: DensityMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Sum of the magnitudes of negative partial-transpose eigenvalues.

    Zero exactly when the state is separable; for two qubits at most one
    eigenvalue can be negative, so this equals ``max(0, -margin)``.
    """
    return float(_pt_diagnostics(_hermitize(rho.matrix, tol, "matrix")[None])[0][0])


def is_entangled_ppt(rho: DensityMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Entanglement decision for dense states: margin below ``-eps_ent``."""
    return min_pt_eigenvalue(rho, tol) < -tol.eps_ent


def x_entangled(x: XState, tol: ToleranceConfig = DEFAULT_TOL) -> XVerdict:
    """Entanglement decision on X-state parameters, without diagonalization.

    Raises :class:`~esdkit.errors.NotPositiveError` when both margins exceed
    the band, which no valid state can do.
    """
    hw, hz = abs(x.w), abs(x.z)  # squared as h * h, the bits of make_x's bounds
    w_margin, z_margin = hw * hw - x.b * x.c, hz * hz - x.a * x.d
    w_active = w_margin > tol.eps_ent
    z_active = z_margin > tol.eps_ent
    # valid states cannot violate both bounds at once
    if w_active and z_active:
        raise NotPositiveError(
            f"both margins positive (w: {w_margin:.3e}, z: {z_margin:.3e}); "
            "state violates positivity"
        )
    if w_active:
        return XVerdict(True, "w-block", w_margin, z_margin)
    if z_active:
        return XVerdict(True, "z-block", w_margin, z_margin)
    return XVerdict(False, None, w_margin, z_margin)


def _regions(
    stack: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, first: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate (see :func:`~esdkit.states._density_stack`) and locate
    every state of an (n, 4, 4) stack at once, as the columns ``(codes, margins,
    rank_margins)``; ``codes`` index ``_LABELS`` by the rule of :func:`classify_position`.

    Margins and rank margins are bit for bit those of
    :func:`eigenvalues_hermitian` member by member.
    """
    states, rank_margin = _density_stack(stack, tol, first)
    margin = _pt_diagnostics(states)[1]
    interior = (margin > tol.eps_ent) & (rank_margin > tol.eps_ent)
    return np.where(margin < -tol.eps_ent, 2, np.where(interior, 0, 1)), margin, rank_margin


def classify_position(
    rho: DensityMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> RegionLabel:
    """Locate a state relative to the separable region.

    ``entangled`` when the margin is below ``-eps_ent``; ``interior`` when
    both the margin and the state's own minimum eigenvalue exceed
    ``eps_ent`` (a full-rank separable point); ``boundary`` otherwise.
    This is the batched classifier run on a stack of one, so it rejects
    the same malformed states (see :func:`_regions`).
    """
    (code,), (margin,), (rank_margin,) = _regions(rho.matrix[None], tol)
    return RegionLabel(_LABELS[code], float(margin), float(rank_margin))
