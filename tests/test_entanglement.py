"""Partial transpose, negativity and the X-state entanglement criterion."""

import numpy as np
import pytest

from esdkit import (
    LABEL_BOUNDARY,
    LABEL_ENTANGLED,
    LABEL_INTERIOR,
    bell,
    bell_mixture,
    classify_position,
    eigenvalues_hermitian,
    embed_x,
    is_entangled_ppt,
    make_density,
    make_x,
    maximally_mixed,
    min_pt_eigenvalue,
    negativity,
    partial_transpose,
    random_density,
    random_x,
    werner,
    x_entangled,
)
from esdkit.errors import NotHermitianError, NotPositiveError, OutOfRangeError
from esdkit.states import XState

from _oracles import charpoly_eigs, pt_entrywise, random_local_unitary


def test_partial_transpose_matches_entrywise_oracle():
    for seed in range(200):
        m = random_density(seed).matrix
        np.testing.assert_array_equal(partial_transpose(m), pt_entrywise(m))


def test_partial_transpose_involution_trace_hermiticity():
    for seed in range(50):
        m = random_density(seed).matrix
        pt = partial_transpose(m)
        np.testing.assert_array_equal(partial_transpose(pt), m)
        assert np.trace(pt) == np.trace(m)
        np.testing.assert_array_equal(pt, pt.conj().T)


def test_partial_transpose_fixes_diagonals():
    m = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    np.testing.assert_array_equal(partial_transpose(m), m)


def test_partial_transpose_swaps_x_coherences():
    x = make_x(0.4, 0.1, 0.2, 0.3, w=0.15 + 0.1j, z=0.05 - 0.08j)
    pt = partial_transpose(embed_x(x))
    # the outer block picks up z and the inner block picks up w
    assert pt[0, 3] == x.z and pt[3, 0] == np.conj(x.z)
    assert pt[1, 2] == x.w and pt[2, 1] == np.conj(x.w)
    np.testing.assert_array_equal(np.diag(pt), [x.a, x.b, x.c, x.d])


def test_bell_pt_spectrum():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        pt = partial_transpose(embed_x(bell(kind)))
        np.testing.assert_allclose(
            eigenvalues_hermitian(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-14
        )
        # polynomial roots lose ~cube-root precision at the triple root 1/2
        np.testing.assert_allclose(charpoly_eigs(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-4)


def test_eigenvalues_hermitian_on_diagonals():
    np.testing.assert_allclose(
        eigenvalues_hermitian(np.diag([0.3, 0.1, 0.4, 0.2])), [0.1, 0.2, 0.3, 0.4]
    )
    np.testing.assert_allclose(eigenvalues_hermitian(np.eye(4) / 4.0), [0.25] * 4)


def test_eigenvalues_hermitian_against_charpoly_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = 0.5 * (g + g.conj().T)
        evals = eigenvalues_hermitian(h)
        np.testing.assert_allclose(evals.sum(), np.trace(h).real, atol=1e-12)
        np.testing.assert_allclose(evals, charpoly_eigs(h), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_eigenvalues_hermitian_on_any_square_size(n):
    rng = np.random.default_rng(n)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g + g.conj().T + 1e-14 * rng.normal(size=(n, n))  # asymmetric within eps_psd
    hermitian = 0.5 * m + 0.5 * m.conj().T
    np.testing.assert_array_equal(eigenvalues_hermitian(m), np.linalg.eigvalsh(hermitian))
    with pytest.raises(NotHermitianError):
        eigenvalues_hermitian(m + np.triu(np.ones((n, n)), 1))
    for bad in (np.nan, np.inf):
        m[n - 1, 0] = bad
        with pytest.raises(OutOfRangeError):
            eigenvalues_hermitian(m)


def test_eigenvalues_hermitian_rejects_asymmetry():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NotHermitianError):
        eigenvalues_hermitian(m)


def test_eigenvalues_hermitian_near_float_max():
    # hermitized without overflow (a RuntimeWarning fails the test), and an
    # anti-Hermitian pair whose difference overflows reads as deviation inf
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = 1e308
    np.testing.assert_allclose(eigenvalues_hermitian(m) / 1e308, [-1.0, 0.0, 0.0, 1.0],
                               atol=1e-14)
    m[1, 0] = -1e308
    with pytest.raises(NotHermitianError, match="deviates from Hermiticity by inf"):
        eigenvalues_hermitian(m)
    # a ValidationError, not numpy's LinAlgError
    for bad in (np.full((4, 4), np.nan), np.diag([np.inf, 0.0, 0.0, 0.0])):
        with pytest.raises(OutOfRangeError, match="^matrix has non-finite entries$"):
            eigenvalues_hermitian(bad)


def test_negativity_reference_values():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        np.testing.assert_allclose(negativity(embed_x(bell(kind))), 0.5, atol=1e-14)
    np.testing.assert_allclose(negativity(maximally_mixed()), 0.0, atol=1e-15)
    assert negativity(embed_x(werner(5.0 / 12.0))) > 1e-3


def test_equal_two_bell_mixtures_are_separable():
    weights = np.eye(4)
    for i in range(4):
        for j in range(i + 1, 4):
            x = bell_mixture(0.5 * (weights[i] + weights[j]))
            assert negativity(embed_x(x)) <= 1e-12
            assert not is_entangled_ppt(embed_x(x))


def test_is_entangled_ppt_product_states():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pa, pb = rng.uniform(0.0, 1.0, 2)
        prod = np.kron(np.diag([pa, 1.0 - pa]), np.diag([pb, 1.0 - pb]))
        assert not is_entangled_ppt(make_density(prod))
    assert is_entangled_ppt(embed_x(bell("phi+")))


def test_x_entangled_examples():
    v = x_entangled(make_x(0.5, 0.0, 0.0, 0.5, w=0.5))
    assert v.entangled and v.active_block == "w-block"
    np.testing.assert_allclose(v.w_margin, 0.25)

    v = x_entangled(make_x(0.0, 0.5, 0.5, 0.0, z=0.5))
    assert v.entangled and v.active_block == "z-block"
    np.testing.assert_allclose(v.z_margin, 0.25)

    v = x_entangled(make_x(0.3, 0.2, 0.2, 0.3, w=0.28))
    assert v.entangled and v.active_block == "w-block"
    np.testing.assert_allclose(v.w_margin, 0.28**2 - 0.04)

    v = x_entangled(make_x(0.25, 0.25, 0.25, 0.25))
    assert not v.entangled and v.active_block is None


def test_x_margins_square_the_magnitude_as_make_x_does():
    # make_x bounds |w|^2 as h * h with h = hypot(re, im); abs(w) ** 2 goes
    # through libm's pow, which rounds about one h in 2,000 an ulp away
    rng = np.random.default_rng(23)
    differ = 0
    for re_, im in rng.uniform(-0.35, 0.35, size=(4000, 2)):
        v = complex(re_, im)
        h = float(np.hypot(v.real, v.imag))
        assert h == abs(v)
        differ += abs(v) ** 2 != h * h
        assert x_entangled(make_x(0.5, 0.0, 0.0, 0.5, w=v)).w_margin == h * h
        assert x_entangled(make_x(0.0, 0.5, 0.5, 0.0, z=v)).z_margin == h * h
    assert differ > 0


def test_x_criterion_agrees_with_ppt_on_random_states():
    for seed in range(2000):
        x = random_x(seed)
        verdict = x_entangled(x)
        dense_entangled = is_entangled_ppt(embed_x(x))
        assert verdict.entangled == dense_entangled
        # PPT completeness at two qubits: zero negativity exactly on separable
        assert (negativity(embed_x(x)) > 1e-10) == dense_entangled
        # at most one active margin for any valid state
        assert not (verdict.w_margin > 1e-10 and verdict.z_margin > 1e-10)


def test_negativity_invariant_under_local_unitaries():
    rng = np.random.default_rng(7)
    for seed in range(50):
        rho = random_density(seed)
        u = random_local_unitary(rng)
        rotated = make_density(u @ rho.matrix @ u.conj().T)
        np.testing.assert_allclose(
            negativity(rotated), negativity(rho), atol=1e-10
        )


def test_classify_position_reference_points():
    assert classify_position(maximally_mixed()).label == LABEL_INTERIOR
    ground = embed_x(make_x(0.0, 0.0, 0.0, 1.0))
    assert classify_position(ground).label == LABEL_BOUNDARY
    assert classify_position(embed_x(bell("phi+"))).label == LABEL_ENTANGLED


def test_classify_position_margins_are_consistent():
    for seed in range(100):
        rho = random_density(seed)
        region = classify_position(rho)
        np.testing.assert_allclose(region.margin, min_pt_eigenvalue(rho), atol=1e-15)
        if region.label == LABEL_ENTANGLED:
            assert region.margin < -1e-10
        elif region.label == LABEL_INTERIOR:
            assert region.margin > 1e-10 and region.rank_margin > 1e-10


def test_x_entangled_rejects_both_margins_positive():
    # only direct construction can produce this state; it is not positive
    with pytest.raises(NotPositiveError):
        x_entangled(XState(0.1, 0.4, 0.4, 0.1, 0.5, 0.5))
