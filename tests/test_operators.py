"""Tests for tensor-product operators, layouts, and density matrices."""

import numpy as np
import pytest

from ddesim import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    DensityMatrix,
    SpaceLayout,
    boson_destroy,
    embed,
    partial_trace,
)
from ddesim.operators import QUBIT_NUMBER


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_qubit_constants():
    assert np.array_equal(SIGMA_PLUS, [[0, 0], [1, 0]])
    assert np.array_equal(SIGMA_MINUS, [[0, 1], [0, 0]])
    assert np.array_equal(SIGMA_Z, np.diag([-1.0, 1.0]))
    assert np.array_equal(QUBIT_NUMBER, SIGMA_PLUS @ SIGMA_MINUS)
    # number operator counts the excited state |e> = index 1
    assert np.array_equal(QUBIT_NUMBER, np.diag([0.0, 1.0]))


def test_boson_destroy_matrix_elements():
    a = boson_destroy(3)
    n = a.conj().T @ a
    assert np.allclose(np.diag(n), [0, 1, 2, 3])
    # <k-1| a |k> = sqrt(k)
    for k in range(1, 4):
        assert a[k - 1, k] == pytest.approx(np.sqrt(k))
    # truncated commutator: [a, a+] = 1 except in the top corner
    comm = a @ a.conj().T - n
    assert np.allclose(np.diag(comm), [1, 1, 1, -3])


def test_boson_destroy_rejects_bad_level_count():
    with pytest.raises(ValueError):
        boson_destroy(0)


def test_space_layout():
    layout = SpaceLayout((2, 2, 3))
    assert layout.total_dim == 12
    assert layout.n_subsystems == 3
    with pytest.raises(ValueError):
        SpaceLayout((2, 0))
    with pytest.raises(ValueError):
        SpaceLayout(())
    # only integers: int() would truncate 2.9 to 2 and accept '2'
    # nor bool, an Integral that would read as dimension 1
    for bad in ((2, 2.9), ("2", 2), (2, np.float64(2.0)), (True, 2), (2, False)):
        with pytest.raises(ValueError, match="positive integers"):
            SpaceLayout(bad)
    assert SpaceLayout((np.int64(2), 3)).dims == (2, 3)


def test_embed_single_site():
    layout = SpaceLayout((2, 2, 3))
    op = embed(SIGMA_Z, 1, layout)
    expected = np.kron(np.kron(np.eye(2), SIGMA_Z), np.eye(3))
    assert np.array_equal(op, expected)


def test_embed_composes_like_kron_products():
    rng = np.random.default_rng(7)
    layout = SpaceLayout((2, 3, 2))
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    # operators on distinct factors commute and multiply factor-wise
    ea, eb = embed(a, 1, layout), embed(b, 2, layout)
    assert np.allclose(ea @ eb, eb @ ea)
    direct = np.kron(np.kron(np.eye(2), a), b)
    assert np.allclose(ea @ eb, direct)


def test_embed_rejects_mismatched_dims():
    layout = SpaceLayout((2, 3))
    with pytest.raises(ValueError):
        embed(SIGMA_Z, 1, layout)
    with pytest.raises(ValueError):
        embed(SIGMA_Z, 2, layout)


def test_density_matrix_validation():
    layout = SpaceLayout((2,))
    with pytest.raises(ValueError):
        DensityMatrix(layout, np.eye(3))  # shape mismatch
    with pytest.raises(ValueError):
        DensityMatrix(layout, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(layout, np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(layout, np.diag([1.5, -0.5]))  # negative eigenvalue


def test_density_matrix_pure_and_expect():
    layout = SpaceLayout((2, 2))
    ket = np.zeros(4)
    ket[3] = 1.0  # |ee>
    rho = DensityMatrix.pure(layout, ket)
    n_total = embed(QUBIT_NUMBER, 0, layout) + embed(QUBIT_NUMBER, 1, layout)
    assert rho.expect(n_total) == pytest.approx(2.0)
    # unnormalized kets are accepted and normalized
    rho2 = DensityMatrix.pure(layout, 2.0 * ket)
    assert np.allclose(rho2.matrix, rho.matrix)


def brute_force_partial_trace(rho, dims, keep):
    """Reference partial trace via explicit index loops."""
    keep = tuple(sorted(keep))
    traced = tuple(i for i in range(len(dims)) if i not in keep)
    kdims = [dims[i] for i in keep]
    out = np.zeros((int(np.prod(kdims)), int(np.prod(kdims))), dtype=complex)
    full = rho.reshape(dims + dims)
    for left in np.ndindex(*kdims):
        for right in np.ndindex(*kdims):
            total = 0.0
            for tr in np.ndindex(*[dims[i] for i in traced]):
                idx_l = [0] * len(dims)
                idx_r = [0] * len(dims)
                for pos, site in enumerate(keep):
                    idx_l[site] = left[pos]
                    idx_r[site] = right[pos]
                for pos, site in enumerate(traced):
                    idx_l[site] = tr[pos]
                    idx_r[site] = tr[pos]
                total += full[tuple(idx_l) + tuple(idx_r)]
            row = np.ravel_multi_index(left, kdims)
            col = np.ravel_multi_index(right, kdims)
            out[row, col] = total
    return out


def test_partial_trace_against_brute_force():
    rng = np.random.default_rng(11)
    dims = (2, 3, 2)
    layout = SpaceLayout(dims)
    rho = DensityMatrix(layout, random_density(rng, 12))
    for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        reduced = partial_trace(rho, keep)
        want = brute_force_partial_trace(rho.matrix, dims, keep)
        assert np.allclose(reduced.matrix, want, atol=1e-12)
        assert reduced.layout.dims == tuple(dims[i] for i in sorted(keep))


def test_partial_trace_of_more_than_thirteen_subsystems():
    # 14 one-level subsystems between a qubit and a qutrit: 16 subsystems,
    # 32 tensor axes, more than one letter each of a 26-letter alphabet
    rng = np.random.default_rng(23)
    dims = (2,) + (1,) * 14 + (3,)
    rho = DensityMatrix(SpaceLayout(dims), random_density(rng, 6))
    want = brute_force_partial_trace(rho.matrix, (2, 3), (0,))
    assert np.allclose(partial_trace(rho, (0,)).matrix, want, atol=1e-12)
    assert np.allclose(partial_trace(rho, (0, 15)).matrix, rho.matrix, atol=1e-12)


def test_partial_trace_product_state_factorizes():
    rng = np.random.default_rng(13)
    layout = SpaceLayout((2, 3))
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    rho = DensityMatrix(layout, np.kron(rho_a, rho_b))
    assert np.allclose(partial_trace(rho, (0,)).matrix, rho_a, atol=1e-12)
    assert np.allclose(partial_trace(rho, (1,)).matrix, rho_b, atol=1e-12)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(17)
    layout = SpaceLayout((2, 2, 3))
    rho = DensityMatrix(layout, random_density(rng, 12))
    reduced = partial_trace(rho, (0, 1))
    assert np.trace(reduced.matrix) == pytest.approx(1.0)
    assert np.allclose(reduced.matrix, reduced.matrix.conj().T)


def test_partial_trace_rejects_bad_sites():
    rng = np.random.default_rng(19)
    layout = SpaceLayout((2, 2))
    rho = DensityMatrix(layout, random_density(rng, 4))
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (2,))
    # int() would truncate or parse these into subsystem indices, and True
    # would keep subsystem 1
    for bad in ((0.9, 1.2), (0, "1"), (np.float64(0.0),), (True,), (0, False)):
        with pytest.raises(ValueError, match="integers"):
            partial_trace(rho, bad)
    assert partial_trace(rho, (np.int64(0),)).layout.dims == (2,)
