import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spi_recon.errors import InvalidArgumentError
from spi_recon.transforms import (
    LinearOperator,
    dct_operator,
    gradient_operator,
    soft_threshold,
)


def dense_matrix(op: LinearOperator, n: int) -> np.ndarray:
    """Materialize the operator on n-pixel images column by column."""
    cols = []
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        cols.append(op.apply(e).copy())
        e[j] = 0.0
    return np.stack(cols, axis=1)


def reference_dct_matrix(width, height):
    """Dense orthonormal 2D DCT-II assembled directly from the cosine formula."""

    def dct1d(n):
        M = np.zeros((n, n))
        for k in range(n):
            for i in range(n):
                scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
                M[k, i] = scale * np.cos(np.pi * (2 * i + 1) * k / (2 * n))
        return M

    # separable: coefficient(k_r, k_c) applies row transform then column transform
    return np.kron(dct1d(height), dct1d(width))


def reference_gradient_matrix(width, height):
    """Dense forward-difference stencil, replicate boundary, horizontal then vertical."""
    n = width * height
    G = np.zeros((2 * n, n))
    for r in range(height):
        for c in range(width):
            i = r * width + c
            if c < width - 1:
                G[i, i + 1] += 1.0
                G[i, i] -= 1.0
            if r < height - 1:
                G[n + i, i + width] += 1.0
                G[n + i, i] -= 1.0
    return G


def test_dct_rejects_zero_dims():
    with pytest.raises(InvalidArgumentError):
        dct_operator(0, 4)


def test_dct_constant_image_dc_only():
    w, h, c = 5, 3, 0.7
    op = dct_operator(w, h)
    coef = op.apply(np.full(w * h, c))
    assert coef[0] == pytest.approx(c * np.sqrt(w * h), rel=1e-12)
    assert np.all(np.abs(coef[1:]) < 1e-12)


def test_dct_inverse_roundtrip():
    rng = np.random.default_rng(0)
    op = dct_operator(6, 4)
    v = rng.random(24)
    assert np.allclose(op.apply_transpose(op.apply(v)), v, atol=1e-12)


def test_dct_parseval():
    rng = np.random.default_rng(1)
    op = dct_operator(8, 8)
    v = rng.standard_normal(64)
    assert np.linalg.norm(op.apply(v)) == pytest.approx(np.linalg.norm(v), rel=1e-12)


@pytest.mark.parametrize("w,h", [(8, 8), (16, 16), (5, 3)])
def test_dct_matches_explicit_matrix(w, h):
    D = reference_dct_matrix(w, h)
    assert np.max(np.abs(D.T @ D - np.eye(w * h))) < 1e-10
    op = dct_operator(w, h)
    assert np.max(np.abs(dense_matrix(op, w * h) - D)) < 1e-10


def test_dct_adjoint_identity():
    rng = np.random.default_rng(2)
    op = dct_operator(4, 4)
    for _ in range(5):
        u, v = rng.standard_normal(16), rng.standard_normal(16)
        lhs = op.apply(u) @ v
        rhs = u @ op.apply_transpose(v)
        assert lhs == pytest.approx(rhs, rel=1e-10)


ORACLE_SHAPES = ([(n, 3) for n in range(1, 71)] + [(4, n) for n in range(1, 71)]
                 + [(13, 17), (96, 96), (160, 160), (257, 2), (2, 311)])


@pytest.mark.parametrize("height, width", ORACLE_SHAPES)
def test_dct_is_bit_identical_to_scipy(height, width):
    """apply/apply_transpose equal scipy.fft.dctn/idctn(norm="ortho") byte for
    byte, signed zeros included, for lengths of both parities along either
    axis and two large primes."""
    sfft = pytest.importorskip("scipy.fft")
    rng = np.random.default_rng(height * 1000 + width)
    img = rng.standard_normal((height, width))
    img[rng.random(img.shape) < 0.2] = -0.0
    img[rng.random(img.shape) < 0.1] = 0.0
    op = dct_operator(width, height)
    for got, want in [(op.apply(img.ravel()), sfft.dctn(img, type=2, norm="ortho")),
                      (op.apply_transpose(img.ravel()), sfft.idctn(img, type=2, norm="ortho"))]:
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("value", [0.0, -0.0])
def test_dct_of_a_zero_image_keeps_scipys_signed_zeros(value):
    sfft = pytest.importorskip("scipy.fft")
    img = np.full((6, 5), value)
    op = dct_operator(5, 6)
    assert op.apply(img.ravel()).tobytes() == sfft.dctn(img, norm="ortho").tobytes()
    assert op.apply_transpose(img.ravel()).tobytes() == sfft.idctn(img, norm="ortho").tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(kind=st.sampled_from(["dct", "gradient"]), width=st.integers(2, 24),
       height=st.integers(2, 24), seed=st.integers(0, 2**32 - 1))
def test_adjoint_identity_over_shapes(kind, width, height, seed):
    """<apply(u), v> == <u, apply_transpose(v)> up to round-off."""
    op = (dct_operator if kind == "dct" else gradient_operator)(width, height)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(width * height)
    Pu = op.apply(u)
    v = rng.standard_normal(Pu.size)
    lhs, rhs = Pu @ v, u @ op.apply_transpose(v)
    assert abs(lhs - rhs) <= 1e-13 * v.size * np.linalg.norm(u) * np.linalg.norm(v)


def test_gradient_rejects_small_dims():
    with pytest.raises(InvalidArgumentError):
        gradient_operator(1, 4)


def test_gradient_constant_image_zero():
    op = gradient_operator(5, 4)
    assert np.array_equal(op.apply(np.full(20, 3.3)), np.zeros(40))


def test_gradient_horizontal_ramp():
    op = gradient_operator(2, 2)
    out = op.apply(np.array([0.0, 1.0, 0.0, 1.0]))
    assert np.array_equal(out[:4], [1, 0, 1, 0])  # horizontal diffs
    assert np.array_equal(out[4:], [0, 0, 0, 0])  # vertical diffs


def test_gradient_matches_explicit_matrix():
    G = reference_gradient_matrix(4, 4)
    op = gradient_operator(4, 4)
    assert np.max(np.abs(dense_matrix(op, 16) - G)) == 0.0


def test_gradient_adjoint_identity():
    rng = np.random.default_rng(3)
    op = gradient_operator(4, 4)
    G = reference_gradient_matrix(4, 4)
    for _ in range(5):
        u = rng.standard_normal(16)
        v = rng.standard_normal(32)
        assert op.apply(u) @ v == pytest.approx(u @ op.apply_transpose(v), rel=1e-10)
        assert np.allclose(op.apply_transpose(v), G.T @ v, atol=1e-12)


def test_gradient_boundary_rows_zero():
    rng = np.random.default_rng(4)
    w, h = 5, 4
    op = gradient_operator(w, h)
    out = op.apply(rng.random(w * h))
    dh = out[: w * h].reshape(h, w)
    dv = out[w * h :].reshape(h, w)
    assert np.array_equal(dh[:, -1], np.zeros(h))
    assert np.array_equal(dv[-1, :], np.zeros(w))


def test_soft_threshold_paper_values():
    out = soft_threshold(np.array([2.0, -2.0, 0.5]), 1.0)
    assert np.array_equal(out, [1.0, -1.0, 0.0])


def test_soft_threshold_zero_tau_identity():
    v = np.array([1.5, -0.2, 0.0])
    assert np.array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_max_tau_zeroes():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(20)
    tau = np.max(np.abs(v))
    out = soft_threshold(v, tau)
    assert np.all(out[np.abs(v) < tau] == 0.0)


def test_soft_threshold_negative_tau_rejected():
    with pytest.raises(InvalidArgumentError):
        soft_threshold(np.zeros(3), -0.1)


def test_soft_threshold_contraction():
    rng = np.random.default_rng(6)
    for _ in range(20):
        u, v = rng.standard_normal(30), rng.standard_normal(30)
        tau = abs(rng.standard_normal())
        lhs = np.linalg.norm(soft_threshold(u, tau) - soft_threshold(v, tau))
        assert lhs <= np.linalg.norm(u - v) + 1e-12


def test_soft_threshold_prox_minimality():
    # T_tau(z) minimizes tau*|c|_1 + 0.5*|c - z|^2: coordinate perturbations
    # never decrease the objective
    rng = np.random.default_rng(7)

    def objective(c, z, tau):
        return tau * np.abs(c).sum() + 0.5 * np.sum((c - z) ** 2)

    for _ in range(10):
        z = rng.standard_normal(12)
        tau = abs(rng.standard_normal()) + 0.1
        c = soft_threshold(z, tau)
        base = objective(c, z, tau)
        for i in range(len(z)):
            for eps in (1e-4, -1e-4):
                pert = c.copy()
                pert[i] += eps
                assert objective(pert, z, tau) >= base - 1e-12


@pytest.mark.parametrize("side", ["apply", "apply_transpose"])
@pytest.mark.parametrize("make", [dct_operator, gradient_operator])
def test_operators_refuse_complex_data(make, side):
    """A complex vector is refused, not cut to its real part."""
    op = make(2, 2)
    size = len(op.apply(np.zeros(4))) if side == "apply_transpose" else 4
    with pytest.raises(InvalidArgumentError, match="real numbers"):
        getattr(op, side)(np.ones(size) + 1j)


@pytest.mark.parametrize("v", [np.array([1 + 1j]), "abc"])
def test_soft_threshold_refuses_data_that_float64_cannot_hold(v):
    with pytest.raises(InvalidArgumentError, match="real numbers"):
        soft_threshold(v, 0.1)


@pytest.mark.parametrize("make, side, expected", [
    (dct_operator, "apply", 6),
    (dct_operator, "apply_transpose", 6),
    (gradient_operator, "apply", 6),
    (gradient_operator, "apply_transpose", 12),
])
def test_operators_refuse_a_vector_of_the_wrong_length(make, side, expected):
    """A 3x2 operator names the count it got and the one it expects, where numpy's
    reshape raised a bare ValueError."""
    with pytest.raises(InvalidArgumentError, match=f"has 5 entries, expected {expected}$"):
        getattr(make(3, 2), side)(np.ones(5))
