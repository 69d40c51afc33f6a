import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratumlab import linalg
from stratumlab.errors import NotFinite, NotHermitian, NotOrthonormal


def _rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _rand_hermitian(rng, n):
    a = _rand_complex(rng, n)
    return (a + a.conj().T) / 2


def test_hs_inner_matches_double_loop():
    rng = np.random.default_rng(1)
    for n in (1, 2, 4, 5):
        a = _rand_hermitian(rng, n)
        b = _rand_hermitian(rng, n)
        expected = 0.0
        for i in range(n):
            for j in range(n):
                expected += (np.conj(a[i, j]) * b[i, j]).real
        npt.assert_allclose(linalg.hs_inner(a, b), expected, rtol=1e-13)


def test_hs_norm_identity():
    for n in (1, 2, 7):
        npt.assert_allclose(linalg.hs_norm(np.eye(n)), np.sqrt(n), rtol=1e-15)


def test_hs_inner_symmetric_on_hermitians():
    rng = np.random.default_rng(2)
    a = _rand_hermitian(rng, 4)
    b = _rand_hermitian(rng, 4)
    npt.assert_allclose(linalg.hs_inner(a, b), linalg.hs_inner(b, a), rtol=1e-13)


def test_as_hermitian_accepts_and_rejects():
    rng = np.random.default_rng(3)
    h = _rand_hermitian(rng, 3)
    npt.assert_array_equal(linalg.as_hermitian(h), (h + h.conj().T) / 2)
    skewed = h + 1e-6 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(NotHermitian):
        linalg.as_hermitian(skewed)
    # a relaxed budget lets the same matrix through, symmetrized
    out = linalg.as_hermitian(skewed, tol=1e-5)
    npt.assert_array_equal(out, out.conj().T)
    # non-finite entries fail closed under any budget, symmetric or not
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        for at in ((0, 0), (0, 1)):
            m = h.copy()
            m[at] = bad
            with pytest.raises(NotFinite):
                linalg.as_hermitian(m, tol=1e300)


def test_eigh_fixed_is_deterministic_and_gauged():
    rng = np.random.default_rng(4)
    a = _rand_hermitian(rng, 5)
    w1, v1 = linalg.eigh_fixed(a)
    w2, v2 = linalg.eigh_fixed(a.copy())
    npt.assert_array_equal(w1, w2)
    npt.assert_array_equal(v1, v2)
    assert np.all(np.diff(w1) >= 0)
    # gauge: the largest-modulus entry of every column is real and positive
    for c in range(5):
        k = np.argmax(np.abs(v1[:, c]))
        assert abs(v1[k, c].imag) < 1e-14
        assert v1[k, c].real > 0
    npt.assert_allclose(v1 @ np.diag(w1) @ v1.conj().T, a, atol=1e-13)


def test_gauge_fix_columns_kills_phase_freedom():
    rng = np.random.default_rng(5)
    v = np.linalg.qr(_rand_complex(rng, 4))[0]
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    npt.assert_allclose(
        linalg.gauge_fix_columns(v), linalg.gauge_fix_columns(v * phases), atol=1e-14
    )


def _reference_gauge_fix(v):
    """The per-column loop gauge_fix_columns replaced."""
    v = np.array(v, dtype=complex, copy=True)
    for j in range(v.shape[1]):
        col = v[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if abs(pivot) > 0.0:
            v[:, j] = col * (pivot.conjugate() / abs(pivot))
    return v


def test_gauge_fix_columns_matches_loop():
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        frames = [np.linalg.eigh(_rand_hermitian(rng, n))[1], _rand_complex(rng, n)]
        # ties: two entries of equal modulus, the first must be the pivot
        tied = _rand_complex(rng, n, 2)
        tied[:, 0] = 0.0
        tied[0, 0], tied[n - 1, 0] = 0.6j, -0.6
        tied[:, 1] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        frames.append(tied)
        zero = _rand_complex(rng, n, 3)
        zero[:, 1] = 0.0
        frames += [zero, np.zeros((n, 0), dtype=complex)]
        for v in frames:
            got = linalg.gauge_fix_columns(v)
            assert got.shape == v.shape
            npt.assert_allclose(got, _reference_gauge_fix(v), rtol=0.0, atol=1e-15)
    npt.assert_array_equal(linalg.gauge_fix_columns(zero)[:, 1], 0.0)
    npt.assert_array_equal(linalg.gauge_fix_columns(tied)[[0, -1], 0], [0.6, 0.6j])


def test_check_frame_rejects_skew():
    rng = np.random.default_rng(6)
    q = np.linalg.qr(_rand_complex(rng, 4, 2))[0]
    linalg.check_frame(q)
    with pytest.raises(NotOrthonormal):
        linalg.check_frame(q * 1.001)


def test_block_embed_extract_roundtrip():
    rng = np.random.default_rng(9)
    blocks = [_rand_hermitian(rng, n) for n in (1, 3, 2)]
    m = linalg.block_embed(blocks)
    assert m.shape == (6, 6)
    back = linalg.block_extract(m, (1, 3, 2))
    for orig, got in zip(blocks, back):
        npt.assert_array_equal(orig, got)
    assert linalg.off_block_magnitude(m, (1, 3, 2)) == 0.0


def test_off_block_magnitude_sees_leakage():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 2] = 1e-4
    assert linalg.off_block_magnitude(m, (1, 2)) == pytest.approx(1e-4)
    assert linalg.off_block_magnitude(m, (3,)) == 0.0


@st.composite
def hermitian_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return _rand_hermitian(rng, n), _rand_hermitian(rng, n)


@settings(max_examples=60, deadline=None)
@given(hermitian_pairs())
def test_hs_inner_is_real_and_bilinear(pair):
    a, b = pair
    val = linalg.hs_inner(a, b)
    assert isinstance(val, float)
    npt.assert_allclose(
        linalg.hs_inner(a, 2.0 * b + a), 2.0 * val + linalg.hs_inner(a, a), rtol=1e-10
    )
    assert linalg.hs_inner(a, a) >= 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=5))
def test_eigh_fixed_reconstructs(seed, n):
    rng = np.random.default_rng(seed)
    a = _rand_hermitian(rng, n)
    w, v = linalg.eigh_fixed(a)
    npt.assert_allclose(v @ np.diag(w) @ v.conj().T, a, rtol=0, atol=1e-12)
    npt.assert_allclose(v.conj().T @ v, np.eye(n), rtol=0, atol=1e-12)


def test_block_eigvalsh_reads_a_1x1_blocks_eigenvalue_off_its_diagonal(monkeypatch):
    # negative, signed zeros, subnormal, tiny and huge values, with imaginary
    # parts that eigvalsh ignores: the bits eigvalsh gives each 1 x 1 block
    values = [-3.5, -0.0, 0.0, -5e-324, 5e-324, 1e-300, -1e-300, 1e308, -1e308, 0.25]
    rng = np.random.default_rng(7)
    ms = np.zeros((len(values), 4, 4), dtype=complex)
    for b, value in enumerate(values):
        ms[b] = np.diag([value, value / 3.0, -value, 2.0 * value]) + 1j * np.diag(rng.normal(size=4))
        ms[b, 1:3, 1:3] += [[0.0, 0.5 - 0.1j], [0.5 + 0.1j, 0.0]]
    want = [np.linalg.eigvalsh(ms[:, a : a + 1, a : a + 1]) for a in (0, 3)]
    want.insert(1, np.linalg.eigvalsh(ms[:, 1:3, 1:3]))
    eigvalsh, rows = np.linalg.eigvalsh, []

    def counted(a, *args, **kwargs):
        rows.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    got = linalg.block_eigvalsh(ms, (1, 2, 1))
    assert rows == [2]  # the 1 x 1 blocks call no solver
    for w, v in zip(got, want):
        assert w.shape == v.shape and w.dtype == v.dtype and w.flags.c_contiguous
        assert np.array_equal(w.view(np.uint64), v.view(np.uint64))
