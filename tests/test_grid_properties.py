"""Property tests of the grid layer: the pointwise product, the commutator of a
stacked pair of entry blocks, the transforms and the stacked constraint check,
over drawn dimensions, cutoffs and stacks."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hwmlab import integrator
from hwmlab.grassmann import constraint_residuals
from hwmlab.hardy import (
    FourierSeries,
    block_commutator,
    evaluate_grid,
    fit_series,
    grid_product,
)

EPS = np.finfo(float).eps

dims = st.integers(1, 5)
stacks = st.sampled_from([(), (1,), (3,), (2, 2)])
seeds = st.integers(0, 2**32 - 1)


def gaussian(seed, shape):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@given(d=dims, stack=stacks, M=st.integers(1, 12), entry_major=st.booleans(), seed=seeds)
def test_grid_product_matches_pointwise_matmul(d, stack, M, entry_major, seed):
    shape = stack + (M, d, d)
    if entry_major:
        # the layout evaluate_grid returns
        nd = len(shape)
        a, b = (x.transpose(*range(2, nd), 0, 1) for x in gaussian(seed, (2, d, d) + shape[:-2]))
    else:
        a, b = gaussian(seed, (2,) + shape)
    got = grid_product(a, b)
    assert got.shape == shape
    for idx in np.ndindex(*shape[:-2]):
        bound = 8 * EPS * np.linalg.norm(a[idx]) * np.linalg.norm(b[idx])
        assert np.max(np.abs(got[idx] - a[idx] @ b[idx])) <= bound
    # the commutator sums the same blocks, so it matches the two products bit for bit
    comm = block_commutator(entry_pair(a, b))
    assert comm.shape == (d, d) + shape[:-2]
    assert comm.tobytes() == entry_block(got - grid_product(b, a)).tobytes()


def reference_line(a, b, i, k, out):
    """Entry line ``(a @ b)[..., i, k]`` into ``out``, summed over j = 0..d-1 in order."""
    acc = np.multiply(a[..., i, 0], b[..., 0, k], out=out)
    for j in range(1, a.shape[-1]):
        acc += a[..., i, j] * b[..., j, k]
    return acc


def reference_kernel(a, b, commute):
    """The pointwise product (or, with ``commute``, the commutator) as one line
    loop per entry (i, k) into a C-contiguous ``(d, d, ...)`` block, returned entry
    major: the form the block kernel must reproduce bit for bit."""
    d = a.shape[-1]
    out = np.empty((d, d) + np.broadcast_shapes(a.shape, b.shape)[:-2], dtype=np.result_type(a, b))
    line = np.empty(out.shape[2:], dtype=out.dtype)
    for i in range(d):
        for k in range(d):
            ab = reference_line(a, b, i, k, out[i, k])
            if commute:
                ab -= reference_line(b, a, i, k, line)
    return out.transpose(*range(2, out.ndim), 0, 1)


def sample_layouts(seed, shape):
    """Equal-shaped samples in four memory layouts: entry major (as evaluate_grid
    returns them), C order, Fortran order, and every other sample of a longer grid."""
    nd, d = len(shape), shape[-1]
    g = gaussian(seed, (2,) + shape)
    yield gaussian(seed + 1, (d, d) + shape[:-2]).transpose(*range(2, nd), 0, 1)
    yield g[0]
    yield np.asfortranarray(g[1])
    longer = gaussian(seed + 2, shape[:-3] + (2 * shape[-3],) + shape[-2:])
    yield longer[..., ::2, :, :]


def entry_block(x):
    """The ``(d, d, ...)`` entry view of samples ``(..., d, d)``."""
    return x.transpose(x.ndim - 2, x.ndim - 1, *range(x.ndim - 2))


def entry_pair(a, b):
    """Samples a and b as one C-ordered stack of entry blocks ``(2, d, d, ...)``."""
    return np.stack([entry_block(x) for x in np.broadcast_arrays(a, b)])


@pytest.mark.parametrize("stack", [(), (1,), (3,), (2, 2)])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_grid_kernels_equal_the_line_loop_bytewise(d, stack):
    cases = 0
    for M in (1, 5, 12, 64, 129):
        shape = stack + (M, d, d)
        left = list(sample_layouts(10 * M + d, shape))
        right = list(sample_layouts(10 * M + d + 5, shape))
        const = gaussian(M, (d, d))
        pairs = [(a, b) for a in left for b in right] + [(left[0], const), (const, right[1])]
        for a, b in pairs:
            got, want = grid_product(a, b), reference_kernel(a, b, False)
            assert got.shape == want.shape == shape
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()
            cases += 1
            # the stacked kernel on the pair as one stage's transform returns it, and in Fortran order
            want = entry_block(reference_kernel(a, b, True))
            for pair in (entry_pair(a, b), np.asfortranarray(entry_pair(a, b))):
                got = block_commutator(pair)
                assert got.shape == want.shape == (d, d) + shape[:-2]
                assert got.strides == want.strides
                assert got.tobytes() == want.tobytes()
                cases += 1
    assert cases == 3 * 5 * 18


@given(d=dims, stack=stacks, M=st.integers(1, 12), seed=seeds)
def test_grid_product_broadcasts_against_identity(d, stack, M, seed):
    a = gaussian(seed, stack + (M, d, d))
    eye = np.eye(d)
    assert np.array_equal(grid_product(a, eye), a)
    assert np.array_equal(grid_product(eye, a), a)


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [
        ((5, 7, 1, 3), (5, 7, 3, 3)),  # a row block against a square block
        ((4, 3, 2), (4, 2, 4)),  # rectangular entries
        ((2, 1, 6, 3, 2), (5, 1, 2, 3)),  # stack axes broadcast both ways
        ((3, 3), (6, 3, 3)),  # one matrix against a stack
        ((6, 1, 4), (4, 1)),  # a column
    ],
)
def test_grid_product_broadcasts_as_matmul(a_shape, b_shape):
    # only the leading stack axes broadcast: the entry axes are each operand's own
    a, b = gaussian(7, a_shape), gaussian(8, b_shape)
    expected = np.matmul(a, b)
    got = grid_product(a, b)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 8 * EPS * np.max(np.abs(a)) * np.max(np.abs(b)) * a_shape[-1]


def test_grid_product_rejects_mismatched_entry_axes():
    with pytest.raises(ValueError, match="cannot multiply"):
        grid_product(gaussian(1, (4, 3, 2)), gaussian(2, (4, 3, 4)))


def reference_constraint_residuals(d, k, coeffs):
    """The sample-major check that the row-block one replaced, kept as a bitwise reference:
    the full U^2 - I of the samples, the upper triangle of U - U^H and the trace."""
    N = (coeffs.shape[-3] - 1) // 2
    vals = evaluate_grid(coeffs, 4 * N + 1)
    sq = grid_product(vals, vals)
    for i in range(d):
        sq[..., i, i] -= 1
    r, c = np.nonzero(np.arange(d)[:, None] <= np.arange(d))
    return np.stack(
        [
            np.abs(sq).max(axis=(-3, -2, -1)),
            np.abs(vals[..., r, c] - vals[..., c, r].conj()).max(axis=(-2, -1)),
            np.abs(vals.trace(axis1=-2, axis2=-1).real - (d - 2 * k)).max(axis=-1),
        ],
        axis=-1,
    )


@pytest.mark.parametrize("stack", [(), (3,), (2, 4)])
@pytest.mark.parametrize("N", [0, 1, 7, 20])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_constraint_residuals_match_sample_major_reference_bitwise(d, N, stack):
    rng = np.random.Generator(np.random.Philox(key=1000 * d + 10 * N + len(stack)))
    shape = stack + (2 * N + 1, d, d)
    # constant involutions of every rank plus noise from 1e-14 to 1, with -0.0 in
    # real and imaginary parts and whole entries of -0.0
    signs = np.where(np.arange(d) < rng.integers(0, d + 1, stack + (1,)), -1.0, 1.0)
    coeffs = gaussian(int(rng.integers(2**32)), shape) * 10.0 ** rng.uniform(-14, 0, stack + (1, 1, 1))
    coeffs[..., N, :, :] += signs[..., None, :] * np.eye(d)
    coeffs.real[rng.random(shape) < 0.2] = -0.0
    coeffs.imag[rng.random(shape) < 0.2] = -0.0
    coeffs[rng.random(shape) < 0.1] = complex(-0.0, -0.0)
    for k in range(d + 1):
        got = constraint_residuals(d, k, coeffs)
        got = [got] if not stack else got
        expected = reference_constraint_residuals(d, k, coeffs).reshape(-1, 3)
        assert len(got) == len(expected)
        for check, row in zip(got, expected.tolist()):
            assert list(check) == ["involution", "hermitian", "trace"]
            assert struct.pack("<3d", *check.values()) == struct.pack("<3d", *row)


@given(d=dims, N=st.integers(0, 8), extra=st.integers(0, 9), seed=seeds)
def test_evaluate_then_fit_round_trip(d, N, extra, seed):
    f = FourierSeries(d, N, gaussian(seed, (2 * N + 1, d, d)))
    back = fit_series(evaluate_grid(f, 2 * N + 1 + extra), N)
    assert np.max(np.abs(back - f.coeffs)) <= 64 * EPS * np.linalg.norm(f.coeffs)


@given(
    d=st.integers(1, 4),
    N=st.integers(0, 6),
    size=st.integers(1, 4),
    seed=seeds,
)
def test_stacked_residuals_match_single_calls_bytewise(d, N, size, seed):
    c = gaussian(seed, (size, 2 * N + 1, d, d))
    c = 0.5 * (c + c[:, ::-1].swapaxes(-2, -1).conj())  # Hermitian samples, up to rounding
    group = [FourierSeries(d, N, x) for x in c]
    checks = constraint_residuals(d, d // 2, c)
    for series, check in zip(group, checks):
        single = constraint_residuals(d, d // 2, series)
        assert list(check) == list(single)
        assert struct.pack("<3d", *check.values()) == struct.pack("<3d", *single.values())


@given(d=st.integers(1, 4), N=st.integers(0, 8), size=st.integers(1, 3), scale=st.integers(-16, 0), seed=seeds)
def test_hermitian_residual_bounds_the_coefficient_symmetry_defect(d, N, size, scale, seed):
    # on 4N+1 >= 2N+1 points each coefficient of an entry of U - U^H is the mean of its samples
    # against unimodular phases, so at most their largest modulus; a defect below 1e-16 of these
    # unit coefficients would sit under their rounding, so none is drawn
    c = gaussian(seed, (2, size, 2 * N + 1, d, d))
    c = 0.5 * (c[0] + c[0, :, ::-1].swapaxes(-2, -1).conj()) + 10.0**scale * c[1]
    defect = np.abs(c - c[:, ::-1].swapaxes(-2, -1).conj()).max(axis=(-3, -2, -1))
    hermitian = np.array([check["hermitian"] for check in constraint_residuals(d, d // 2, c)])
    assert (defect > 0.0).all() and (defect <= hermitian).all()


@pytest.mark.parametrize("stack", [(), (3,)])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_grid_samples_are_entry_major(rng, stack, d):
    # entry major: the (d, d, ..., M) entry block is C-contiguous, so every
    # [..., i, j] line is contiguous and grid_product's block kernel runs on
    # contiguous memory
    N, M = 5, 21
    coeffs = rng.standard_normal(stack + (2 * N + 1, d, d)) + 0j
    vals = evaluate_grid(coeffs, M)
    samples = [vals, grid_product(vals, vals)]
    if stack:
        # each series of the stack samples as it does alone, bit for bit
        for c, v in zip(coeffs.reshape((-1,) + coeffs.shape[-3:]), vals.reshape((-1,) + vals.shape[-3:])):
            assert evaluate_grid(FourierSeries(d, N, c), M).tobytes() == v.tobytes()
    else:
        samples.append(evaluate_grid(FourierSeries(d, N, coeffs), M))
    for values in samples:
        assert values.shape == stack + (M, d, d)
        for i in range(d):
            for j in range(d):
                assert values[..., i, j].flags.c_contiguous


@given(N=st.integers(0, 10**6))
def test_rk4_grid_is_the_smallest_alias_free_power_of_two(N):
    M = integrator._grid_size(N)
    assert M & (M - 1) == 0
    assert 3 * N + 1 <= M < 2 * (3 * N + 1)


@given(d=st.integers(1, 4), N=st.integers(0, 40), seed=seeds)
def test_flow_rate_is_alias_free_on_its_grid(d, N, seed):
    # modes -N..N of the quadratic rate are exact on any grid of at least 3N+1
    # points, so the power-of-two grid moves only rounding against 3(2N+1)
    c = gaussian(seed, (2 * N + 1, d, d))
    rate = integrator._flow_rate(c)
    with mock.patch.object(integrator, "_grid_size", lambda N: 3 * (2 * N + 1)):
        padded = integrator._flow_rate(c)
    scale = np.linalg.norm(c) * np.linalg.norm(np.abs(np.arange(-N, N + 1))[:, None, None] * c)
    assert np.max(np.abs(rate - padded)) <= 1e-13 * scale
