"""Property tests of the grid layer: the pointwise product, the transforms and
the stacked constraint check, over drawn dimensions, cutoffs and stacks."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hwmlab.grassmann import constraint_residuals
from hwmlab.hardy import FourierSeries, evaluate_grid, fit_series, grid_product, grid_values

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
        # the layout grid_values returns
        nd = len(shape)
        a, b = (x.transpose(*range(2, nd), 0, 1) for x in gaussian(seed, (2, d, d) + shape[:-2]))
    else:
        a, b = gaussian(seed, (2,) + shape)
    got = grid_product(a, b)
    assert got.shape == shape
    for idx in np.ndindex(*shape[:-2]):
        bound = 8 * EPS * np.linalg.norm(a[idx]) * np.linalg.norm(b[idx])
        assert np.max(np.abs(got[idx] - a[idx] @ b[idx])) <= bound


@given(d=dims, stack=stacks, M=st.integers(1, 12), seed=seeds)
def test_grid_product_broadcasts_against_identity(d, stack, M, seed):
    a = gaussian(seed, stack + (M, d, d))
    eye = np.eye(d)
    assert np.array_equal(grid_product(a, eye), a)
    assert np.array_equal(grid_product(eye, a), a)


@given(d=dims, N=st.integers(0, 8), extra=st.integers(0, 9), seed=seeds)
def test_evaluate_then_fit_round_trip(d, N, extra, seed):
    f = FourierSeries(d, N, gaussian(seed, (2 * N + 1, d, d)))
    back = fit_series(evaluate_grid(f, 2 * N + 1 + extra), N)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 64 * EPS * np.linalg.norm(f.coeffs)


@given(
    d=st.integers(1, 4),
    N=st.integers(0, 6),
    size=st.integers(1, 4),
    extra=st.one_of(st.none(), st.integers(0, 20)),
    seed=seeds,
)
def test_stacked_residuals_match_single_calls_bytewise(d, N, size, extra, seed):
    grid = None if extra is None else 2 * N + 1 + extra
    c = gaussian(seed, (size, 2 * N + 1, d, d))
    c = 0.5 * (c + c[:, ::-1].swapaxes(-2, -1).conj())  # Hermitian samples, up to rounding
    group = [FourierSeries(d, N, x) for x in c]
    checks = constraint_residuals(d, d // 2, group, grid=grid)
    for series, check in zip(group, checks):
        single = constraint_residuals(d, d // 2, series, grid=grid)
        assert list(check) == list(single)
        assert struct.pack("<4d", *check.values()) == struct.pack("<4d", *single.values())


@pytest.mark.parametrize("stack", [(), (3,)])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_grid_samples_are_entry_major(rng, stack, d):
    # every [..., i, j] line contiguous, so grid_product multiplies whole lines
    N, M = 5, 21
    coeffs = rng.standard_normal(stack + (2 * N + 1, d, d)) + 0j
    vals = grid_values(coeffs, M)
    samples = [vals, grid_product(vals, vals)]
    if not stack:
        samples.append(evaluate_grid(FourierSeries(d, N, coeffs), M).values)
    for values in samples:
        assert values.shape == stack + (M, d, d)
        for i in range(d):
            for j in range(d):
                assert values[..., i, j].flags.c_contiguous
