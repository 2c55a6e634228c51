import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zslsign.errors import EmptySequence, MissingHandStream
from zslsign.oracles import brute_column_means, brute_tsm
from zslsign.temporal import (
    AggregatorKind,
    AggregatorSpec,
    average_pool,
    embed_video,
    shift_1d,
    tsm_aggregate,
)

from conftest import make_sample

TSM = lambda w: AggregatorSpec(kind=AggregatorKind.TEMPORAL_SHIFT_MAC, weights=w)

matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 5)),
    elements=st.floats(-100, 100, allow_nan=False),
)


def test_average_pool_basic():
    assert np.array_equal(average_pool(np.array([[1.0, 2.0], [3.0, 4.0]])), [2.0, 3.0])


def test_average_pool_single_row_is_identity():
    assert np.array_equal(average_pool(np.array([[5.0, 7.0, 9.0]])), [5.0, 7.0, 9.0])


def test_average_pool_matches_summation_oracle():
    mat = np.random.default_rng(3).normal(size=(10, 4))
    assert np.max(np.abs(average_pool(mat) - brute_column_means(mat))) < 1e-12


def test_average_pool_rejects_empty():
    with pytest.raises(EmptySequence):
        average_pool(np.zeros((0, 3)))


def test_shift_definition():
    a, b, c = [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]
    minus, zero, plus = shift_1d(np.array([a, b, c]))
    assert np.array_equal(minus, [[0.0, 0.0], a, b])
    assert np.array_equal(zero, [a, b, c])
    assert np.array_equal(plus, [b, c, [0.0, 0.0]])


def test_shift_single_row_is_all_boundary():
    minus, zero, plus = shift_1d(np.array([[7.0]]))
    assert np.array_equal(minus, [[0.0]])
    assert np.array_equal(zero, [[7.0]])
    assert np.array_equal(plus, [[0.0]])


def test_shift_matches_index_oracle():
    mat = np.random.default_rng(5).normal(size=(5, 3))
    minus, _, plus = shift_1d(mat)
    for i in range(5):
        for j in range(3):
            assert minus[i, j] == (mat[i - 1, j] if i >= 1 else 0.0)
            assert plus[i, j] == (mat[i + 1, j] if i + 1 < 5 else 0.0)


@given(st.data())
@settings(max_examples=60)
def test_shift_is_linear(data):
    x = data.draw(matrices)
    y = data.draw(
        arrays(dtype=np.float64, shape=x.shape, elements=st.floats(-100, 100, allow_nan=False))
    )
    a = data.draw(st.floats(-3, 3))
    b = data.draw(st.floats(-3, 3))
    combined = shift_1d(a * x + b * y)
    separate = [a * u + b * v for u, v in zip(shift_1d(x), shift_1d(y))]
    for got, want in zip(combined, separate):
        assert np.allclose(got, want, atol=1e-9)


def test_tsm_constant_sequence_boundary_arithmetic():
    x = np.array([2.0, -1.0, 0.5])
    seq = np.tile(x, (3, 1))
    pooled = tsm_aggregate(seq, TSM((1.0, 1.0, 1.0)))
    assert np.allclose(pooled, (7.0 / 3.0) * x, atol=1e-12)


def test_tsm_identity_kernel_equals_average_pool():
    mat = np.random.default_rng(9).normal(size=(6, 4))
    assert np.array_equal(tsm_aggregate(mat, TSM((0.0, 1.0, 0.0))), average_pool(mat))


@given(matrices)
@settings(max_examples=60)
def test_tsm_identity_kernel_property(mat):
    assert np.array_equal(tsm_aggregate(mat, TSM((0.0, 1.0, 0.0))), average_pool(mat))


def test_tsm_matches_convolution_oracle():
    mat = np.random.default_rng(17).normal(size=(6, 2))
    weights = (0.2, 0.5, 0.3)
    got = tsm_aggregate(mat, TSM(weights))
    assert np.max(np.abs(got - brute_tsm(mat, weights))) < 1e-12


def test_average_pool_permutation_invariant_tsm_not():
    seq = np.array([[1.0, 0.0], [5.0, 2.0]])
    flipped = seq[::-1]
    assert np.array_equal(average_pool(seq), average_pool(flipped))
    spec = TSM((1.0, 0.0, 0.0))  # w1 != w3
    assert not np.array_equal(tsm_aggregate(seq, spec), tsm_aggregate(flipped, spec))


def test_embed_video_concatenation_order():
    sample = make_sample("s", "c", body=[[1.0, 2.0]], hand=[[3.0]])
    spec = AggregatorSpec()
    assert np.array_equal(embed_video(sample, spec, use_hand=True), [1.0, 2.0, 3.0])
    assert np.array_equal(embed_video(sample, spec, use_hand=False), [1.0, 2.0])


def test_embed_video_missing_hand():
    sample = make_sample("s", "c", body=[[1.0, 2.0]])
    with pytest.raises(MissingHandStream):
        embed_video(sample, AggregatorSpec(), use_hand=True)


def test_two_stream_width_doubles():
    rng = np.random.default_rng(1)
    sample = make_sample("s", "c", body=rng.normal(size=(3, 1024)), hand=rng.normal(size=(3, 1024)))
    emb = embed_video(sample, AggregatorSpec(), use_hand=True)
    assert emb.shape == (2048,)


def test_weights_must_be_finite():
    with pytest.raises(ValueError):
        AggregatorSpec(kind=AggregatorKind.TEMPORAL_SHIFT_MAC, weights=(np.inf, 1.0, 0.0))
