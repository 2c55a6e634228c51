import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zslsign.data import Dataset, SplitConfig, SplitMode
from zslsign.errors import EmptySequence, MissingHandStream
from zslsign.experiment import Role, RunConfig
from zslsign.oracles import brute_column_means, brute_tsm
from zslsign.temporal import AggregatorKind, AggregatorSpec, aggregate, embed_video

from conftest import make_descriptor, make_sample

AVG = AggregatorSpec()
TSM = lambda w: AggregatorSpec(kind=AggregatorKind.TEMPORAL_SHIFT_MAC, weights=w)

matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 5)),
    elements=st.floats(-100, 100, allow_nan=False),
)
taps = st.tuples(*[st.floats(-3, 3, allow_nan=False)] * 3)


def one_hot_row_weights(T: int, weights) -> list[float]:
    """Pooled tsm output when row j is a one-hot row: (w2 + w1 [j < T-1] + w3 [j > 0]) / T."""
    w1, w2, w3 = weights
    return [(w2 + w1 * (j < T - 1) + w3 * (j > 0)) / T for j in range(T)]


def test_average_pool_basic():
    assert np.array_equal(aggregate(np.array([[1.0, 2.0], [3.0, 4.0]]), AVG), [2.0, 3.0])


def test_average_pool_single_row_is_identity():
    assert np.array_equal(aggregate(np.array([[5.0, 7.0, 9.0]]), AVG), [5.0, 7.0, 9.0])


def test_average_pool_matches_summation_oracle():
    mat = np.random.default_rng(3).normal(size=(10, 4))
    assert np.max(np.abs(aggregate(mat, AVG) - brute_column_means(mat))) < 1e-12


def test_average_pool_rejects_empty():
    for spec in (AVG, TSM((0.2, 0.5, 0.3))):
        with pytest.raises(EmptySequence):
            aggregate(np.zeros((0, 3)), spec)


def test_shift_definition():
    # T = 3: row 0 has no predecessor (loses w3), row 2 no successor (loses w1)
    weights = (2.0, 3.0, 5.0)
    got = aggregate(np.eye(3), TSM(weights))
    assert np.array_equal(got, [(3.0 + 2.0) / 3, (3.0 + 2.0 + 5.0) / 3, (3.0 + 5.0) / 3])


def test_shift_single_row_is_all_boundary():
    # T = 1: both shifted copies are zero rows, so only the current tap survives
    assert np.array_equal(aggregate(np.array([[7.0]]), TSM((2.0, 3.0, 5.0))), [3.0 * 7.0])


def test_shift_matches_index_oracle():
    # one-hot rows for T = 1, 2, 3 read off each row's exact weight, zero-filled boundary included
    for weights in [(2.0, 3.0, 5.0), (0.2, 0.5, 0.3), (-1.5, 0.25, 3.0)]:
        for T in (1, 2, 3):
            got = aggregate(np.eye(T), TSM(weights))
            assert np.array_equal(got, one_hot_row_weights(T, weights)), (T, weights)


@given(st.data())
@settings(max_examples=60)
def test_shift_is_linear(data):
    x = data.draw(matrices)
    y = data.draw(
        arrays(dtype=np.float64, shape=x.shape, elements=st.floats(-100, 100, allow_nan=False))
    )
    a = data.draw(st.floats(-3, 3))
    b = data.draw(st.floats(-3, 3))
    for spec in (AVG, TSM(data.draw(taps))):
        combined = aggregate(a * x + b * y, spec)
        separate = a * aggregate(x, spec) + b * aggregate(y, spec)
        assert np.allclose(combined, separate, atol=1e-9)


@given(matrices, taps)
@settings(max_examples=200)
def test_aggregate_matches_brute_oracles(mat, weights):
    bound = 1e-12 * max(1.0, float(np.max(np.abs(mat))))
    assert np.max(np.abs(aggregate(mat, TSM(weights)) - brute_tsm(mat, weights))) <= bound
    assert np.max(np.abs(aggregate(mat, AVG) - brute_column_means(mat))) <= bound


def test_tsm_constant_sequence_boundary_arithmetic():
    x = np.array([2.0, -1.0, 0.5])
    seq = np.tile(x, (3, 1))
    pooled = aggregate(seq, TSM((1.0, 1.0, 1.0)))
    assert np.allclose(pooled, (7.0 / 3.0) * x, atol=1e-12)


def test_tsm_identity_kernel_equals_average_pool():
    mat = np.random.default_rng(9).normal(size=(6, 4))
    assert np.array_equal(aggregate(mat, TSM((0.0, 1.0, 0.0))), aggregate(mat, AVG))


@given(matrices)
@settings(max_examples=60)
def test_tsm_identity_kernel_property(mat):
    assert np.array_equal(aggregate(mat, TSM((0.0, 1.0, 0.0))), aggregate(mat, AVG))
    assert np.array_equal(aggregate(mat, AVG), mat.mean(axis=0))


def test_tsm_matches_convolution_oracle():
    mat = np.random.default_rng(17).normal(size=(6, 2))
    weights = (0.2, 0.5, 0.3)
    got = aggregate(mat, TSM(weights))
    assert np.max(np.abs(got - brute_tsm(mat, weights))) < 1e-12


def test_average_pool_permutation_invariant_tsm_not():
    seq = np.array([[1.0, 0.0], [5.0, 2.0]])
    flipped = seq[::-1]
    assert np.array_equal(aggregate(seq, AVG), aggregate(flipped, AVG))
    spec = TSM((1.0, 0.0, 0.0))  # w1 != w3
    assert not np.array_equal(aggregate(seq, spec), aggregate(flipped, spec))


def test_embed_video_concatenation_order():
    body, hand = np.array([[1.0, 2.0]]), np.array([[3.0]])
    assert np.array_equal(embed_video(body, hand, AVG), [1.0, 2.0, 3.0])
    assert np.array_equal(embed_video(body, None, AVG), [1.0, 2.0])


def test_embed_video_missing_hand(saved):
    # embed_video pools the hand frames it is given; a two-stream embedding of a sample that has
    # none is refused, naming the sample
    samples = (make_sample("s0", "c", [[1.0, 2.0]], hand=[[3.0]]), make_sample("s1", "c", [[1.0, 2.0]]))
    split = SplitConfig(frozenset({"c"}), frozenset(), frozenset(), SplitMode.ZSL)
    dataset = Dataset((make_descriptor("c", [1.0]),), samples, split, attribute_count=1)
    with pytest.raises(MissingHandStream, match="sample 's1'"):
        saved.view(dataset, RunConfig(use_hand=True), (Role.SEEN,))


def test_two_stream_width_doubles():
    rng = np.random.default_rng(1)
    emb = embed_video(rng.normal(size=(3, 1024)), rng.normal(size=(3, 1024)), AggregatorSpec())
    assert emb.shape == (2048,)


def test_weights_must_be_finite():
    with pytest.raises(ValueError):
        AggregatorSpec(kind=AggregatorKind.TEMPORAL_SHIFT_MAC, weights=(np.inf, 1.0, 0.0))
