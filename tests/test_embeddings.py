import numpy as np
import pytest

from zslsign.data import ClassDescriptor
from zslsign.embeddings import ClassEmbeddingSet, EmbeddingMode, ModeKind
from zslsign.errors import DimensionMismatch, MissingReduction
from zslsign.oracles import flip_attribute

from conftest import make_descriptor

ATTR = EmbeddingMode(kind=ModeKind.ATTRIBUTES)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def compose_one(descriptor, mode, reduction=None) -> np.ndarray:
    """Embedding of a single class through the one composition path."""
    return ClassEmbeddingSet.from_descriptors([descriptor], mode).compose(reduction)[0]


def test_attr_only_is_identity_embed():
    c = make_descriptor("c", [1, 0, 1])
    assert np.array_equal(compose_one(c, ATTR), [1.0, 0.0, 1.0])


def test_text_only_identity_reduction():
    c = make_descriptor("c", [1], text=unit([1.0, 2.0, 2.0]))
    mode = EmbeddingMode(kind=ModeKind.TEXT, d_t=3)
    got = compose_one(c, mode, reduction=np.eye(3))
    assert np.array_equal(got, c.text)


def test_text_only_bypass_without_reduction():
    c = make_descriptor("c", [1], text=unit([3.0, 4.0]))
    mode = EmbeddingMode(kind=ModeKind.TEXT, d_t=2)
    assert np.array_equal(compose_one(c, mode), c.text)


def test_combined_standard_widths():
    rng = np.random.default_rng(0)
    c = make_descriptor("c", rng.integers(0, 2, size=53), text=unit(rng.normal(size=768)))
    mode = EmbeddingMode(kind=ModeKind.COMBINED, d_t=64)
    M = rng.normal(size=(768, 64))
    assert compose_one(c, mode, M).shape == (117,)  # 53 + 64


def test_missing_reduction_raises():
    c = make_descriptor("c", [1], text=unit([1.0, 1.0, 1.0]))
    with pytest.raises(MissingReduction):
        compose_one(c, EmbeddingMode(kind=ModeKind.TEXT, d_t=2))


def test_wrong_reduction_shape_raises():
    c = make_descriptor("c", [1], text=unit([1.0, 1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        compose_one(c, EmbeddingMode(kind=ModeKind.TEXT, d_t=2), reduction=np.eye(3))


def test_composition_linear_in_text():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(4, 2))
    mode = EmbeddingMode(kind=ModeKind.TEXT, d_t=2)
    t1, t2 = rng.normal(size=4), rng.normal(size=4)
    c1 = ClassDescriptor("a", "a", np.array([1.0]), t1)
    c2 = ClassDescriptor("a", "a", np.array([1.0]), t2)
    c12 = ClassDescriptor("a", "a", np.array([1.0]), 2.0 * t1 + 3.0 * t2)
    lhs = compose_one(c12, mode, M)
    rhs = 2.0 * compose_one(c1, mode, M) + 3.0 * compose_one(c2, mode, M)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_combined_prefix_equals_attr_embedding():
    rng = np.random.default_rng(6)
    c = make_descriptor("c", rng.integers(0, 2, size=5), text=unit(rng.normal(size=6)))
    M = rng.normal(size=(6, 2))
    combined = compose_one(c, EmbeddingMode(kind=ModeKind.COMBINED, d_t=2), M)
    attr_only = compose_one(c, ATTR)
    assert np.array_equal(combined[:5], attr_only)


def test_flip_changes_exactly_one_combined_coordinate():
    rng = np.random.default_rng(7)
    c = make_descriptor("c", rng.integers(0, 2, size=5), text=unit(rng.normal(size=6)))
    M = rng.normal(size=(6, 2))
    mode = EmbeddingMode(kind=ModeKind.COMBINED, d_t=2)
    base = compose_one(c, mode, M)
    flipped = compose_one(flip_attribute(c, 3), mode, M)
    diff = flipped - base
    assert np.count_nonzero(diff) == 1
    assert diff[3] in (1.0, -1.0)
    assert np.array_equal(flipped[5:], base[5:])  # text block untouched


def test_embedding_set_matches_per_class_composition():
    rng = np.random.default_rng(8)
    descriptors = [
        make_descriptor(f"c{i}", rng.integers(0, 2, size=4), text=unit(rng.normal(size=5)))
        for i in range(6)
    ]
    mode = EmbeddingMode(kind=ModeKind.COMBINED, d_t=3)
    M = rng.normal(size=(5, 3))
    table = ClassEmbeddingSet.from_descriptors(descriptors, mode)
    S = table.compose(M)
    assert S.shape == (6, 7)
    for i, cid in enumerate(table.class_ids):
        descriptor = next(c for c in descriptors if c.class_id == cid)
        # matrix-matrix vs vector-matrix products may differ in the last ulp
        per_class = np.concatenate([descriptor.attributes, descriptor.text @ M])
        assert np.allclose(S[i], per_class, atol=1e-12)
        assert np.array_equal(S[i, :4], descriptor.attributes)
    assert table.embedding_dim == 7
    assert table.index_of("c3") == list(table.class_ids).index("c3")
    with pytest.raises(KeyError):
        table.index_of("ghost")
