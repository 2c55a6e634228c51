import json
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zslsign.embeddings import ClassEmbeddingSet, EmbeddingMode, ModeKind
from zslsign.errors import (
    DegenerateData,
    DimensionMismatch,
    EmptyCandidates,
    InstanceTooLarge,
    MissingFile,
    SchemaMismatch,
    SingularSystem,
)
from zslsign.models import (
    CompatModel,
    Method,
    TrainConfig,
    load_model,
    posteriors,
    save_model,
    train_eszsl,
    train_lle,
    train_sae,
    truth_ranks,
)
from zslsign.oracles import (
    brute_bilinear,
    brute_lle_gradients,
    brute_lle_objective,
    brute_softmax,
    brute_sylvester,
    eszsl_gradient,
    eszsl_objective,
    finite_difference_grad,
    rank_scores,
    sylvester_residual,
)

from conftest import lle_gradients, lle_objective, make_descriptor

ATTR = EmbeddingMode(kind=ModeKind.ATTRIBUTES)


def attr_model(W, **kwargs) -> CompatModel:
    defaults = dict(mode=ATTR, method=Method.LLE, hyperparams={})
    defaults.update(kwargs)
    return CompatModel(W=np.asarray(W, dtype=float), M=None, **defaults)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_training_problem(seed, n=24, d=5, n_classes=4, attr_count=3, text_dim=4, d_t=2,
                            mode_kind=ModeKind.COMBINED):
    rng = np.random.default_rng(seed)
    descriptors = [
        make_descriptor(f"c{i}", rng.integers(0, 2, size=attr_count), text=unit(rng.normal(size=text_dim)))
        for i in range(n_classes)
    ]
    mode = EmbeddingMode(kind=mode_kind, d_t=d_t)
    classes = ClassEmbeddingSet.from_descriptors(descriptors, mode)
    features = rng.normal(size=(n, d))
    labels = [f"c{i % n_classes}" for i in range(n)]
    return features, labels, classes, rng


# ---------------------------------------------------------------------------
# scores / posteriors / truth_ranks
# ---------------------------------------------------------------------------


def test_compatibility_identity():
    model = attr_model(np.eye(2))
    assert model.scores([1.0, 0.0], [[1.0, 0.0]])[0] == 1.0


def test_compatibility_zero_matrix():
    model = attr_model(np.zeros((3, 2)))
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert model.scores(rng.normal(size=3), rng.normal(size=(1, 2)))[0] == 0.0


def test_compatibility_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        W = rng.normal(size=(3, 2))
        phi = rng.normal(size=3)
        rho = rng.normal(size=2)
        got = attr_model(W).scores(phi, rho[None, :])[0]
        assert abs(got - brute_bilinear(phi, W, rho)) < 1e-12


def test_compatibility_dimension_mismatch():
    model = attr_model(np.eye(2))
    with pytest.raises(DimensionMismatch):
        model.scores([1.0, 2.0, 3.0], [[1.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        model.scores([1.0, 2.0], [[1.0]])


def phi_w_first(n, d, t, c) -> bool:
    """Whether Phi W S' (n x d, d x t, c x t) is cheaper as (Phi W) S' than as Phi (W S')."""
    return n * t * (d + c) < d * c * (n + t)


@st.composite
def bilinear_shapes(draw, phi_first: bool):
    """N, d, t, |C| that put Phi W S' on the given side of the association switch."""
    if phi_first:  # few samples, many classes
        n, d, t, c = draw(st.integers(1, 3)), draw(st.integers(4, 16)), draw(st.integers(1, 4)), draw(st.integers(8, 24))
    else:  # many samples, few classes
        n, d, t, c = draw(st.integers(8, 24)), draw(st.integers(1, 4)), draw(st.integers(5, 16)), draw(st.integers(1, 4))
    assert phi_w_first(n, d, t, c) == phi_first
    return n, d, t, c


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(bilinear_shapes), st.booleans(), st.integers(0, 2**32 - 1))
def test_scores_match_the_double_loop_oracle_in_either_association(shape, one_row, seed):
    n, d, t, c = shape
    rng = np.random.default_rng(seed)
    W, S = rng.normal(size=(d, t)), rng.normal(size=(c, t))
    features = rng.normal(size=d) if one_row else rng.normal(size=(n, d))
    got = attr_model(W).scores(features, S)
    want = np.array([[brute_bilinear(phi, W, rho) for rho in S] for phi in np.atleast_2d(features)])
    assert got.shape == ((c,) if one_row else (n, c))
    assert np.max(np.abs(np.atleast_2d(got) - want)) < 1e-12


def test_posteriors_symmetry():
    model = attr_model(np.eye(2))
    p = posteriors(model.scores([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(p, [0.5, 0.5], atol=1e-15)


def test_posteriors_extreme_scores_stable():
    model = attr_model(np.array([[1000.0, 0.0]]))
    p = posteriors(model.scores([1.0], [[1.0, 0.0], [0.0, 1.0]]))
    assert np.all(np.isfinite(p))
    assert p[0] > 1.0 - 1e-12
    assert p[1] < 1e-12


def test_posteriors_match_extended_precision_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        model = attr_model(rng.normal(size=(4, 3)))
        phi = rng.normal(size=4)
        cands = rng.normal(size=(5, 3))
        scores = [brute_bilinear(phi, model.W, c) for c in cands]
        got = posteriors(model.scores(phi, cands))
        assert np.max(np.abs(got - brute_softmax(scores))) < 1e-12
        assert abs(got.sum() - 1.0) < 1e-12
        assert np.all((got >= 0.0) & (got <= 1.0))


def test_posteriors_empty_candidates():
    with pytest.raises(EmptyCandidates):
        posteriors(attr_model(np.eye(1)).scores([1.0], []))


def every_truth_rank(scores, ids):
    """Rank of every class taken in turn as the truth: the inverse of each row's ranking."""
    n = scores.shape[0]
    return np.stack([truth_ranks(scores, ids, [cid] * n) for cid in ids], axis=1)


def test_predict_single_candidate():
    model = attr_model(np.eye(1))
    scores = model.scores([[1.0]], [[2.0]])
    assert truth_ranks(scores, ["c0"], ["c0"]).tolist() == [0]
    assert scores.argmax(axis=1).tolist() == [0]


def test_predict_tie_breaks_by_class_id():
    model = attr_model(np.array([[2.0]]))
    classes = ClassEmbeddingSet.from_descriptors([make_descriptor("b", [1]), make_descriptor("a", [1])], ATTR)
    scores = model.scores([[1.0]], classes.compose())
    assert classes.class_ids == ("a", "b")
    assert every_truth_rank(scores, classes.class_ids).tolist() == [[0, 1]]
    assert scores.argmax(axis=1).tolist() == [0]
    with pytest.raises(ValueError):
        truth_ranks(np.array([[2.0, 2.0]]), ["b", "a"], ["a"])  # columns not in class_id order


def test_predict_matches_linear_scan_oracle():
    rng = np.random.default_rng(3)
    ids = [f"c{i}" for i in range(10)]
    for _ in range(30):
        model = attr_model(rng.normal(size=(4, 3)))
        phi = rng.normal(size=4)
        cands = rng.normal(size=(10, 3))
        row = model.scores(phi, cands)
        scores = dict(zip(ids, row))
        best = max(scores, key=lambda cid: (scores[cid], [-ord(ch) for ch in cid]))
        assert ids[int(row.argmax())] == best
        ranks = every_truth_rank(row[None, :], ids)[0]
        assert [ids[j] for j in np.argsort(ranks)] == sorted(ids, key=lambda cid: (-scores[cid], cid))


def test_predict_invariant_to_positive_rescale_and_shift():
    rng = np.random.default_rng(4)
    W = rng.normal(size=(3, 2))
    phi = rng.normal(size=(1, 3))
    cands = rng.normal(size=(6, 2))
    ids = [f"c{i}" for i in range(6)]
    base = every_truth_rank(attr_model(W).scores(phi, cands), ids)
    assert sorted(base[0].tolist()) == list(range(6))  # a permutation: the whole ranking
    scaled = every_truth_rank(attr_model(2.5 * W).scores(phi, cands), ids)
    assert np.array_equal(scaled, base)
    # additive shift: augment with a constant coordinate contributing +c to every score
    W_aug = np.block([[W, np.zeros((3, 1))], [np.zeros((1, 2)), np.array([[7.0]])]])
    phi_aug = np.hstack([phi, [[1.0]]])
    cands_aug = np.hstack([cands, np.ones((6, 1))])
    shifted = every_truth_rank(attr_model(W_aug).scores(phi_aug, cands_aug), ids)
    assert np.array_equal(shifted, base)


def test_rank_scores_matches_sorted_reference_with_ties():
    rng = np.random.default_rng(14)
    ids = [f"c{i:02d}" for i in range(12)]
    for _ in range(50):
        scores = rng.integers(-2, 3, size=(8, 12)).astype(float)  # five values: many exact ties
        scores[0, :2] = [0.0, -0.0]  # signed zeros compare equal
        rankings = rank_scores(scores, ids)
        for row, ranking in zip(scores, rankings):
            assert ranking == sorted(ids, key=lambda cid: (-row[ids.index(cid)], cid))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    n_classes=st.integers(1, 10),
    high=st.integers(0, 3),
)
def test_truth_ranks_and_argmax_match_the_ranking_oracle(seed, n, n_classes, high):
    # integer scores in [-high, high]: exact ties everywhere, zeros of both signs
    rng = np.random.default_rng(seed)
    scores = rng.integers(-high, high + 1, size=(n, n_classes)).astype(float)
    scores = np.where(rng.random(scores.shape) < 0.5, -scores, scores)
    ids = sorted(f"c{i}" for i in rng.permutation(n_classes * 3)[:n_classes])
    truths = [ids[j] for j in rng.integers(0, n_classes, size=n)]
    rankings = rank_scores(scores, ids)
    ranks = truth_ranks(scores, ids, truths)
    assert ranks.tolist() == [ranking.index(t) for ranking, t in zip(rankings, truths)]
    assert [ids[j] for j in scores.argmax(axis=1)] == [ranking[0] for ranking in rankings]


def test_truth_ranks_rejects_a_score_matrix_of_the_wrong_shape():
    with pytest.raises(DimensionMismatch):
        truth_ranks(np.zeros((2, 3)), ["a", "b", "c"], ["a"])
    with pytest.raises(DimensionMismatch):
        truth_ranks(np.zeros((1, 2)), ["a", "b", "c"], ["a"])


# ---------------------------------------------------------------------------
# train_lle
# ---------------------------------------------------------------------------


def test_lle_huge_regularizer_shrinks_w():
    features, labels, classes, _ = random_training_problem(5, mode_kind=ModeKind.ATTRIBUTES, d_t=1)
    cfg = TrainConfig(lam=1e6, learning_rate=1e-2, epochs=200, seed=0)
    model = train_lle(features, labels, classes, cfg)
    assert np.linalg.norm(model.W) < 1e-2


def test_lle_fits_linearly_compatible_data():
    rng = np.random.default_rng(6)
    n_classes, d = 5, 6
    descriptors = [
        make_descriptor(f"c{i}", rng.integers(0, 2, size=4), text=unit(rng.normal(size=3)))
        for i in range(n_classes)
    ]
    classes = ClassEmbeddingSet.from_descriptors(descriptors, ATTR)
    A_star = rng.normal(size=(d, 4))
    S = classes.compose(None)
    labels, rows = [], []
    for i in range(60):
        c = i % n_classes
        labels.append(f"c{c}")
        rows.append(A_star @ S[classes.index_of(f'c{c}')] + 0.01 * rng.normal(size=d))
    cfg = TrainConfig(lam=1e-4, learning_rate=0.5, epochs=300, seed=1)
    model = train_lle(np.array(rows), labels, classes, cfg)
    assert model.final_loss < np.log(n_classes)  # beats uniform prediction
    assert model.loss_history[0] > model.final_loss


def test_lle_gradients_match_finite_differences():
    features, labels, classes, rng = random_training_problem(
        7, n=8, d=4, n_classes=3, attr_count=2, text_dim=3, d_t=1
    )
    assert classes.embedding_dim == 3  # d=4, t=3, N=8 instance
    W = rng.normal(size=(4, 3))
    M = rng.normal(size=(3, 1))
    lam = 1e-3
    _, grad_W, grad_M = lle_gradients(W, M, features, labels, classes, lam)

    fd_W = finite_difference_grad(lambda Wp: lle_objective(Wp, M, features, labels, classes, lam), W)
    fd_M = finite_difference_grad(lambda Mp: lle_objective(W, Mp, features, labels, classes, lam), M)

    def max_rel_err(a, f):
        return np.max(np.abs(a - f) / np.maximum.reduce([np.abs(a), np.abs(f), np.full_like(a, 1e-10)]))

    assert max_rel_err(grad_W, fd_W) < 1e-5
    assert max_rel_err(grad_M, fd_M) < 1e-5


def lle_problem(rng, n, d, n_classes, attr_count, text_dim, d_t, kind, with_m):
    """A random lle evaluation point: W, M (or None), features, labels (repeats allowed), classes, lam."""
    mode = EmbeddingMode(kind=kind, d_t=d_t if with_m else text_dim)
    classes = ClassEmbeddingSet(
        class_ids=tuple(f"c{i:02d}" for i in range(n_classes)),
        attributes=rng.integers(0, 2, size=(n_classes, attr_count)).astype(float),
        texts=rng.normal(size=(n_classes, text_dim)),
        mode=mode,
    )
    W = rng.normal(scale=0.5, size=(d, classes.embedding_dim))
    M = rng.normal(scale=0.5, size=(text_dim, d_t)) if with_m else None
    labels = [classes.class_ids[j] for j in rng.integers(0, n_classes, size=n)]
    lam = float(rng.choice([0.0, 1e-3, 0.1, 1.0]))
    return W, M, rng.normal(size=(n, d)), labels, classes, lam


@st.composite
def lle_problems(draw):
    """lle points in both associations: N > d with t > |C| (Phi (W S')), N < d with t < |C| ((Phi W) S')."""
    kind = draw(st.sampled_from(list(ModeKind)))
    with_m = kind is not ModeKind.ATTRIBUTES and draw(st.booleans())
    if draw(st.booleans()):  # N > d, t > |C|: every part of t is at least 5
        n, d, n_classes = draw(st.integers(5, 24)), draw(st.integers(1, 4)), draw(st.integers(2, 4))
        attr_count, text_dim, d_t = (draw(st.integers(5, 8)) for _ in range(3))
    else:  # N < d, t < |C|: t is at most 8
        n, d, n_classes = draw(st.integers(1, 3)), draw(st.integers(4, 10)), draw(st.integers(9, 16))
        attr_count, text_dim, d_t = (draw(st.integers(1, 4)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problem = lle_problem(rng, n, d, n_classes, attr_count, text_dim, d_t, kind, with_m)
    assert phi_w_first(n, d, problem[0].shape[1], n_classes) == (n < d)
    return problem


def overflowing_lle_problem():
    """Integer data whose scores (711 to 730) are exact and overflow an unshifted exp; truths not always on top."""
    classes = ClassEmbeddingSet(
        class_ids=("a", "b", "c"), attributes=np.eye(3), texts=np.zeros((3, 1)), mode=ATTR
    )
    features = np.array([[711.0, 712.0, 715.0], [730.0, 720.0, 725.0], [713.0, 713.0, 711.0]])
    return np.eye(3), None, features, ["b", "a", "c"], classes, 1e-3


def gradient_term_scales(W, M, features, classes, lam):
    """Largest entry each lle gradient could reach term by term; rows of G carry |.| mass at most 2/n."""
    n = len(features)
    row_mass = 2.0 / n * np.abs(features).sum(axis=0)  # sum_i |F_i| |G_ic| summed over c, per column of F
    S = np.abs(classes.compose(M))
    scale_W = np.max(np.outer(row_mass, S.max(axis=0)) + 2.0 * lam * np.abs(W))
    if M is None:
        return scale_W, None
    offset = classes.attributes.shape[1] if classes.mode.uses_attributes else 0
    scale_M = np.max(np.outer(np.abs(classes.texts).max(axis=0), row_mass @ np.abs(W[:, offset:])))
    return scale_W, scale_M


@settings(max_examples=150, deadline=None)
@given(lle_problems())
@example(overflowing_lle_problem())
def test_lle_objective_and_gradients_match_the_per_sample_oracle(problem):
    W, M, features, labels, classes, lam = problem
    want_loss = brute_lle_objective(W, M, features, labels, classes, lam)
    want_W, want_M = brute_lle_gradients(W, M, features, labels, classes, lam)
    loss = lle_objective(W, M, features, labels, classes, lam)
    loss_again, grad_W, grad_M = lle_gradients(W, M, features, labels, classes, lam)
    assert loss_again == loss
    # log s >= 0 is read off s >= 1, so a loss below 1 carries its rounding in absolute terms
    assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
    scale_W, scale_M = gradient_term_scales(W, M, features, classes, lam)
    assert np.max(np.abs(grad_W - want_W)) <= 1e-12 * scale_W
    assert (grad_M is None) == (M is None)
    if M is not None:
        assert np.max(np.abs(grad_M - want_M)) <= 1e-12 * scale_M


def test_lle_loss_is_non_increasing():
    features, labels, classes, _ = random_training_problem(8)
    model = train_lle(features, labels, classes, TrainConfig(epochs=50, learning_rate=0.3, seed=3))
    losses = np.array(model.loss_history)
    assert np.all(np.diff(losses) <= 0.0)


def test_lle_is_deterministic():
    features, labels, classes, _ = random_training_problem(9)
    cfg = TrainConfig(epochs=40, seed=42)
    m1 = train_lle(features, labels, classes, cfg)
    m2 = train_lle(features, labels, classes, cfg)
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(m1.M, m2.M)
    m3 = train_lle(features, labels, classes, TrainConfig(epochs=40, seed=43))
    assert not np.array_equal(m1.W, m3.W)


def test_lle_trains_reduction_jointly():
    features, labels, classes, _ = random_training_problem(10)
    model = train_lle(features, labels, classes, TrainConfig(epochs=30, seed=0))
    assert model.M is not None
    assert model.M.shape == (classes.text_dim, classes.mode.d_t)
    # reduction moved away from its random initialization (W is drawn first, then M)
    rng = np.random.default_rng(0)
    rng.uniform(-1e-3, 1e-3, size=model.W.shape)
    m_init = rng.uniform(-1e-3, 1e-3, size=model.M.shape)
    assert not np.array_equal(model.M, m_init)


def test_lle_rejects_single_class():
    features, labels, classes, _ = random_training_problem(11, n_classes=1)
    with pytest.raises(DegenerateData):
        train_lle(features, ["c0"] * len(labels), classes, TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# train_eszsl
# ---------------------------------------------------------------------------


def test_eszsl_scalar_closed_form():
    classes = ClassEmbeddingSet.from_descriptors([make_descriptor("c0", [1])], ATTR)
    model = train_eszsl(np.array([[1.0]]), ["c0"], classes, gamma=1.0, lam=1.0)
    assert model.W.shape == (1, 1)
    assert abs(model.W[0, 0] - 0.25) < 1e-15


def test_eszsl_solution_is_stationary():
    features, labels, classes, rng = random_training_problem(12, mode_kind=ModeKind.ATTRIBUTES)
    gamma, lam = 0.1, 0.2
    model = train_eszsl(features, labels, classes, gamma=gamma, lam=lam)
    X = features.T
    S = classes.compose(None).T
    Y = -np.ones((features.shape[0], classes.n_classes))
    for i, label in enumerate(labels):
        Y[i, classes.index_of(label)] = 1.0

    grad = eszsl_gradient(model.W, X, S, Y, gamma, lam)
    scale = max(1.0, abs(eszsl_objective(model.W, X, S, Y, gamma, lam)))
    assert np.linalg.norm(grad) < 1e-8 * scale

    base = eszsl_objective(model.W, X, S, Y, gamma, lam)
    for _ in range(100):
        delta = rng.normal(size=model.W.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert eszsl_objective(model.W + delta, X, S, Y, gamma, lam) >= base


def test_eszsl_gradient_matches_finite_differences():
    features, labels, classes, rng = random_training_problem(
        13, n=6, d=3, n_classes=3, mode_kind=ModeKind.ATTRIBUTES
    )
    X = features.T
    S = classes.compose(None).T
    Y = -np.ones((6, 3))
    for i, label in enumerate(labels):
        Y[i, classes.index_of(label)] = 1.0
    W = rng.normal(size=(3, classes.embedding_dim))
    grad = eszsl_gradient(W, X, S, Y, 0.3, 0.7)
    fd = finite_difference_grad(lambda Wp: eszsl_objective(Wp, X, S, Y, 0.3, 0.7), W)
    assert np.max(np.abs(grad - fd)) < 1e-5 * max(1.0, np.max(np.abs(grad)))


def test_eszsl_out_of_memory_raises_instance_too_large(monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    features, labels, classes, _ = random_training_problem(25, n=12, d=6, mode_kind=ModeKind.ATTRIBUTES)
    monkeypatch.setattr(np.linalg, "svd", no_memory)
    # operands: d x N (the largest: 6 * 12 * 8 bytes), t x |C|, d x t, N x |C|
    with pytest.raises(InstanceTooLarge, match=r"eszsl: the ridge solve for t=3, d=6, N=12 .* \(the largest is 576 bytes"):
        train_eszsl(features, labels, classes, gamma=0.1, lam=0.2)


def test_eszsl_svd_failure_raises_singular_system(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    features, labels, classes, _ = random_training_problem(27, n=12, d=6, mode_kind=ModeKind.ATTRIBUTES)
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(SingularSystem, match="eszsl: .*did not converge"):
        train_eszsl(features, labels, classes, gamma=0.1, lam=0.2)


@pytest.mark.parametrize("name, value", [("gamma", 0.0), ("gamma", -1e-3), ("lam", 0.0), ("lam", -1e-3)])
def test_eszsl_rejects_nonpositive_penalties(name, value):
    # with gamma < 0 the objective has no minimum and the closed form is a saddle point
    features, labels, classes, _ = random_training_problem(28, n=4, d=6, mode_kind=ModeKind.ATTRIBUTES)
    with pytest.raises(ValueError, match=rf"{name} must be > 0, got {value}"):
        train_eszsl(features, labels, classes, **{"gamma": 1e-3, "lam": 1e-3, name: value})


def test_eszsl_zero_semantics_raises_singular_system_without_warnings():
    descriptors = [make_descriptor(f"c{i}", [0, 0, 0]) for i in range(3)]
    classes = ClassEmbeddingSet.from_descriptors(descriptors, ATTR)
    features = np.random.default_rng(26).normal(size=(6, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="zero"):
            train_eszsl(features, [f"c{i % 3}" for i in range(6)], classes, gamma=0.1, lam=0.2)


def test_eszsl_two_classes_with_one_embedding_raise_singular_system():
    # Y S' is exactly zero, but the SVD factors of S leave a rounding-level X Y S'
    classes = ClassEmbeddingSet.from_descriptors([make_descriptor(f"c{i}", [1, 0, 1]) for i in range(2)], ATTR)
    features = np.random.default_rng(29).normal(size=(6, 4))
    with pytest.raises(SingularSystem, match="zero"):
        train_eszsl(features, [f"c{i % 2}" for i in range(6)], classes, gamma=0.1, lam=0.2)


def eszsl_operands(features, labels, classes):
    """X (d x N), S (t x |C|) and the +1/-1 targets Y (N x |C|) of an eszsl problem without a trained reduction."""
    Y = -np.ones((len(labels), classes.n_classes))
    Y[np.arange(len(labels)), [classes.index_of(label) for label in labels]] = 1.0
    return features.T, classes.compose(None).T, Y


def normal_equation_residual(W, features, labels, classes, gamma, lam) -> float:
    """||A W B - X Y S'|| / (||A|| ||W|| ||B||) for A = X X' + gamma I, B = S S' + lam I (2-norms of A, B)."""
    X, S, Y = eszsl_operands(features, labels, classes)
    A = X @ X.T + gamma * np.eye(len(X))
    B = S @ S.T + lam * np.eye(len(S))
    scale = np.linalg.norm(A, 2) * np.linalg.norm(W) * np.linalg.norm(B, 2)
    return float(np.linalg.norm(A @ W @ B - X @ Y @ S.T) / scale)


# ---------------------------------------------------------------------------
# train_sae
# ---------------------------------------------------------------------------


def test_sae_scalar_sylvester():
    classes = ClassEmbeddingSet.from_descriptors([make_descriptor("c0", [1])], ATTR)
    model = train_sae(np.array([[1.0]]), ["c0"], classes, lam_sae=1.0)
    assert abs(model.W[0, 0] - 1.0) < 1e-12  # W + W = 2


def test_sae_identity_solution():
    # per-sample semantic matrix equals the feature matrix -> projection is I
    descriptors = [make_descriptor(f"c{i}", np.eye(3)[i]) for i in range(3)]
    classes = ClassEmbeddingSet.from_descriptors(descriptors, ATTR)
    features = np.eye(3)
    labels = ["c0", "c1", "c2"]
    model = train_sae(features, labels, classes, lam_sae=0.7)
    assert np.max(np.abs(model.W - np.eye(3))) < 1e-8


def test_sae_residual_on_random_instances():
    for seed in range(10):
        features, labels, classes, _ = random_training_problem(
            100 + seed, n=12, d=6, n_classes=4, mode_kind=ModeKind.ATTRIBUTES
        )
        model = train_sae(features, labels, classes, lam_sae=0.5)
        X = features.T
        S = classes.compose(None)[[classes.index_of(l) for l in labels]].T
        assert sylvester_residual(model.W.T, S, X, 0.5) < 1e-8
        assert model.final_loss < 1e-8


def sae_instance(seed, distinct=None, column_scale=1.0, **sizes):
    """An attribute-mode training problem with its per-sample class matrix S (t x N) and X (d x N).

    Only the first `distinct` feature rows differ (the rest repeat them), and
    the first feature column is multiplied by column_scale.
    """
    features, labels, classes, _ = random_training_problem(seed, mode_kind=ModeKind.ATTRIBUTES, **sizes)
    features = features[np.arange(len(features)) % (distinct or len(features))]
    features[:, 0] *= column_scale
    S = classes.compose(None)[[classes.index_of(label) for label in labels]].T
    return features, labels, classes, S, features.T


def kronecker_oracle(S, X, lam):
    return brute_sylvester(S @ S.T, lam * (X @ X.T), (1.0 + lam) * S @ X.T)


def full_row_rank(M) -> bool:
    return np.linalg.matrix_rank(M) == M.shape[0]


def range_projector(M) -> np.ndarray:
    """Orthogonal projector onto the column space of M, at numpy's matrix_rank tolerance."""
    U = np.linalg.svd(M, full_matrices=False)[0][:, : np.linalg.matrix_rank(M)]
    return U @ U.T


def gram_spectrum(M) -> np.ndarray:
    """Eigenvalues of M M' from the singular values of M (zero past its rank)."""
    spectrum = np.zeros(M.shape[0])
    sv = np.linalg.svd(M, compute_uv=False)
    spectrum[: len(sv)] = sv**2
    return spectrum


@st.composite
def attribute_instances(draw):
    """sae_instance draws: t, d <= 32, N <= 40, 1-6 classes, repeated samples and one scaled feature row."""
    n_classes = draw(st.integers(1, 6))
    n = draw(st.integers(n_classes, 40))
    instance = sae_instance(
        draw(st.integers(0, 2**32 - 1)),
        distinct=draw(st.integers(1, n)),
        column_scale=draw(st.sampled_from([1.0, 1e-4, 1e-8])),
        attr_count=draw(st.integers(1, 32)),
        d=draw(st.integers(1, 32)),
        n_classes=n_classes,
        n=n,
    )
    assume(np.any(instance[3]))  # an all-zero S raises SingularSystem, see test_*_zero_semantics_*
    return instance


@st.composite
def sae_problems(draw):
    return draw(attribute_instances()), draw(st.floats(0.05, 2.0))


log_uniform_penalties = st.floats(-6.0, np.log10(2.0)).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None)
@given(attribute_instances(), log_uniform_penalties, log_uniform_penalties)
def test_eszsl_satisfies_its_normal_equation(instance, gamma, lam):
    features, labels, classes, _, _ = instance
    try:
        W = train_eszsl(features, labels, classes, gamma=gamma, lam=lam).W
    except SingularSystem:
        # refused only where the ridge solution is zero: X Y S' vanishes to working precision
        X, S, Y = eszsl_operands(features, labels, classes)
        assert np.linalg.norm(X @ Y @ S.T) <= 1e-13 * np.linalg.norm(X) * np.linalg.norm(Y) * np.linalg.norm(S)
        return
    assert normal_equation_residual(W, features, labels, classes, gamma, lam) <= 1e-13


def test_eszsl_paper_shaped_instance_satisfies_its_normal_equation():
    # t = 53 attributes + 768 text columns, d = 256, one sample of each of 170 classes
    features, labels, classes, _ = random_training_problem(
        30, n=170, d=256, n_classes=170, attr_count=53, text_dim=768, d_t=768
    )
    assert (classes.embedding_dim, features.shape) == (821, (170, 256))
    model = train_eszsl(features, labels, classes, gamma=1e-3, lam=1e-2)
    assert normal_equation_residual(model.W, features, labels, classes, 1e-3, 1e-2) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(sae_problems())
def test_sae_matches_kronecker_oracle_at_full_row_rank(problem):
    (features, labels, classes, S, X), lam = problem
    assume(full_row_rank(S) or full_row_rank(X))
    P = train_sae(features, labels, classes, lam_sae=lam).W.T
    assert sylvester_residual(P, S, X, lam) <= 1e-12
    spectrum = np.add.outer(gram_spectrum(S), lam * gram_spectrum(X))
    kappa = spectrum.max() / spectrum.min()
    try:
        P_oracle = kronecker_oracle(S, X, lam)
    except SingularSystem:
        assert kappa > 1e12  # the oracle's LU fails only where the system is singular to working precision
        return
    # both are backward-stable float64 solves of one nonsingular system, so they
    # may differ by a small multiple of eps times its condition number kappa
    assert np.linalg.norm(P - P_oracle) <= max(1e-12, 1e-14 * kappa) * np.linalg.norm(P_oracle)


@settings(max_examples=60, deadline=None)
@given(sae_problems())
def test_sae_is_the_minimum_norm_solution_when_rank_deficient(problem):
    (features, labels, classes, S, X), lam = problem
    assume(not (full_row_rank(S) or full_row_rank(X)))
    P = train_sae(features, labels, classes, lam_sae=lam).W.T
    assert sylvester_residual(P, S, X, lam) <= 1e-12
    # the minimum-norm solution lies in range(S) x range(X); every other
    # solution adds a null-space component orthogonal to it
    in_range = range_projector(S) @ P @ range_projector(X)
    assert np.linalg.norm(P - in_range) <= 1e-12 * np.linalg.norm(P)
    try:
        P_oracle = kronecker_oracle(S, X, lam)
    except SingularSystem:
        return
    assert np.linalg.norm(P) <= (1.0 + 1e-12) * np.linalg.norm(P_oracle)


def test_sae_trains_where_the_kronecker_system_is_singular():
    features, labels, classes, S, X = sae_instance(6, attr_count=7, d=7, n_classes=2, n=3)
    with pytest.raises(SingularSystem):
        kronecker_oracle(S, X, 0.5)
    model = train_sae(features, labels, classes, lam_sae=0.5)
    assert sylvester_residual(model.W.T, S, X, 0.5) <= 1e-12


def test_sae_paper_shaped_instance_trains():
    # t = 53 attributes + 768 text columns, d = 256, one sample of each of 170 classes
    features, labels, classes, _ = random_training_problem(
        21, n=170, d=256, n_classes=170, attr_count=53, text_dim=768, d_t=768
    )
    assert (classes.embedding_dim, features.shape) == (821, (170, 256))
    model = train_sae(features, labels, classes, lam_sae=1e-3)
    S = classes.compose(None)[[classes.index_of(l) for l in labels]].T
    assert sylvester_residual(model.W.T, S, features.T, 1e-3) < 1e-12


def test_sae_zero_semantics_raises_singular_system_without_warnings():
    descriptors = [make_descriptor(f"c{i}", [0, 0, 0]) for i in range(3)]
    classes = ClassEmbeddingSet.from_descriptors(descriptors, ATTR)
    features = np.random.default_rng(22).normal(size=(6, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="zero"):
            train_sae(features, [f"c{i % 3}" for i in range(6)], classes, lam_sae=0.5)


def test_sae_out_of_memory_raises_instance_too_large(monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    features, labels, classes, _ = random_training_problem(23, n=12, d=6, mode_kind=ModeKind.ATTRIBUTES)
    monkeypatch.setattr(np.linalg, "svd", no_memory)
    with pytest.raises(InstanceTooLarge, match=r"t=3, d=6, N=12 .* \(the largest is 576 bytes"):
        train_sae(features, labels, classes, lam_sae=0.5)


def test_sae_svd_failure_raises_singular_system(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    features, labels, classes, _ = random_training_problem(24, n=12, d=6, mode_kind=ModeKind.ATTRIBUTES)
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(SingularSystem, match="did not converge"):
        train_sae(features, labels, classes, lam_sae=0.5)


def test_sae_rejects_nonpositive_lam():
    classes = ClassEmbeddingSet.from_descriptors([make_descriptor("c0", [1])], ATTR)
    with pytest.raises(ValueError):
        train_sae(np.array([[1.0]]), ["c0"], classes, lam_sae=0.0)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    features, labels, classes, _ = random_training_problem(15)
    model = train_lle(features, labels, classes, TrainConfig(epochs=20, seed=5))
    path = save_model(model, tmp_path / "model.json")
    loaded = load_model(path)
    assert np.array_equal(loaded.W, model.W)
    assert np.array_equal(loaded.M, model.M)
    assert loaded.method is Method.LLE
    assert loaded.mode == model.mode
    assert loaded.seed == model.seed
    assert loaded.epochs == model.epochs
    assert loaded.final_loss == model.final_loss
    assert loaded.hyperparams == model.hyperparams
    assert loaded.d_text == classes.text_dim


def test_save_model_pins_float_bytes(tmp_path):
    W = np.array([[-0.0, 5e-324, 1.1125369292536007e-308], [1e300, -1e300, 0.1]])
    M = np.array([[-1e300, -0.0], [2.5e-320, 1.7976931348623157e308]])
    model = CompatModel(
        W=W, M=M, mode=EmbeddingMode(kind=ModeKind.COMBINED, d_t=2), method=Method.SAE,
        hyperparams={"lam_sae": 0.5}, final_loss=-0.0, d_text=2,
    )
    path = save_model(model, tmp_path / "model.json")
    values = struct.pack("<10d", *W.ravel(), *M.ravel())
    assert path.read_bytes() == (
        b'{"d": 2, "d_t": 2, "d_text": 2, "epochs": 0, "final_loss": -0.0, "has_M": true, '
        b'"hyperparams": {"lam_sae": 0.5}, "method": "sae", "mode": "combined", "seed": 0, "t": 3, '
        b'"weights": "model.npy", "weights_crc32": %d}\n' % zlib.crc32(values)
    )
    assert zlib.crc32(values) == 60213159
    header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (10,), }"
    assert (tmp_path / "model.npy").read_bytes() == (
        b"\x93NUMPY\x01\x00\x76\x00" + header + b" " * (117 - len(header)) + b"\n" + values
    )
    loaded = load_model(path)
    assert loaded.W.tobytes() == W.tobytes() and loaded.M.tobytes() == M.tobytes()


def _saved_lle(tmp_path, seed=5):
    features, labels, classes, _ = random_training_problem(16)
    model = train_lle(features, labels, classes, TrainConfig(epochs=5, seed=seed))
    return model, save_model(model, tmp_path / "model.json")


def _write_npy(path, array) -> None:
    with open(path, "wb") as f:
        np.save(f, array)


def _other_save(path) -> None:
    _, other = _saved_lle(path.parent / "other", seed=6)
    path.write_bytes(other.with_suffix(".npy").read_bytes())


def _rewrite_header(path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _flip_last_bit(path) -> None:
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] + bytes([raw[-1] ^ 1]))


# each change gets the header path h and the weights path w
_WEIGHTS_DAMAGE = {
    "npy-missing": (MissingFile, "not found", lambda h, w: w.unlink()),
    "npy-empty": (SchemaMismatch, "npy", lambda h, w: w.write_bytes(b"")),
    "npy-garbage": (SchemaMismatch, "npy", lambda h, w: w.write_bytes(b"not a model" * 20)),
    "npy-truncated": (SchemaMismatch, "npy", lambda h, w: w.write_bytes(w.read_bytes()[:200])),
    "npy-cut-one-byte": (SchemaMismatch, "npy", lambda h, w: w.write_bytes(w.read_bytes()[:-1])),
    "npy-float32": (SchemaMismatch, "dtype", lambda h, w: _write_npy(w, np.load(w).astype(np.float32))),
    "npy-big-endian": (SchemaMismatch, "dtype", lambda h, w: _write_npy(w, np.load(w).astype(">f8"))),
    "npy-2d": (SchemaMismatch, "shape", lambda h, w: _write_npy(w, np.load(w).reshape(1, -1))),
    "npy-one-value-less": (SchemaMismatch, "hold", lambda h, w: _write_npy(w, np.load(w)[:-1])),
    "npy-one-value-more": (SchemaMismatch, "hold", lambda h, w: _write_npy(w, np.append(np.load(w), 0.0))),
    "npy-of-another-save": (SchemaMismatch, "CRC-32", lambda h, w: _other_save(w)),
    "npy-one-bit-flipped": (SchemaMismatch, "CRC-32", lambda h, w: _flip_last_bit(w)),
    "header-crc": (SchemaMismatch, "CRC-32", lambda h, w: _rewrite_header(h, lambda d: d.update(weights_crc32=d["weights_crc32"] ^ 1))),
    "header-no-crc": (SchemaMismatch, "weights_crc32", lambda h, w: _rewrite_header(h, lambda d: d.pop("weights_crc32"))),
    "header-weights-elsewhere": (MissingFile, "absent.npy", lambda h, w: _rewrite_header(h, lambda d: d.update(weights="absent.npy"))),
    "header-weights-int": (SchemaMismatch, "weights", lambda h, w: _rewrite_header(h, lambda d: d.update(weights=3))),
    "header-without-M": (SchemaMismatch, "hold", lambda h, w: _rewrite_header(h, lambda d: d.update(has_M=False))),
    "header-d-zero": (SchemaMismatch, "corrupt", lambda h, w: _rewrite_header(h, lambda d: d.update(d=0))),
}


@pytest.mark.parametrize("damage", sorted(_WEIGHTS_DAMAGE))
def test_damaged_weights_are_refused(tmp_path, damage):
    error, message, change = _WEIGHTS_DAMAGE[damage]
    _, path = _saved_lle(tmp_path)
    change(path, path.with_suffix(".npy"))
    with pytest.raises(error, match=message):
        load_model(path)


def test_inline_w_model_file_is_refused(tmp_path):
    # the format written before the weights moved to model.npy
    model, path = _saved_lle(tmp_path)
    doc = json.loads(path.read_text())
    for key in ("has_M", "weights", "weights_crc32"):
        del doc[key]
    doc["W"], doc["M"] = model.W.ravel().tolist(), model.M.ravel().tolist()
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    path.with_suffix(".npy").unlink()
    with pytest.raises(SchemaMismatch, match="inline.*retrain"):
        load_model(path)


def test_weights_file_is_named_after_the_header(tmp_path):
    model, path = _saved_lle(tmp_path)
    other = save_model(model, tmp_path / "model_r3.json")
    assert json.loads(other.read_text())["weights"] == "model_r3.npy"
    assert (tmp_path / "model_r3.npy").read_bytes() == (tmp_path / "model.npy").read_bytes()
    moved = tmp_path / "moved"
    moved.mkdir()
    for f in (other, tmp_path / "model_r3.npy"):
        f.rename(moved / f.name)
    assert load_model(moved / "model_r3.json").W.tobytes() == model.W.tobytes()


def test_load_rejects_wrong_dimension_header(tmp_path):
    features, labels, classes, _ = random_training_problem(16)
    model = train_lle(features, labels, classes, TrainConfig(epochs=5, seed=5))
    path = save_model(model, tmp_path / "model.json")
    raw = json.loads(path.read_text())
    raw["d"] = raw["d"] + 1
    path.write_text(json.dumps(raw))
    with pytest.raises(SchemaMismatch):
        load_model(path)


def test_combined_mode_model_carries_reduction(tmp_path):
    features, labels, classes, _ = random_training_problem(17)
    model = train_lle(features, labels, classes, TrainConfig(epochs=5, seed=2))
    loaded = load_model(save_model(model, tmp_path / "m.json"))
    assert loaded.M is not None
    assert loaded.M.shape == (classes.text_dim, classes.mode.d_t)
