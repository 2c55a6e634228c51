import inspect
import json
import re
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zslsign import models
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
from zslsign.experiment import RunConfig
from zslsign.models import (
    HYPERPARAMETERS,
    MAX_STEP_GROWTH,
    MAX_STEP_HALVINGS,
    STOP_TOLERANCE,
    STOP_WINDOW,
    CompatModel,
    Method,
    check_hyperparameters,
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
    brute_lle_descent,
    brute_lle_gradients,
    brute_lle_objective,
    brute_softmax,
    brute_sylvester,
    eszsl_gradient,
    eszsl_objective,
    finite_difference_grad,
    rank_scores,
    sae_objective,
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
    model = train_lle(features, labels, classes, lam=1e6, learning_rate=1e-2, epochs=200, seed=0)
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
    model = train_lle(np.array(rows), labels, classes, lam=1e-4, learning_rate=0.5, epochs=300, seed=1)
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
    text_terms = np.outer(np.abs(classes.texts).max(axis=0), row_mass @ np.abs(W[:, offset:]))
    scale_M = np.max(text_terms + 2.0 * lam * np.abs(M))
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


# multiples of a step's rounding (eps of the point it leaves and of the step times the gradient's term
# scale) that the descent property lets the point it reaches keep
CARRIED_EPS = 8

# (mode, whether a reduction M is trained: d_t differs from the raw text width)
_DESCENT_MODES = [
    (ModeKind.ATTRIBUTES, False), (ModeKind.TEXT, False), (ModeKind.TEXT, True),
    (ModeKind.COMBINED, False), (ModeKind.COMBINED, True),
]


@st.composite
def descent_problems(draw, kind, trains_reduction):
    """A short lle run: features, labels, classes and train_lle's keywords, in one of three shape regimes.

    N > |C| with d <= N, N > |C| with d > N, and N < |C| with d > N.
    """
    regime = draw(st.sampled_from(["tall", "tall-wide", "wide"]))
    if regime == "wide":
        n_classes = draw(st.integers(3, 7))
        n = draw(st.integers(1, n_classes - 1))
    else:
        n_classes = draw(st.integers(2, 4))
        n = draw(st.integers(n_classes + 1, 8))
    d = draw(st.integers(1, n)) if regime == "tall" else draw(st.integers(n + 1, 10))
    attr_count, text_dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d_t = draw(st.integers(1, 3).filter(lambda v: v != text_dim)) if trains_reduction else text_dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = ClassEmbeddingSet(
        class_ids=tuple(f"c{i}" for i in range(n_classes)),
        attributes=rng.integers(0, 2, size=(n_classes, attr_count)).astype(float),
        texts=rng.normal(size=(n_classes, text_dim)),
        mode=EmbeddingMode(kind=kind, d_t=d_t),
    )
    labels = [classes.class_ids[j] for j in rng.integers(0, n_classes, size=n)]
    hyper = dict(
        lam=draw(st.sampled_from([0.0, 1e-3, 0.1])),
        learning_rate=draw(st.sampled_from([0.1, 0.5, 2.0, 8.0])),  # the larger rates halve
        epochs=draw(st.integers(3, 8)),
        seed=draw(st.integers(0, 2**16)),
        init_scale=draw(st.sampled_from([1e-3, 0.5])),
    )
    return rng.normal(size=(n, d)), labels, classes, hyper


@pytest.mark.parametrize(
    "kind, trains_reduction", _DESCENT_MODES, ids=[f"{k.value}-{'M' if m else 'noM'}" for k, m in _DESCENT_MODES]
)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_train_lle_takes_the_steps_of_the_brute_descent(kind, trains_reduction, data):
    """train_lle takes the oracle's trials, and both end after the same epoch for the same reason.

    BB steps grow up to 4x an epoch, so rounding differences grow too: runs stay short, and the
    convergence window is shortened (in both), and sometimes the tolerance widened, so that the
    tolerance can end them.
    """
    features, labels, classes, hyper = data.draw(descent_problems(kind, trains_reduction))
    window, tolerance = data.draw(st.integers(2, 4)), data.draw(st.sampled_from([STOP_TOLERANCE, 1e-2]))
    rng = np.random.default_rng(hyper["seed"])  # train_lle's init: W first, then M when a reduction is trained
    scale = hyper["init_scale"]
    W0 = rng.uniform(-scale, scale, size=(features.shape[1], classes.embedding_dim))
    M0 = rng.uniform(-scale, scale, size=(classes.text_dim, classes.mode.d_t))
    M0 = M0 if trains_reduction else None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # an overshooting trial may leave its range
        W, M, history, trials, stop = brute_lle_descent(
            W0, M0, features, labels, classes, hyper["lam"], hyper["learning_rate"], hyper["epochs"],
            MAX_STEP_HALVINGS, MAX_STEP_GROWTH, window, tolerance,
        )
    # per forward pass (the initial point, then each trial): the brute loss, the loss it is tested against,
    # the step the brute descent took to it, and the index of the point it steps from
    want, before, steps, origin = [history[0]], [history[0]], [0.0], [0]
    for loss, tried_in_epoch in zip(history, trials):
        origin += [len(want) - 1] * len(tried_in_epoch)  # an epoch's accepted trial is its last
        for step, loss_try in tried_in_epoch:
            want.append(loss_try)
            before.append(loss)
            steps.append(step)
    # a trial within 1e-10 of the loss it is tested against is a near-tie (a plateau) that the two paths'
    # rounding may break either way, and so is a decrease over the window within 1e-10 of the
    # tolerance; away from such ties, losses that agree within 1e-12 decide alike
    assume(not any(abs(w - b) <= 1e-10 * max(1.0, abs(b)) for w, b in zip(want[1:], before[1:])))
    margins = [(h - loss - tolerance * abs(loss), loss) for h, loss in zip(history, history[window:])]
    assume(not any(abs(margin) <= 1e-10 * max(1.0, abs(loss)) for margin, loss in margins))

    # per forward pass train_lle takes: its loss, the largest entry of W and M, the largest of their
    # gradient_term_scales, and a bound on the 1-norm of the loss's gradient there
    tried = []
    forward = models._lle_forward

    def spy(W, M, fit):
        out = forward(W, M, fit)
        scale_W, scale_M = gradient_term_scales(W, M, features, classes, hyper["lam"])
        size = max(np.max(np.abs(W)), 0.0 if M is None else np.max(np.abs(M)))
        grad_1norm = W.size * scale_W + (0.0 if M is None else M.size * scale_M)
        tried.append((out[0], size, max(scale_W, scale_M or 0.0), grad_1norm))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "_lle_forward", spy)
        patch.setattr(models, "STOP_WINDOW", window)
        patch.setattr(models, "STOP_TOLERANCE", tolerance)
        model = train_lle(features, labels, classes, **hyper)

    assert len(tried) == len(want)  # the same trials, so the same steps
    # A trial theta - step g keeps the rounding of theta and of step g, eps of max |theta| and of step times
    # the gradient's term scale (as the gradient oracle test bounds it). That is more than 1e-12 of the
    # trial when the step cancels most of theta, as a BB step near 1 / (2 lam) cancels W's decay against
    # W; such a trial's loss moves by at most the gradient's 1-norm times it.
    eps = np.finfo(np.float64).eps
    rounding = [0.0] + [eps * (tried[i][1] + step * tried[i][2]) for i, step in zip(origin[1:], steps[1:])]
    bound = [1e-12 * max(1.0, abs(w)) + CARRIED_EPS * r * t[3] for w, r, t in zip(want, rounding, tried)]
    # the oracle's posteriors are extended precision: past -log p = 11355 they are subnormal, and a mean loss
    # up to 11000 / N keeps every sample's below that
    in_range = 11000.0 / len(features)
    for (got, *_), w, b, bound_i in zip(tried, want, before, bound):
        if w <= in_range:
            assert abs(got - w) <= bound_i
        else:  # a trial beyond the oracle's range (nan included) overshoots: both paths refuse it
            assert not got <= b
    assert len(model.loss_history) == len(history) == model.epochs + 1  # both stop after the same epoch
    assert model.stop == stop
    # the point each epoch ends at: after a plateau, the one its trials stepped from; else its last trial
    ends = sorted(set(origin)) + [origin[-1] if stop == "plateau" else len(tried) - 1]
    assert all(abs(got - w) <= bound[i] for got, w, i in zip(model.loss_history, history, ends))
    # W and M also keep the rounding of each step they took
    carried = CARRIED_EPS * max(rounding[i] for i in ends)
    assert np.max(np.abs(model.W - W)) <= 1e-10 * np.max(np.abs(W)) + carried
    assert (model.M is None) == (M is None) == (not trains_reduction)
    if M is not None:
        assert np.max(np.abs(model.M - M)) <= 1e-10 * np.max(np.abs(M)) + carried


def test_lle_loss_is_non_increasing():
    features, labels, classes, _ = random_training_problem(8)
    model = train_lle(features, labels, classes, epochs=50, learning_rate=0.3, seed=3)
    losses = np.array(model.loss_history)
    assert np.all(np.diff(losses) <= 0.0)


def test_a_converged_lle_fit_ends_before_its_cap(tmp_path):
    features, labels, classes, _ = random_training_problem(8)
    model = train_lle(features, labels, classes, epochs=1000, learning_rate=0.3, seed=3)
    assert model.stop == "tolerance"
    assert model.epochs == len(model.loss_history) - 1 < 1000
    window = model.loss_history[-1 - STOP_WINDOW :]
    assert window[0] - window[-1] <= STOP_TOLERANCE * abs(window[-1])
    assert load_model(save_model(model, tmp_path / "model.json")).epochs == model.epochs  # the header's epochs


def test_a_capped_lle_fit_runs_every_epoch():
    features, labels, classes, _ = random_training_problem(8)
    model = train_lle(features, labels, classes, epochs=3, learning_rate=0.3, seed=3)
    assert (model.stop, model.epochs, len(model.loss_history)) == ("cap", 3, 4)


def test_lle_tries_learning_rate_first_then_the_bb_step():
    features, labels, classes, _ = random_training_problem(8)
    points = []  # (W, M) of every forward pass
    forward = models._lle_forward

    def spy(W, M, fit):
        points.append((W.copy(), M.copy()))
        return forward(W, M, fit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "_lle_forward", spy)
        train_lle(features, labels, classes, epochs=2, learning_rate=0.3, seed=3)
    (W0, M0), (W1, M1) = points[:2]
    _, g_W, g_M = lle_gradients(W0, M0, features, labels, classes, 1e-3)
    assert np.array_equal(W1, W0 - 0.3 * g_W) and np.array_equal(M1, M0 - 0.3 * g_M)  # epoch 1 accepts this trial
    _, h_W, h_M = lle_gradients(W1, M1, features, labels, classes, 1e-3)
    # BB2 from the explicit step s and gradient change y, over W and M together
    s = np.concatenate([(W1 - W0).ravel(), (M1 - M0).ravel()])
    y = np.concatenate([(h_W - g_W).ravel(), (h_M - g_M).ravel()])
    step = min(s @ y / (y @ y), MAX_STEP_GROWTH * 0.3)
    W2, M2 = points[2]
    assert np.allclose(W2, W1 - step * h_W, rtol=1e-12, atol=0) and np.allclose(M2, M1 - step * h_M, rtol=1e-12, atol=0)


def test_a_converged_lle_fit_does_not_depend_on_its_cap():
    features, labels, classes, _ = random_training_problem(10)
    short = train_lle(features, labels, classes, epochs=200, learning_rate=0.5, seed=0)
    long = train_lle(features, labels, classes, epochs=2000, learning_rate=0.5, seed=0)
    assert short.stop == long.stop == "tolerance"
    assert short.W.tobytes() == long.W.tobytes() and short.M.tobytes() == long.M.tobytes()
    assert short.loss_history == long.loss_history


def test_lle_is_deterministic():
    features, labels, classes, _ = random_training_problem(9)
    m1 = train_lle(features, labels, classes, epochs=40, seed=42)
    m2 = train_lle(features, labels, classes, epochs=40, seed=42)
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(m1.M, m2.M)
    m3 = train_lle(features, labels, classes, epochs=40, seed=43)
    assert not np.array_equal(m1.W, m3.W)


def test_lle_trains_reduction_jointly():
    features, labels, classes, _ = random_training_problem(10)
    model = train_lle(features, labels, classes, epochs=30, seed=0)
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
        train_lle(features, ["c0"] * len(labels), classes, epochs=1)


# ---------------------------------------------------------------------------
# train_eszsl
# ---------------------------------------------------------------------------


def test_eszsl_scalar_closed_form():
    classes = ClassEmbeddingSet.from_descriptors([make_descriptor("c0", [1])], ATTR)
    model = train_eszsl(np.array([[1.0]]), ["c0"], classes, gamma=1.0, lam=1.0)
    assert model.W.shape == (1, 1)
    assert abs(model.W[0, 0] - 0.25) < 1e-15
    assert model.final_loss == 0.75  # (1/4 - 1)^2 + 3 (1/4)^2, eszsl_objective at W = 1/4


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
    with pytest.raises(InstanceTooLarge, match=r"eszsl: the ridge solve for t=3, d=6, N=12 .* \(the largest is 576 bytes, 0\.0 MiB\)"):
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


@pytest.mark.parametrize("value", [np.inf, np.nan, -np.inf], ids=["inf", "nan", "-inf"])
@pytest.mark.parametrize("name", ["gamma", "lam", "lam_sae"])
def test_closed_forms_refuse_a_non_finite_penalty(name, value):
    # eszsl at lam = inf used to fit an all-zero W with a NaN final_loss; -inf keeps the "> 0" message
    features, labels, classes, _ = random_training_problem(28, n=4, d=6, mode_kind=ModeKind.ATTRIBUTES)
    message = f"{name} must be > 0, got -inf" if value < 0 else f"{name} must be finite, got {value}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        if name == "lam_sae":
            check_hyperparameters(Method.SAE, lam_sae=value)
        else:
            check_hyperparameters(Method.ESZSL, **{"gamma": 1e-3, "lam": 1e-3, name: value})
    with pytest.raises(ValueError, match=f"^{message}$"):
        if name == "lam_sae":
            train_sae(features, labels, classes, lam_sae=value)
        else:
            train_eszsl(features, labels, classes, **{"gamma": 1e-3, "lam": 1e-3, name: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("lam", np.inf, "lam must be finite, got inf"),
        ("lam", np.nan, "lam must be finite, got nan"),
        ("lam", -np.inf, "lam must be >= 0, got -inf"),
        ("learning_rate", np.inf, "learning_rate must be finite, got inf"),
        ("learning_rate", np.nan, "learning_rate must be finite, got nan"),
        ("init_scale", np.inf, "init_scale must be finite, got inf"),
        ("init_scale", np.nan, "init_scale must be finite, got nan"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("lam", -1.0, "lam must be >= 0, got -1.0"),
        ("learning_rate", 0.0, "learning_rate must be > 0, got 0.0"),
        ("epochs", 0, "epochs must be >= 1, got 0"),
        ("init_scale", 0.0, "init_scale must be > 0, got 0.0"),
    ],
)
def test_train_lle_names_the_hyperparameter_and_value_it_refuses(field, value, message):
    features, labels, classes, _ = random_training_problem(5, mode_kind=ModeKind.ATTRIBUTES, d_t=1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        train_lle(features, labels, classes, **{field: value})
    model = train_lle(features, labels, classes, lam=0.0, seed=0, epochs=1)  # the bounds: lam >= 0, seed >= 0
    assert (model.hyperparams["lam"], model.seed, model.epochs) == (0.0, 0, 1)


_TRAINERS = {Method.LLE: train_lle, Method.ESZSL: train_eszsl, Method.SAE: train_sae}
_VALID = {"lam": 1e-3, "learning_rate": 1e-2, "epochs": 3, "init_scale": 1e-3, "seed": 0, "gamma": 1e-3, "lam_sae": 1e-3}
_OUT_OF_RANGE = [  # (method, key, value, expected error line), for every key of every row of HYPERPARAMETERS
    (method, name, value, f"{name} must be {'>' if strict else '>='} {low}, got {value}")
    for method, row in HYPERPARAMETERS.items()
    for name, low, strict in row
    for value in [low - 1, -np.inf] + ([low] if strict else [])
] + [
    (method, name, value, f"{name} must be finite, got {value}")
    for method, row in HYPERPARAMETERS.items()
    for name, _, _ in row
    for value in (np.inf, np.nan)
]


def test_every_trainer_takes_the_keywords_of_its_row_and_run_config_has_them():
    assert set(HYPERPARAMETERS) == set(Method) == set(_TRAINERS)
    for method, row in HYPERPARAMETERS.items():
        keywords = list(inspect.signature(_TRAINERS[method]).parameters)[3:]  # after features, labels, classes
        assert sorted(keywords) == sorted(name for name, _, _ in row), method
        assert all(name in RunConfig.__dataclass_fields__ for name in keywords)
        assert RunConfig(method=method.value).hyperparameters() == {name: getattr(RunConfig(), name) for name in keywords}
        for name, low, strict in row:  # a bound that is not strict is itself accepted
            if not strict:
                check_hyperparameters(method, **{**_VALID, name: low})


@pytest.mark.parametrize(
    "method, name, value, message", _OUT_OF_RANGE, ids=[f"{m.value}-{n}-{v}" for m, n, v, _ in _OUT_OF_RANGE]
)
def test_a_hyperparameter_out_of_range_is_refused_alike_by_the_config_the_check_and_the_trainer(
    method, name, value, message
):
    features, labels, classes, _ = random_training_problem(5, n=8, d=3, mode_kind=ModeKind.ATTRIBUTES, d_t=1)
    values = {key: _VALID[key] for key, _, _ in HYPERPARAMETERS[method]}
    values[name] = value
    cfg = RunConfig(method=method.value, **values)
    assert cfg.hyperparameters() == values
    for refuse in (
        cfg.check,
        lambda: check_hyperparameters(method, **values),
        lambda: _TRAINERS[method](features, labels, classes, **values),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            refuse()


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
    assert model.final_loss == 0.0  # P = 1 reconstructs both X = 1 and S = 1


def test_sae_identity_solution():
    # per-sample semantic matrix equals the feature matrix -> projection is I
    descriptors = [make_descriptor(f"c{i}", np.eye(3)[i]) for i in range(3)]
    classes = ClassEmbeddingSet.from_descriptors(descriptors, ATTR)
    features = np.eye(3)
    labels = ["c0", "c1", "c2"]
    model = train_sae(features, labels, classes, lam_sae=0.7)
    assert np.max(np.abs(model.W - np.eye(3))) < 1e-8


def sae_instance(seed, distinct=None, column_scale=1.0, label_indices=None, **sizes):
    """An attribute-mode training problem with its per-sample class matrix S (t x N) and X (d x N).

    Only the first `distinct` feature rows differ (the rest repeat them), and
    the first feature column is multiplied by column_scale. label_indices, when
    given, names each sample's class by its index (labels c{i % n_classes} otherwise).
    """
    features, labels, classes, _ = random_training_problem(seed, mode_kind=ModeKind.ATTRIBUTES, **sizes)
    if label_indices is not None:
        labels = [f"c{i}" for i in label_indices]
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
    """sae_instance draws: t, d <= 32, N <= 40, 1-6 classes, repeated samples and one scaled feature row.

    Each sample's class is drawn, so class counts differ, a class may hold one
    sample or none, and the samples come in no particular order.
    """
    n_classes = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    instance = sae_instance(
        draw(st.integers(0, 2**32 - 1)),
        distinct=draw(st.integers(1, n)),
        column_scale=draw(st.sampled_from([1.0, 1e-4, 1e-8])),
        label_indices=draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)),
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
@given(attribute_instances(), log_uniform_penalties, log_uniform_penalties)
def test_eszsl_final_loss_is_the_objective_at_its_solution(instance, gamma, lam):
    features, labels, classes, _, _ = instance
    try:
        model = train_eszsl(features, labels, classes, gamma=gamma, lam=lam)
    except SingularSystem:
        return  # the refusal is pinned by test_eszsl_satisfies_its_normal_equation
    X, S, Y = eszsl_operands(features, labels, classes)
    # N |C| = ||Y||^2 is the objective at W = 0
    assert abs(model.final_loss - eszsl_objective(model.W, X, S, Y, gamma, lam)) <= 1e-13 * Y.size


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


@settings(max_examples=60, deadline=None)
@given(sae_problems())
def test_sae_final_loss_is_the_objective_at_its_solution(problem):
    (features, labels, classes, S, X), lam = problem
    model = train_sae(features, labels, classes, lam_sae=lam)
    total = np.vdot(X, X) + lam * np.vdot(S, S)  # the objective at P = 0
    assert abs(model.final_loss - sae_objective(model.W.T, S, X, lam)) <= 1e-13 * total


@pytest.mark.parametrize("method", [Method.ESZSL, Method.SAE], ids=["eszsl", "sae"])
def test_closed_forms_form_no_t_by_n_matrix(method):
    # 4 classes of 100 samples: a per-sample class matrix would be t x N = 2,000 x 400, 6.4 MB
    features, labels, classes, _ = random_training_problem(
        34, n=400, d=10, n_classes=4, attr_count=2000, mode_kind=ModeKind.ATTRIBUTES
    )
    tracemalloc.start()
    try:
        _TRAINERS[method](features, labels, classes, **{name: 0.5 for name, _, _ in HYPERPARAMETERS[method]})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < classes.embedding_dim * len(labels) * features.itemsize / 4


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
    # operands: t x |C|, d x N (the largest: 6 * 12 * 8 bytes), t x d, |C| x N
    with pytest.raises(InstanceTooLarge, match=r"t=3, d=6, N=12 .* \(the largest is 576 bytes, 0\.0 MiB\)"):
        train_sae(features, labels, classes, lam_sae=0.5)


def test_instance_too_large_gives_the_largest_operand_in_bytes_and_mib():
    # paper-full's d x N features, 2,024 x 1,020 float64, are the largest operand
    _, _, classes, _ = random_training_problem(35, n_classes=170, attr_count=53, text_dim=768, d_t=768)
    X = np.broadcast_to(0.0, (2024, 1020))
    match = r"sae: the Sylvester solve for t=821, d=2024, N=1020 .* \(the largest is 16515840 bytes, 15\.8 MiB\)$"
    with pytest.raises(InstanceTooLarge, match=match):
        with models._closed_form_errors(Method.SAE, "Sylvester solve", X, classes):
            raise MemoryError("Unable to allocate")


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
    model = train_lle(features, labels, classes, epochs=20, seed=5)
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
    model = train_lle(features, labels, classes, epochs=5, seed=seed)
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
    "header-weights-int": (SchemaMismatch, "weights must be a file name string, got 3$", lambda h, w: _rewrite_header(h, lambda d: d.update(weights=3))),
    "header-has-M-string": (SchemaMismatch, "has_M must be true or false, got 'true'$", lambda h, w: _rewrite_header(h, lambda d: d.update(has_M="true"))),
    "header-without-M": (SchemaMismatch, "hold", lambda h, w: _rewrite_header(h, lambda d: d.update(has_M=False))),
    "header-d-zero": (SchemaMismatch, "d must be an integer >= 1, got 0$", lambda h, w: _rewrite_header(h, lambda d: d.update(d=0))),
    "header-t-zero": (SchemaMismatch, "t must be an integer >= 1, got 0$", lambda h, w: _rewrite_header(h, lambda d: d.update(t=0))),
}


@pytest.mark.parametrize("damage", sorted(_WEIGHTS_DAMAGE))
def test_damaged_weights_are_refused(tmp_path, damage):
    error, message, change = _WEIGHTS_DAMAGE[damage]
    _, path = _saved_lle(tmp_path)
    change(path, path.with_suffix(".npy"))
    with pytest.raises(error, match=message):
        load_model(path)


_DELETED = object()

# (field, value): each header field set outside the schema or deleted; an integer field takes only a JSON integer
_HEADER_FIELDS = [
    ("d", "24"), ("d", None), ("d", 24.0), ("d", 24.9), ("d", float("inf")), ("t", "20"), ("t", True), ("t", 0),
    ("has_M", None), ("has_M", 1), ("weights", None), ("weights", ["model.npy"]),
    ("d_t", 8.0), ("d_t", float("inf")), ("weights_crc32", "abc"), ("weights_crc32", -1),
    ("final_loss", _DELETED), ("final_loss", None), ("final_loss", "0.5"), ("final_loss", True),
    ("final_loss", float("nan")), ("final_loss", float("inf")),
    ("hyperparams", _DELETED), ("hyperparams", 5), ("hyperparams", [0.1]), ("hyperparams", {"lam": "x"}),
    ("hyperparams", {"lam": None}), ("hyperparams", {"lam": float("nan")}),
    ("seed", _DELETED), ("seed", "x"), ("seed", None), ("seed", -1), ("seed", 1.5), ("seed", True),
    ("epochs", _DELETED), ("epochs", None), ("epochs", "5"), ("epochs", -1), ("epochs", 5.0), ("epochs", False),
]


@pytest.mark.parametrize(
    "field, value", _HEADER_FIELDS, ids=[f"{f}-{'deleted' if v is _DELETED else repr(v)}" for f, v in _HEADER_FIELDS]
)
def test_a_header_field_outside_the_schema_is_a_schema_mismatch_naming_the_file(tmp_path, field, value):
    _, path = _saved_lle(tmp_path)
    _rewrite_header(path, lambda doc: doc.pop(field) if value is _DELETED else doc.update({field: value}))
    with pytest.raises(SchemaMismatch, match=f"^model file {re.escape(str(path))}.*{field}"):
        load_model(path)


@pytest.mark.parametrize("d_text", ["x", 0, 4.0, True, None])
def test_a_header_without_M_takes_d_text_as_a_positive_integer_or_null(tmp_path, d_text):
    features, labels, classes, _ = random_training_problem(16, d_t=4)  # d_t is the text width: no M is trained
    model = train_lle(features, labels, classes, epochs=5, seed=5)
    path = save_model(model, tmp_path / "model.json")
    _rewrite_header(path, lambda doc: doc.update(d_text=d_text))
    if d_text is None:
        assert load_model(path).W.tobytes() == model.W.tobytes()
    else:
        with pytest.raises(SchemaMismatch, match=f"^model file {re.escape(str(path))}: d_text must be"):
            load_model(path)


def test_a_header_keeps_integral_and_float_numbers_as_written(tmp_path):
    _, path = _saved_lle(tmp_path)
    _rewrite_header(path, lambda doc: doc.update(final_loss=2, hyperparams={"lam": 0}, seed=7, epochs=0))
    loaded = load_model(path)
    assert (loaded.final_loss, loaded.hyperparams, loaded.seed, loaded.epochs) == (2.0, {"lam": 0}, 7, 0)
    assert type(loaded.final_loss) is float


@pytest.mark.parametrize(
    "change", [{"final_loss": float("nan")}, {"hyperparams": {"lam": float("inf")}}], ids=["final_loss", "hyperparams"]
)
def test_save_model_refuses_a_value_strict_json_cannot_hold(tmp_path, change):
    # refused before either file is written, naming the path and the field
    model = attr_model(np.eye(2), **{"final_loss": 0.5, **change})
    path = tmp_path / "model.json"
    field = "final_loss" if "final_loss" in change else "hyperparams.lam"
    with pytest.raises(ValueError, match=f"^model file {re.escape(str(path))}: {field} is .*not JSON compliant"):
        save_model(model, path)
    assert not path.exists()
    assert not (tmp_path / "model.npy").exists()


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
    model = train_lle(features, labels, classes, epochs=5, seed=5)
    path = save_model(model, tmp_path / "model.json")
    raw = json.loads(path.read_text())
    raw["d"] = raw["d"] + 1
    path.write_text(json.dumps(raw))
    with pytest.raises(SchemaMismatch):
        load_model(path)


def test_combined_mode_model_carries_reduction(tmp_path):
    features, labels, classes, _ = random_training_problem(17)
    model = train_lle(features, labels, classes, epochs=5, seed=2)
    loaded = load_model(save_model(model, tmp_path / "m.json"))
    assert loaded.M is not None
    assert loaded.M.shape == (classes.text_dim, classes.mode.d_t)
