import numpy as np
import pytest

from zslsign.embeddings import ClassEmbeddingSet, EmbeddingMode, ModeKind
from zslsign.errors import DimensionMismatch, IndexOutOfRange, ModeWithoutAttributes, NoMisclassifications
from zslsign.influence import (
    InfluenceKind,
    class_influence_matrix,
    confusion_influence_matrix,
    positive_affiliation_summary,
)
from zslsign.models import CompatModel, Method, posteriors
from zslsign.oracles import brute_softmax, flip_attribute, flip_influence_confusion, flip_influence_correct, log_ratio

from conftest import make_descriptor

ATTR = EmbeddingMode(kind=ModeKind.ATTRIBUTES)


def attr_model(W) -> CompatModel:
    return CompatModel(W=np.asarray(W, dtype=float), M=None, mode=ATTR, method=Method.LLE, hyperparams={})


def candidates_of(attr_rows):
    return [make_descriptor(f"c{i}", row) for i, row in enumerate(attr_rows)]


def scores_of(model, phi, cands) -> np.ndarray:
    """Scores of phi against cands, in class_id order (the order candidates_of gives)."""
    return model.scores(phi, ClassEmbeddingSet.from_descriptors(cands, model.mode).compose(model.M))


def stacked(samples):
    """(phi, truth) pairs as an N x d feature matrix and a truth list."""
    return np.array([phi for phi, _ in samples]), [truth for _, truth in samples]


def random_setup(seed, d=3, A=4, n_classes=5):
    rng = np.random.default_rng(seed)
    model = attr_model(rng.normal(size=(d, A)))
    cands = candidates_of(rng.integers(0, 2, size=(n_classes, A)))
    phi = rng.normal(size=d)
    return model, cands, phi, rng


def test_zero_weight_column_gives_exact_zero():
    W = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, -1.0]])  # attribute 1 carries no weight
    model = attr_model(W)
    cands = candidates_of([[1, 0, 1], [0, 1, 0], [1, 1, 1]])
    phi = np.array([0.7, -0.3])
    assert flip_influence_correct(model, phi, cands[0], 1, cands) == 0.0
    assert flip_influence_confusion(model, phi, "c0", "c2", 1, cands) == 0.0
    winner = cands[int(np.argmax(scores_of(model, phi, cands)))].class_id
    other = next(c.class_id for c in cands if c.class_id != winner)
    correct = class_influence_matrix(model, phi[None, :], [winner], [winner], cands)
    assert correct.rows[0].scores[1] == 0.0
    confusion = confusion_influence_matrix(model, phi[None, :], [other], cands)
    assert confusion.rows[0].scores[1] == 0.0


def test_double_flip_restores_posteriors_bit_exactly():
    model, cands, phi, _ = random_setup(0)
    target = cands[2]
    before = posteriors(scores_of(model, phi, cands))
    restored_target = flip_attribute(flip_attribute(target, 3), 3)
    restored = list(cands)
    restored[2] = restored_target
    after = posteriors(scores_of(model, phi, restored))
    assert np.array_equal(before, after)


def test_flip_changes_only_target_score():
    model, cands, phi, _ = random_setup(1)
    base_scores = scores_of(model, phi, cands)
    flipped = list(cands)
    flipped[1] = flip_attribute(cands[1], 0)
    new_scores = scores_of(model, phi, flipped)
    for i in range(len(cands)):
        if i == 1:
            continue
        assert new_scores[i] == base_scores[i]  # bit-identical


def test_correct_influence_matches_brute_force_recomputation():
    model, cands3, phi, _ = random_setup(2, n_classes=3)
    scores = list(scores_of(model, phi, cands3))
    for k in range(4):
        flipped = flip_attribute(cands3[0], k)
        flipped_scores = list(scores)
        flipped_scores[0] = scores_of(model, phi, [flipped])[0]
        expected = brute_softmax(scores)[0] - brute_softmax(flipped_scores)[0]
        got = flip_influence_correct(model, phi, cands3[0], k, cands3)
        assert abs(got - expected) < 1e-12


def test_influence_lies_in_open_unit_interval():
    for seed in range(20):
        model, cands, phi, rng = random_setup(100 + seed)
        target = cands[int(rng.integers(len(cands)))]
        k = int(rng.integers(4))
        value = flip_influence_correct(model, phi, target, k, cands)
        assert -1.0 < value < 1.0


def test_influence_needs_attribute_mode():
    model = CompatModel(
        W=np.zeros((2, 3)),
        M=None,
        mode=EmbeddingMode(kind=ModeKind.TEXT, d_t=3),
        method=Method.LLE,
        hyperparams={},
    )
    cands = candidates_of([[1, 0], [0, 1]])
    with pytest.raises(ModeWithoutAttributes):
        class_influence_matrix(model, np.zeros((1, 2)), ["c0"], ["c0"], cands)
    with pytest.raises(ModeWithoutAttributes):
        confusion_influence_matrix(model, np.zeros((1, 2)), ["c0"], cands)


def test_influence_index_out_of_range():
    model, cands, phi, _ = random_setup(3)
    with pytest.raises(IndexOutOfRange):
        flip_influence_correct(model, phi, cands[0], 99, cands)


def test_log_ratio_identities():
    model, cands, phi, _ = random_setup(4)
    assert log_ratio(model, phi, "c1", "c1", cands) == 0.0
    equal = candidates_of([[1, 0, 0, 0], [1, 0, 0, 0]])  # identical embeddings
    assert log_ratio(model, phi, "c0", "c1", equal) == 0.0


def test_log_ratio_matches_direct_posterior_ratio():
    for seed in range(20):
        model, cands, phi, _ = random_setup(200 + seed)
        p = brute_softmax(list(scores_of(model, phi, cands)))
        expected = float(np.log(np.longdouble(p[2]) / np.longdouble(p[0])))
        got = log_ratio(model, phi, "c2", "c0", cands)
        assert abs(got - expected) < 1e-10


def test_confusion_influence_equals_score_difference():
    for seed in range(50):
        model, cands, phi, rng = random_setup(300 + seed)
        k = int(rng.integers(4))
        star = cands[1]
        got = flip_influence_confusion(model, phi, "c1", "c3", k, cands)
        s_before = scores_of(model, phi, [star])[0]
        s_after = scores_of(model, phi, [flip_attribute(star, k)])[0]
        assert abs(got - (s_before - s_after)) < 1e-12
        # and independent of the candidate set beyond the two classes
        subset = [cands[1], cands[3]]
        got_subset = flip_influence_confusion(model, phi, "c1", "c3", k, subset)
        assert abs(got - got_subset) < 1e-12


def test_confusion_influence_hand_computed():
    W = np.array([[1.0, -2.0]])
    model = attr_model(W)
    cands = candidates_of([[1, 1], [0, 1]])
    phi = np.array([2.0])
    # flipping attribute 0 of c0: score drops from 2*(1 - 2) = -2 to 2*(0 - 2) = -4
    got = flip_influence_confusion(model, phi, "c0", "c1", 0, cands)
    assert abs(got - 2.0) < 1e-12
    report = confusion_influence_matrix(model, phi[None, :], ["c1"], cands)  # c0 scores -2 > -4
    assert report.rows[0].subject == ("c1", "c0")
    assert abs(report.rows[0].scores[0] - 2.0) < 1e-12


@pytest.mark.parametrize("count", [0, -1])
def test_confusion_matrix_rejects_nonpositive_pair_count(count):
    model = attr_model([[1.0, -2.0]])
    cands = candidates_of([[1, 1], [0, 1]])
    # one confusion pair exists (c1 predicted as c0), so only the count can fail
    with pytest.raises(ValueError, match=f"top_n_confusions must be >= 1, got {count}"):
        confusion_influence_matrix(model, np.array([[2.0]]), ["c1"], cands, top_n_confusions=count)


def test_class_matrix_single_sample_row():
    model, cands, phi, _ = random_setup(5)
    winner = scores_of(model, phi, cands).argmax()
    cid = cands[int(winner)].class_id
    report = class_influence_matrix(model, phi[None, :], [cid], [cid], cands)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.subject == cid and row.support == 1
    for k in range(4):
        assert row.scores[k] == pytest.approx(
            flip_influence_correct(model, phi, cands[int(winner)], k, cands), abs=1e-15
        )


def test_class_matrix_omits_never_correct_classes():
    model, cands, phi, _ = random_setup(6)
    winner_id, _ = max(
        ((c.class_id, s) for c, s in zip(cands, scores_of(model, phi, cands))),
        key=lambda pair: pair[1],
    )
    loser = next(c.class_id for c in cands if c.class_id != winner_id)
    report = class_influence_matrix(model, phi[None, :], [loser], [loser], cands)
    assert report.rows == ()
    assert report.omitted == (loser,)


def test_class_matrix_matches_reaggregation_oracle():
    rng = np.random.default_rng(7)
    model = attr_model(rng.normal(size=(4, 5)))
    cands = candidates_of(rng.integers(0, 2, size=(5, 5)))
    samples = []
    for _ in range(30):
        phi = rng.normal(size=4)
        winner = int(np.argmax(scores_of(model, phi, cands)))
        samples.append((phi, cands[winner].class_id))  # label everything with its prediction
    ids = [c.class_id for c in cands]
    report = class_influence_matrix(model, *stacked(samples), ids, cands)
    by_subject = {r.subject: r for r in report.rows}
    for cid, row in by_subject.items():
        target = cands[ids.index(cid)]
        phis = [phi for phi, truth in samples if truth == cid]
        assert row.support == len(phis)
        for k in range(5):
            values = [flip_influence_correct(model, phi, target, k, cands) for phi in phis]
            assert abs(row.scores[k] - np.mean(values)) < 1e-12


def test_affiliation_summary_single_class():
    model, cands, phi, _ = random_setup(8)
    winner = int(np.argmax(scores_of(model, phi, cands)))
    cid = cands[winner].class_id
    report = class_influence_matrix(model, phi[None, :], [cid], [cid], cands)
    attrs = {cid: cands[winner].attributes}
    summary = positive_affiliation_summary(report, attrs, min_affiliation=1)
    row = report.rows[0]
    for k, value in summary.items():
        assert cands[winner].attributes[k] == 1
        assert value == row.scores[k]
    positive = {k for k in range(4) if cands[winner].attributes[k] == 1}
    assert set(summary) == positive


def test_affiliation_summary_threshold_excludes():
    model, cands, phi, _ = random_setup(9)
    winner = int(np.argmax(scores_of(model, phi, cands)))
    cid = cands[winner].class_id
    report = class_influence_matrix(model, phi[None, :], [cid], [cid], cands)
    attrs = {cid: np.ones(4)}  # positive in exactly one class, threshold demands ten
    assert positive_affiliation_summary(report, attrs, min_affiliation=10) == {}
    for below in (0, -5):  # below 1 every attribute would pass, as at 1: refused, not read as 1
        with pytest.raises(ValueError, match=rf"^min_affiliation must be >= 1, got {below}$"):
            positive_affiliation_summary(report, attrs, min_affiliation=below)


def test_affiliation_summary_matches_filtered_mean():
    rng = np.random.default_rng(10)
    model = attr_model(rng.normal(size=(4, 3)))
    cands = candidates_of(rng.integers(0, 2, size=(4, 3)))
    samples = []
    for _ in range(40):
        phi = rng.normal(size=4)
        winner = int(np.argmax(scores_of(model, phi, cands)))
        samples.append((phi, cands[winner].class_id))
    ids = [c.class_id for c in cands]
    report = class_influence_matrix(model, *stacked(samples), ids, cands)
    class_attrs = {c.class_id: c.attributes for c in cands}
    summary = positive_affiliation_summary(report, class_attrs, min_affiliation=2)
    by_subject = {r.subject: r.scores for r in report.rows}
    for k, value in summary.items():
        affiliated = [cid for cid in class_attrs if class_attrs[cid][k] == 1]
        assert len(affiliated) >= 2
        expected = np.mean([by_subject[cid][k] for cid in affiliated if cid in by_subject])
        assert value == pytest.approx(expected, abs=1e-15)


def test_confusion_matrix_requires_misclassifications():
    model, cands, phi, _ = random_setup(11)
    winner = int(np.argmax(scores_of(model, phi, cands)))
    with pytest.raises(NoMisclassifications):
        confusion_influence_matrix(model, phi[None, :], [cands[winner].class_id], cands)


def test_confusion_matrix_shape_and_ordering():
    rng = np.random.default_rng(12)
    model = attr_model(rng.normal(size=(4, 5)))
    cands = candidates_of(rng.integers(0, 2, size=(6, 5)))
    samples = []
    for _ in range(120):
        phi = rng.normal(size=4)
        winner = int(np.argmax(scores_of(model, phi, cands)))
        wrong = (winner + 1 + int(rng.integers(5))) % 6  # truth differs from prediction
        samples.append((phi, cands[wrong].class_id))
    report = confusion_influence_matrix(model, *stacked(samples), cands, top_n_confusions=4)
    assert report.kind is InfluenceKind.CONFUSION_LOG_RATIO
    assert len(report.rows) == 4
    supports = [r.support for r in report.rows]
    assert supports == sorted(supports, reverse=True)
    # ties broken by lexicographic pair order
    for a, b in zip(report.rows, report.rows[1:]):
        if a.support == b.support:
            assert a.subject < b.subject


def test_confusion_matrix_matches_reaggregation_oracle():
    rng = np.random.default_rng(13)
    model = attr_model(rng.normal(size=(3, 4)))
    cands = candidates_of(rng.integers(0, 2, size=(4, 4)))
    samples = []
    for _ in range(60):
        phi = rng.normal(size=3)
        winner = int(np.argmax(scores_of(model, phi, cands)))
        truth = (winner + 1) % 4
        samples.append((phi, cands[truth].class_id))
    report = confusion_influence_matrix(model, *stacked(samples), cands, top_n_confusions=3)
    ids = [c.class_id for c in cands]
    for row in report.rows:
        truth, predicted = row.subject
        phis = [
            phi
            for phi, t in samples
            if t == truth
            and cands[int(np.argmax(scores_of(model, phi, cands)))].class_id == predicted
        ]
        assert row.support == len(phis)
        for k in range(4):
            values = [
                flip_influence_confusion(model, phi, predicted, truth, k, cands) for phi in phis
            ]
            assert abs(row.scores[k] - np.mean(values)) < 1e-12


def combined_setup(seed, d=4, A=5, text_dim=6, d_t=3, n_classes=5):
    """Combined-mode model with a trained-style reduction M: attributes first, then text @ M."""
    rng = np.random.default_rng(seed)
    mode = EmbeddingMode(kind=ModeKind.COMBINED, d_t=d_t)
    model = CompatModel(
        W=rng.normal(size=(d, A + d_t)), M=rng.normal(size=(text_dim, d_t)), mode=mode,
        method=Method.LLE, hyperparams={},
    )
    cands = [
        make_descriptor(f"c{i}", rng.integers(0, 2, size=A), text=rng.normal(size=text_dim))
        for i in range(n_classes)
    ]
    return model, cands, rng


def test_class_matrix_matches_oracle_in_combined_mode_with_reduction():
    model, cands, rng = combined_setup(15)
    ids = [c.class_id for c in cands]
    phis = rng.normal(size=(40, 4))
    truths = [ids[int(np.argmax(scores_of(model, phi, cands)))] for phi in phis]  # all correct
    report = class_influence_matrix(model, phis, truths, ids, cands)
    assert len(report.rows) >= 2
    for row in report.rows:
        target = cands[ids.index(row.subject)]
        mine = [phi for phi, t in zip(phis, truths) if t == row.subject]
        assert row.support == len(mine)
        for k in range(5):
            values = [flip_influence_correct(model, phi, target, k, cands) for phi in mine]
            assert abs(row.scores[k] - np.mean(values)) < 1e-12
    single = class_influence_matrix(model, phis[:1], truths[:1], truths[:1], cands).rows[0]
    target = cands[ids.index(truths[0])]
    for k in range(5):
        assert single.scores[k] == pytest.approx(
            flip_influence_correct(model, phis[0], target, k, cands), abs=1e-15
        )


def test_confusion_matrix_matches_oracle_in_combined_mode_with_reduction():
    model, cands, rng = combined_setup(16)
    ids = [c.class_id for c in cands]
    phis = rng.normal(size=(60, 4))
    predicted = [ids[int(np.argmax(scores_of(model, phi, cands)))] for phi in phis]
    truths = [ids[(ids.index(p) + 1) % len(ids)] for p in predicted]
    report = confusion_influence_matrix(model, phis, truths, cands, top_n_confusions=3)
    assert len(report.rows) == 3
    for row in report.rows:
        truth, pred = row.subject
        mine = [phi for phi, t, p in zip(phis, truths, predicted) if (t, p) == (truth, pred)]
        assert row.support == len(mine)
        for k in range(5):
            values = [flip_influence_confusion(model, phi, pred, truth, k, cands) for phi in mine]
            assert abs(row.scores[k] - np.mean(values)) < 1e-12


def test_influence_matrices_reject_truths_of_wrong_length():
    model, cands, phi, _ = random_setup(17)
    with pytest.raises(DimensionMismatch):
        class_influence_matrix(model, phi[None, :], ["c0", "c1"], ["c0"], cands)
    with pytest.raises(DimensionMismatch):
        confusion_influence_matrix(model, phi[None, :], [], cands)
