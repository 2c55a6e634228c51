import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslsign.data import SplitConfig, SplitMode
from zslsign.errors import EmptyEvaluationSet, UnrankedClass
from zslsign.evaluation import gzsl_report, harmonic_mean, random_baseline, topk_accuracy
from zslsign.models import truth_ranks
from zslsign.oracles import brute_random_baseline, brute_topk_count, rank_scores


def split(seen=(), validation=(), unseen=(), mode=SplitMode.GZSL):
    return SplitConfig(frozenset(seen), frozenset(validation), frozenset(unseen), mode)


def ranks_of(rankings, truths):
    """0-based position of each truth in its written-out ranking."""
    return [list(r).index(t) for r, t in zip(rankings, truths)]


def tied_scores(rng, n, n_classes):
    """Integer-valued scores with many exact ties, and some zeros negated to -0.0."""
    scores = rng.integers(-2, 3, size=(n, n_classes)).astype(float)
    return np.where(rng.random(scores.shape) < 0.5, -scores, scores)


def test_class_normalization_definition():
    rankings = [["a", "b"], ["a", "b"], ["a", "b"]]
    truths = ["a", "b", "b"]  # class a: 1/1 correct at k=1; class b: 0/2
    report = topk_accuracy(ranks_of(rankings, truths), truths, ks=[1])
    assert report.per_k[1] == 50.0  # not 33.3: unweighted mean over classes
    assert report.per_class["a"][1] == 1.0
    assert report.per_class["b"][1] == 0.0


def test_exhaustive_k_is_always_100():
    rng = np.random.default_rng(0)
    classes = [f"c{i}" for i in range(4)]
    rankings = [list(rng.permutation(classes)) for _ in range(12)]
    truths = [classes[i % 4] for i in range(12)]
    report = topk_accuracy(ranks_of(rankings, truths), truths, ks=[4])
    assert report.per_k[4] == 100.0


def test_matches_counting_oracle():
    rng = np.random.default_rng(1)
    classes = [f"c{i}" for i in range(6)]
    truths = [classes[i % 6] for i in range(30)]
    ks = [1, 2, 5]
    for _ in range(20):
        scores = tied_scores(rng, 30, 6)
        report = topk_accuracy(truth_ranks(scores, classes, truths), truths, ks)
        oracle = brute_topk_count(rank_scores(scores, classes), truths, ks)
        for k in ks:
            assert report.per_k[k] == pytest.approx(oracle[k], abs=1e-12)


def test_accuracy_monotone_in_k():
    rng = np.random.default_rng(2)
    classes = [f"c{i}" for i in range(8)]
    rankings = [list(rng.permutation(classes)) for _ in range(40)]
    truths = [classes[i % 8] for i in range(40)]
    ks = list(range(1, 9))
    report = topk_accuracy(ranks_of(rankings, truths), truths, ks)
    values = [report.per_k[k] for k in ks]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_duplicating_a_class_leaves_accuracy_unchanged():
    rankings = [["a", "b"], ["b", "a"], ["a", "b"]]
    truths = ["a", "b", "b"]
    base = topk_accuracy(ranks_of(rankings, truths), truths, ks=[1]).per_k[1]
    more_rankings, more_truths = rankings + [rankings[0]] * 3, truths + ["a"] * 3
    doubled = topk_accuracy(ranks_of(more_rankings, more_truths), more_truths, ks=[1]).per_k[1]
    assert doubled == base


def test_per_k_does_not_depend_on_which_class_holds_a_miss():
    # 30 classes of 6 samples and one miss: a pairwise mean of the rates read 99.44444444444446 or ...443,
    # by the position of the class whose rate is 5/6
    truths = [f"c{i:02d}" for i in range(30) for _ in range(6)]
    per_k = {repr(topk_accuracy([int(j == miss) for j in range(180)], truths, ks=[1]).per_k) for miss in range(0, 180, 6)}
    assert per_k == {"{1: 99.44444444444443}"}


def test_unranked_truth_class_raises():
    with pytest.raises(UnrankedClass, match="'z'"):
        truth_ranks(np.zeros((1, 2)), ["a", "b"], ["z"])


def test_empty_evaluation_set_raises():
    with pytest.raises(EmptyEvaluationSet):
        topk_accuracy([], [], ks=[1])


def test_harmonic_mean_identities():
    assert harmonic_mean(37.5, 37.5) == 37.5
    assert harmonic_mean(54.6, 0.0) == 0.0
    assert harmonic_mean(0.0, 0.0) == 0.0


def test_harmonic_mean_reference_values():
    # one-decimal reference values derive from unrounded inputs; agree to one decimal unit
    assert abs(harmonic_mean(54.6, 4.8) - 8.8) < 0.1
    assert abs(harmonic_mean(33.3, 6.7) - 11.1) < 0.1


def test_gzsl_report_breakdown():
    rankings = [["s1", "u1"], ["s1", "u1"], ["u1", "s1"], ["s1", "u1"]]
    truths = ["s1", "s1", "u1", "u1"]
    report = gzsl_report(ranks_of(rankings, truths), truths, split(seen=["s1"], unseen=["u1"]), ks=[1])
    assert report.seen_per_k[1] == 100.0
    assert report.unseen_per_k[1] == 50.0
    assert report.harmonic_per_k[1] == pytest.approx(harmonic_mean(100.0, 50.0))
    assert report.per_k[1] == pytest.approx(75.0)


def test_gzsl_report_without_seen_samples():
    rankings = [["u1", "s1"], ["s1", "u1"]]
    truths = ["u1", "u1"]
    report = gzsl_report(ranks_of(rankings, truths), truths, split(seen=["s1"], unseen=["u1"]), ks=[1])
    assert report.seen_per_k is None
    assert report.unseen_per_k[1] == 50.0
    assert report.harmonic_per_k[1] == 0.0


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_seen=st.integers(1, 4),
    n_unseen=st.integers(1, 4),
    n_extra=st.integers(0, 22),
    ks=st.sets(st.integers(1, 9), min_size=1, max_size=3),
)
def test_gzsl_report_matches_counting_oracle_on_subsets(seed, n_seen, n_unseen, n_extra, ks):
    rng = np.random.default_rng(seed)
    seen = [f"s{i}" for i in range(n_seen)]
    unseen = [f"u{i}" for i in range(n_unseen)]
    ids = sorted(seen + unseen)
    truths = [seen[0], unseen[0]] + [str(c) for c in rng.choice(ids, size=n_extra)]
    ks = sorted(ks)
    scores = tied_scores(rng, len(truths), len(ids))
    report = gzsl_report(truth_ranks(scores, ids, truths), truths, split(seen=seen, unseen=unseen), ks)

    rankings = rank_scores(scores, ids)

    def oracle(group):
        pick = [i for i, t in enumerate(truths) if t in group]
        return brute_topk_count([rankings[i] for i in pick], [truths[i] for i in pick], ks)

    expected_seen, expected_unseen = oracle(seen), oracle(unseen)
    for got, expected in (
        (report.per_k, oracle(ids)),
        (report.seen_per_k, expected_seen),
        (report.unseen_per_k, expected_unseen),
        (report.harmonic_per_k, {k: harmonic_mean(expected_seen[k], expected_unseen[k]) for k in ks}),
    ):
        assert set(got) == set(ks)
        for k in ks:
            assert abs(got[k] - expected[k]) <= 1e-12


def test_random_baseline_fifty_classes():
    assert random_baseline(50, ks=[1, 2, 5]) == {1: 2.0, 2: 4.0, 5: 10.0}


def test_random_baseline_caps_k_at_the_candidate_count():
    assert random_baseline(3, ks=[1, 3, 7]) == {1: 100.0 / 3, 3: 100.0, 7: 100.0}
    assert random_baseline(1, ks=[1]) == {1: 100.0}


def test_random_baseline_deterministic():
    # the Monte-Carlo reference is deterministic per seed
    a = brute_random_baseline(10, [5] * 10, ks=[1, 3], trials=500, seed=3)
    b = brute_random_baseline(10, [5] * 10, ks=[1, 3], trials=500, seed=3)
    c = brute_random_baseline(10, [5] * 10, ks=[1, 3], trials=500, seed=4)
    assert a == b
    assert a != c


def test_random_baseline_converges_to_analytic_expectation():
    # k/|C| * 100 regardless of the class-size profile
    sizes = [1, 2, 3, 5, 8, 13, 21, 34]
    exact = random_baseline(25, ks=[1, 5])
    assert exact == {1: 100.0 * 1 / 25, 5: 100.0 * 5 / 25}
    sampled = brute_random_baseline(25, sizes, ks=[1, 5], trials=10**6, seed=0)
    assert abs(sampled[1] - exact[1]) < 0.2
    assert abs(sampled[5] - exact[5]) < 0.2


def test_random_baseline_validates_inputs():
    with pytest.raises(ValueError, match="n_classes=0"):
        random_baseline(0, ks=[1])
    with pytest.raises(ValueError, match="k=0"):
        random_baseline(10, ks=[1, 0])
    with pytest.raises(ValueError):
        brute_random_baseline(10, [5], ks=[1], trials=0)
    with pytest.raises(ValueError):
        brute_random_baseline(10, [], ks=[1])
