from dataclasses import replace

import numpy as np
import pytest

from zslsign.data import Dataset, SplitMode
from zslsign.errors import DimensionMismatch, MissingHandStream
from zslsign.evaluation import topk_accuracy
from zslsign.experiment import (
    RunConfig,
    candidate_class_ids,
    evaluate,
    evaluation_samples,
    rank_samples,
    stack_video_embeddings,
    sweep_text_dim,
    train_from_config,
)
from zslsign.synth import SynthSpec, generate
from zslsign.temporal import AggregatorSpec

from conftest import make_sample

FIXTURE_SPEC = SynthSpec(
    n_classes=14,
    n_seen=8,
    n_unseen=4,
    attribute_count=6,
    text_dim=4,
    samples_per_class=6,
    snippets=4,
    stream_width=12,
    noise_sigma=0.01,
    seed=5,
)
FIXTURE_CFG = RunConfig(
    embedding="combined", d_t=4, epochs=200, learning_rate=0.5, lam=1e-3, seed=5, repeats=2
)


@pytest.fixture(scope="module")
def fixture_dataset():
    dataset, _ = generate(FIXTURE_SPEC)
    return dataset


@pytest.fixture(scope="module")
def fixture_model(fixture_dataset):
    return train_from_config(fixture_dataset, FIXTURE_CFG)


def validation_top1(dataset, model, cfg) -> float:
    """Class-normalized top-1 of the validation samples, ranked among the validation classes."""
    val_ids = dataset.split.validation_classes
    _, ranks, truths, _ = rank_samples(
        dataset, model, cfg, samples=dataset.samples_of(val_ids), candidates=dataset.descriptors_of(val_ids)
    )
    assert set(truths) == val_ids
    return topk_accuracy(ranks, truths, ks=(1,)).per_k[1]


def test_zsl_candidates_exclude_seen(fixture_dataset):
    ids = candidate_class_ids(fixture_dataset.split)
    assert set(ids) == set(fixture_dataset.split.unseen_classes)
    assert not set(ids) & set(fixture_dataset.split.seen_classes)


def test_gzsl_candidates_are_seen_plus_unseen(fixture_dataset):
    split = fixture_dataset.split.with_mode(SplitMode.GZSL)
    ids = candidate_class_ids(split)
    assert set(ids) == set(split.seen_classes | split.unseen_classes)


def test_gzsl_predict_on_unseen_candidates_equals_zsl(fixture_dataset, fixture_model):
    zsl_ids, zsl_ranks, zsl_truths, zsl_predicted = rank_samples(fixture_dataset, fixture_model, FIXTURE_CFG)
    gzsl_dataset = Dataset(
        fixture_dataset.classes,
        fixture_dataset.samples,
        fixture_dataset.split.with_mode(SplitMode.GZSL),
        fixture_dataset.attribute_count,
    )
    unseen = [gzsl_dataset.classes_by_id[c] for c in sorted(gzsl_dataset.split.unseen_classes)]
    samples = gzsl_dataset.samples_of(gzsl_dataset.split.unseen_classes)
    g_ids, g_ranks, g_truths, g_predicted = rank_samples(
        gzsl_dataset, fixture_model, FIXTURE_CFG, samples=samples, candidates=unseen
    )
    assert g_ids == zsl_ids
    assert g_truths == zsl_truths
    assert np.array_equal(g_ranks, zsl_ranks)  # exact, not approximate
    assert g_predicted == zsl_predicted
    # every unseen class taken in turn as the truth: the whole ranking agrees
    for cid in sorted(gzsl_dataset.split.unseen_classes):
        relabeled = [replace(s, class_id=cid) for s in samples]
        _, g_all, _, _ = rank_samples(gzsl_dataset, fixture_model, FIXTURE_CFG, samples=relabeled, candidates=unseen)
        _, z_all, _, _ = rank_samples(fixture_dataset, fixture_model, FIXTURE_CFG, samples=relabeled)
        assert np.array_equal(g_all, z_all)


def test_rank_samples_breaks_ties_by_class_id(fixture_dataset, fixture_model):
    # W = 0 scores every candidate 0: the smallest class id is predicted, and each truth ranks by its id
    model = replace(fixture_model, W=np.zeros_like(fixture_model.W))
    _, ranks, truths, predicted = rank_samples(fixture_dataset, model, FIXTURE_CFG)
    ids = candidate_class_ids(fixture_dataset.split)
    assert predicted == [ids[0]] * len(truths)
    assert ranks.tolist() == [ids.index(t) for t in truths]


def test_training_recovers_planted_structure(fixture_dataset, fixture_model):
    report = evaluate(fixture_dataset, fixture_model, FIXTURE_CFG)
    assert report.per_k[1] >= 75.0  # small fixture; the acceptance suite runs the full one
    assert set(report.per_class) <= set(fixture_dataset.split.unseen_classes)


def test_each_method_trains(fixture_dataset):
    for method in ("lle", "eszsl", "sae"):
        cfg = RunConfig(
            embedding="attr", method=method, epochs=30, learning_rate=0.5, seed=1, repeats=1
        )
        model = train_from_config(fixture_dataset, cfg)
        report = evaluate(fixture_dataset, model, cfg)
        assert set(report.per_k) == {1, 2, 5}


def test_hand_stream_must_cover_dataset(fixture_dataset):
    cfg = RunConfig(use_hand=True, embedding="attr", epochs=1)
    with pytest.raises(MissingHandStream, match="dataset-wide"):
        train_from_config(fixture_dataset, cfg)


def test_mixed_widths_raise_dimension_mismatch():
    samples = [
        make_sample("s0", "c", [[1.0, 2.0]]),
        make_sample("s1", "c", [[1.0, 2.0, 3.0]]),
    ]
    with pytest.raises(DimensionMismatch):
        stack_video_embeddings(samples, AggregatorSpec(), use_hand=False)


def test_validation_top1_uses_validation_classes(fixture_dataset, fixture_model):
    score = validation_top1(fixture_dataset, fixture_model, FIXTURE_CFG)
    assert 0.0 <= score <= 100.0


def test_sweep_bypass_value_matches_no_reduction_run(fixture_dataset):
    cfg = FIXTURE_CFG
    rows = sweep_text_dim(fixture_dataset, cfg, values=[2, 4])
    assert [r[0] for r in rows] == [2, 4]
    # d_t == text_dim runs without a reduction matrix; cross-check one repeat
    model = train_from_config(fixture_dataset, cfg, seed=cfg.seed)
    assert model.M is None  # d_t=4 equals the raw text width: identity bypass
    direct = validation_top1(fixture_dataset, model, cfg)
    repeat_scores = [
        validation_top1(
            fixture_dataset,
            train_from_config(fixture_dataset, cfg, seed=cfg.seed + r),
            cfg,
        )
        for r in range(cfg.repeats)
    ]
    assert rows[1][1] == pytest.approx(float(np.mean(repeat_scores)))
    assert direct == repeat_scores[0]


def test_sweep_beats_random_baseline(fixture_dataset):
    rows = sweep_text_dim(fixture_dataset, FIXTURE_CFG, values=[2, 4])
    n_val = len(fixture_dataset.split.validation_classes)
    random_top1 = 100.0 / n_val
    for _value, mean, _std in rows:
        assert mean > random_top1


def test_sweep_rejects_attr_mode(fixture_dataset):
    with pytest.raises(ValueError):
        sweep_text_dim(fixture_dataset, RunConfig(embedding="attr"), values=[2])


def test_run_config_round_trip_and_unknown_keys():
    cfg = RunConfig(manifest="m.json", ks=(1, 2), tsm_weights=(0.5, 1.0, 0.5))
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"nope": 1})


def test_candidate_descriptors_sorted(fixture_dataset):
    descriptors, *_ = evaluation_samples(fixture_dataset, FIXTURE_CFG)
    ids = [c.class_id for c in descriptors]
    assert ids == sorted(ids) == candidate_class_ids(fixture_dataset.split)


def test_two_stream_training_when_hand_covered():
    rng = np.random.default_rng(20)
    from conftest import make_descriptor

    descriptors = [make_descriptor(f"c{i}", rng.integers(0, 2, size=4)) for i in range(4)]
    samples = tuple(
        make_sample(
            f"s{i}",
            f"c{i % 4}",
            body=rng.normal(size=(3, 5)),
            hand=rng.normal(size=(3, 2)),
        )
        for i in range(12)
    )
    from zslsign.data import SplitConfig, SplitMode

    dataset = Dataset(
        tuple(descriptors),
        samples,
        SplitConfig(frozenset({"c0", "c1", "c2"}), frozenset(), frozenset({"c3"}), SplitMode.ZSL),
        attribute_count=4,
    )
    cfg = RunConfig(embedding="attr", use_hand=True, epochs=20, learning_rate=0.1, seed=0, repeats=1)
    model = train_from_config(dataset, cfg)
    assert model.W.shape[0] == 5 + 2  # body width + hand width


def test_run_config_validates_ks_and_repeats():
    with pytest.raises(ValueError):
        RunConfig(ks=())
    with pytest.raises(ValueError):
        RunConfig(ks=(0,))
    with pytest.raises(ValueError):
        RunConfig(repeats=0)


def test_train_config_validation():
    from zslsign.models import TrainConfig

    with pytest.raises(ValueError):
        TrainConfig(lam=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(init_scale=0.0)
