import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from zslsign import experiment
from zslsign.data import Dataset, SplitConfig, SplitMode
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
    train_repeats,
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
    """Class-normalized top-1 of the validation samples, ranked among the validation classes.

    A ZSL split whose unseen classes are the validation classes makes rank_samples
    rank exactly those samples against exactly those candidates.
    """
    val_ids = dataset.split.validation_classes
    val_split = SplitConfig(dataset.split.seen_classes, frozenset(), val_ids, SplitMode.ZSL)
    _, ranks, truths, _ = rank_samples(
        Dataset(dataset.classes, dataset.samples, val_split, dataset.attribute_count), model, cfg
    )
    assert set(truths) == val_ids
    assert len(truths) == len(dataset.samples_of(val_ids))
    return topk_accuracy(ranks, truths, ks=(1,)).per_k[1]


def unseen_as_gzsl(dataset: Dataset, samples=None) -> Dataset:
    """A GZSL dataset whose seen + unseen candidates are exactly the ZSL unseen classes.

    Its first unseen classes (by id) become its seen ones, so the GZSL candidate
    set and evaluation samples are those of the ZSL split.
    """
    unseen = sorted(dataset.split.unseen_classes)
    half = len(unseen) // 2
    split = SplitConfig(frozenset(unseen[:half]), frozenset(), frozenset(unseen[half:]), SplitMode.GZSL)
    return Dataset(dataset.classes, dataset.samples if samples is None else samples, split, dataset.attribute_count)


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
    gzsl_dataset = unseen_as_gzsl(fixture_dataset)
    assert candidate_class_ids(gzsl_dataset.split) == candidate_class_ids(fixture_dataset.split)
    g_ids, g_ranks, g_truths, g_predicted = rank_samples(gzsl_dataset, fixture_model, FIXTURE_CFG)
    assert g_ids == zsl_ids
    assert g_truths == zsl_truths
    assert np.array_equal(g_ranks, zsl_ranks)  # exact, not approximate
    assert g_predicted == zsl_predicted
    # every unseen class taken in turn as the truth: the whole ranking agrees
    unseen = fixture_dataset.split.unseen_classes
    for cid in sorted(unseen):
        relabeled = [replace(s, class_id=cid) if s.class_id in unseen else s for s in fixture_dataset.samples]
        zsl_relabeled = Dataset(
            fixture_dataset.classes, relabeled, fixture_dataset.split, fixture_dataset.attribute_count
        )
        _, z_all, z_truths, _ = rank_samples(zsl_relabeled, fixture_model, FIXTURE_CFG)
        _, g_all, g_truths, _ = rank_samples(unseen_as_gzsl(fixture_dataset, relabeled), fixture_model, FIXTURE_CFG)
        assert z_truths == g_truths == [cid] * len(zsl_ids)
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


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="worker pools fork"
)


def _pid_job(offset, scale, value):
    """A _map_jobs job: its worker's pid and a value computed from the shared arguments."""
    return os.getpid(), offset + scale * value


@needs_fork
def test_map_jobs_forks_workers_and_keeps_item_order(monkeypatch):
    items = [(v,) for v in range(7)]
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
    in_process = experiment._map_jobs(_pid_job, items, (10, 3))
    assert in_process == [(os.getpid(), 10 + 3 * v) for v in range(7)]
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    pooled = experiment._map_jobs(_pid_job, items, (10, 3))
    assert [value for _, value in pooled] == [value for _, value in in_process]
    pids = {pid for pid, _ in pooled}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    assert experiment._shared == ()  # only the workers' initializer sets it


@needs_fork
@pytest.mark.parametrize("method", ["lle", "eszsl", "sae"])
def test_sweep_rows_do_not_depend_on_the_worker_count(fixture_dataset, monkeypatch, method):
    cfg = replace(FIXTURE_CFG, method=method, epochs=60, repeats=3)
    values = [2, 3, 4] if method == "lle" else [4]  # the closed forms need d_t == text width
    rows = {}
    for cpus in (1, 2):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        rows[cpus] = sweep_text_dim(fixture_dataset, cfg, values=values)
    assert rows[1] == rows[2]
    assert [r[0] for r in rows[1]] == values


@needs_fork
def test_train_repeats_do_not_depend_on_the_worker_count(fixture_dataset, monkeypatch):
    cfg = replace(FIXTURE_CFG, epochs=40, repeats=3)
    models = {}
    for cpus in (1, 2):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        models[cpus] = train_repeats(fixture_dataset, cfg)
    for one, two, r in zip(models[1], models[2], range(cfg.repeats)):
        assert one.seed == two.seed == cfg.seed + r
        assert one.W.tobytes() == two.W.tobytes()
        assert one.M.tobytes() == two.M.tobytes() if one.M is not None else two.M is None
        assert one.loss_history == two.loss_history and one.final_loss == two.final_loss
    # each repeat is the model train_from_config gives for its seed
    alone = train_from_config(fixture_dataset, cfg, seed=cfg.seed + 1)
    assert alone.W.tobytes() == models[2][1].W.tobytes()
    assert alone.loss_history == models[2][1].loss_history


@pytest.mark.parametrize("method, trainer", [("eszsl", "train_eszsl"), ("sae", "train_sae")])
def test_sweep_fits_a_closed_form_once_per_width(fixture_dataset, monkeypatch, method, trainer):
    calls = []
    original = getattr(experiment, trainer)
    monkeypatch.setattr(experiment, trainer, lambda *a, **kw: calls.append(1) or original(*a, **kw))
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)  # every fit in this process, so counted
    cfg = replace(FIXTURE_CFG, method=method, repeats=3)
    rows = sweep_text_dim(fixture_dataset, cfg, values=[4, 4])
    assert len(calls) == 2
    single = validation_top1(fixture_dataset, train_from_config(fixture_dataset, cfg), cfg)
    # every repeat's score still enters the mean and the stddev, as three trainings' would
    assert rows == [(4, float(np.mean([single] * 3)), float(np.std([single] * 3, ddof=1)))] * 2
