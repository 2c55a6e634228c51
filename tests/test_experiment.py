import json
import multiprocessing
import os
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslsign import experiment, pool
from zslsign.data import Dataset, SplitConfig, SplitMode, csv_text, load_dataset, save_dataset
from zslsign.errors import (
    DegenerateData,
    DimensionMismatch,
    EmptyEvaluationSet,
    MissingHandStream,
    ParseError,
    ZslSignError,
)
from zslsign.evaluation import topk_accuracy
from zslsign.experiment import (
    SWEEP_ROLES,
    Role,
    RunConfig,
    candidate_class_ids,
    embed_dataset,
    evaluate,
    load_embedded,
    rank_samples,
    sweep_text_dim,
    train_from_config,
    train_repeats,
)
from zslsign.synth import SynthSpec, generate
from zslsign.temporal import embed_video

from conftest import make_descriptor, make_sample

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


def seen_view(dataset, cfg=FIXTURE_CFG):
    return embed_dataset(dataset, cfg, (Role.SEEN,))


def candidate_view(dataset, cfg=FIXTURE_CFG):
    return embed_dataset(dataset, cfg, (Role.CANDIDATES,))


def candidates_of(dataset, cfg=FIXTURE_CFG):
    return candidate_view(dataset, cfg).stack(Role.CANDIDATES)


def sweep_view(dataset, cfg=FIXTURE_CFG):
    return embed_dataset(dataset, cfg, SWEEP_ROLES)


@pytest.fixture(scope="module")
def fixture_model(fixture_dataset):
    return train_from_config(seen_view(fixture_dataset), FIXTURE_CFG)


def validation_top1(dataset, model, cfg) -> float:
    """Class-normalized top-1 of the validation samples, ranked among the validation classes.

    A ZSL split whose unseen classes are the validation classes makes rank_samples
    rank exactly those samples against exactly those candidates.
    """
    val_ids = dataset.split.validation_classes
    val_split = SplitConfig(dataset.split.seen_classes, frozenset(), val_ids, SplitMode.ZSL)
    validation = candidates_of(Dataset(dataset.classes, dataset.samples, val_split, dataset.attribute_count), cfg)
    ranks, _ = rank_samples(model, validation)
    truths = validation.labels
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
    zsl = candidates_of(fixture_dataset)
    zsl_ranks, zsl_predicted = rank_samples(fixture_model, zsl)
    gzsl_dataset = unseen_as_gzsl(fixture_dataset)
    assert candidate_class_ids(gzsl_dataset.split) == candidate_class_ids(fixture_dataset.split)
    gzsl = candidates_of(gzsl_dataset)
    g_ranks, g_predicted = rank_samples(fixture_model, gzsl)
    assert gzsl.sample_ids == zsl.sample_ids
    assert gzsl.labels == zsl.labels
    assert np.array_equal(g_ranks, zsl_ranks)  # exact, not approximate
    assert g_predicted == zsl_predicted
    # every unseen class taken in turn as the truth: the whole ranking agrees
    unseen = fixture_dataset.split.unseen_classes
    for cid in sorted(unseen):
        relabeled = [replace(s, class_id=cid) if s.class_id in unseen else s for s in fixture_dataset.samples]
        zsl_relabeled = Dataset(
            fixture_dataset.classes, relabeled, fixture_dataset.split, fixture_dataset.attribute_count
        )
        z, g = candidates_of(zsl_relabeled), candidates_of(unseen_as_gzsl(fixture_dataset, relabeled))
        z_all, _ = rank_samples(fixture_model, z)
        g_all, _ = rank_samples(fixture_model, g)
        assert z.labels == g.labels == [cid] * len(zsl.sample_ids)
        assert np.array_equal(g_all, z_all)


def test_rank_samples_breaks_ties_by_class_id(fixture_dataset, fixture_model):
    # W = 0 scores every candidate 0: the smallest class id is predicted, and each truth ranks by its id
    model = replace(fixture_model, W=np.zeros_like(fixture_model.W))
    stack = candidates_of(fixture_dataset)
    ranks, predicted = rank_samples(model, stack)
    truths = stack.labels
    ids = candidate_class_ids(fixture_dataset.split)
    assert predicted == [ids[0]] * len(truths)
    assert ranks.tolist() == [ids.index(t) for t in truths]


def test_training_recovers_planted_structure(fixture_dataset, fixture_model):
    report = evaluate(candidate_view(fixture_dataset), fixture_model, FIXTURE_CFG)
    assert report.per_k[1] >= 75.0  # small fixture; the acceptance suite runs the full one
    assert set(report.per_class) <= set(fixture_dataset.split.unseen_classes)


def test_each_method_trains(fixture_dataset):
    for method in ("lle", "eszsl", "sae"):
        cfg = RunConfig(
            embedding="attr", method=method, epochs=30, learning_rate=0.5, seed=1, repeats=1
        )
        model = train_from_config(seen_view(fixture_dataset, cfg), cfg)
        report = evaluate(candidate_view(fixture_dataset, cfg), model, cfg)
        assert set(report.per_k) == {1, 2, 5}


def test_hand_stream_must_cover_dataset(fixture_dataset):
    cfg = RunConfig(use_hand=True, embedding="attr", epochs=1)
    for roles in [(Role.SEEN,), (Role.CANDIDATES,), SWEEP_ROLES]:
        with pytest.raises(MissingHandStream, match="dataset-wide"):
            embed_dataset(fixture_dataset, cfg, roles)


def test_mixed_widths_raise_dimension_mismatch():
    samples = (
        make_sample("s0", "c", [[1.0, 2.0]]),
        make_sample("s1", "c", [[1.0, 2.0, 3.0]]),
    )
    split = SplitConfig(frozenset({"c"}), frozenset(), frozenset(), SplitMode.ZSL)
    dataset = Dataset((make_descriptor("c", [1.0]),), samples, split, attribute_count=1)
    with pytest.raises(DimensionMismatch, match=r"samples disagree on embedded width: \[2, 3\]"):
        embed_dataset(dataset, RunConfig(), (Role.SEEN,))


def reference_stack(samples, cfg: RunConfig):
    """The samples sorted by id, embedded one by one: (sample ids, N x d matrix, class ids)."""
    ordered = sorted(samples, key=lambda s: s.sample_id)
    rows = [embed_video(s.body.data, s.hand.data if cfg.use_hand else None, cfg.aggregator_spec()) for s in ordered]
    return [s.sample_id for s in ordered], np.stack(rows), [s.class_id for s in ordered]


@st.composite
def _role_datasets(draw):
    """Small datasets whose three roles all have samples: ZSL or GZSL, one or two streams, ids out of order."""
    n_classes = draw(st.integers(3, 6))
    roles = [0, 1, 2] + draw(st.lists(st.integers(0, 2), min_size=n_classes - 3, max_size=n_classes - 3))
    ids = [f"c{i}" for i in draw(st.permutations(range(n_classes)))]
    split = SplitConfig(
        *(frozenset(cid for cid, r in zip(ids, roles) if r == role) for role in range(3)),
        draw(st.sampled_from(SplitMode)),
    )
    classes = [make_descriptor(cid, [i & 1, (i >> 1) & 1]) for i, cid in enumerate(sorted(ids))]
    body_cols, hand_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    two_streams = draw(st.booleans())
    values = st.floats(-1e3, 1e3, allow_nan=False)
    samples = []
    owners = ids + draw(st.lists(st.sampled_from(ids), max_size=6))
    for j in draw(st.permutations(range(len(owners)))):
        rows = draw(st.integers(1, 3))
        matrix = lambda cols: np.reshape(draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)), (rows, cols))
        hand = matrix(hand_cols) if two_streams else None
        samples.append(make_sample(f"s{j:02d}", owners[j], matrix(body_cols), hand))
    return Dataset(tuple(classes), tuple(samples), split, attribute_count=2)


@settings(max_examples=60, deadline=None)
@given(
    _role_datasets(),
    st.sampled_from(["avgpool", "tsm"]),
    st.tuples(*[st.floats(-2.0, 2.0, allow_nan=False)] * 3),
    st.booleans(),
)
def test_embedded_roles_equal_the_per_role_stacks(dataset, aggregator, weights, use_hand):
    cfg = RunConfig(aggregator=aggregator, tsm_weights=weights, use_hand=use_hand)
    _assert_command_loads_of_the_saved_dataset_equal_embed_dataset(dataset, cfg)
    if use_hand and not dataset.has_full_hand_coverage:
        with pytest.raises(MissingHandStream):
            embed_dataset(dataset, cfg, tuple(Role))
        return
    view = embed_dataset(dataset, cfg, tuple(Role))
    split = dataset.split
    for role, class_ids in (
        (Role.SEEN, split.seen_classes),
        (Role.VALIDATION, split.validation_classes),
        (Role.CANDIDATES, set(candidate_class_ids(split))),
    ):
        ids, features, labels = reference_stack(dataset.samples_of(class_ids), cfg)
        stack = view.stack(role)
        assert stack.sample_ids == ids
        assert stack.labels == labels
        assert stack.features.shape == features.shape and stack.features.tobytes() == features.tobytes()
        assert stack.classes == [dataset.classes_by_id[cid] for cid in sorted(class_ids)]
    assert view.split == split
    # a view keeps only the roles it was asked for, in the order asked, each with only its own classes
    two = embed_dataset(dataset, cfg, (Role.CANDIDATES, Role.SEEN))
    assert list(two.stacks) == [Role.CANDIDATES, Role.SEEN]
    assert two.stack(Role.CANDIDATES).classes == [dataset.classes_by_id[cid] for cid in candidate_class_ids(split)]
    assert two.stack(Role.SEEN).classes == [dataset.classes_by_id[cid] for cid in sorted(split.seen_classes)]


# the roles each command loads: train, predict/eval/analyze, sweep and baseline; and every role
COMMAND_ROLE_SETS = [(Role.SEEN,), (Role.CANDIDATES,), SWEEP_ROLES, (), tuple(Role)]


def _assert_command_loads_of_the_saved_dataset_equal_embed_dataset(dataset: Dataset, cfg: RunConfig) -> None:
    """A command's load of the saved dataset gives embed_dataset(load_dataset(...))'s views, byte for byte.

    From the pack, with one CSV edited after the save (parsed, the others from
    the pack), and with the pack files deleted.
    """
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_dataset(dataset, tmp)
        _assert_command_loads_equal_embed_dataset(manifest, cfg)
        edited = manifest.parent / json.loads(manifest.read_text())["samples"][0]["body"]
        body = dataset.samples[0].body.data * 0.5 + 1.0
        edited.write_text(csv_text(body), encoding="utf-8")
        assert load_dataset(manifest).samples[0].body.data.tobytes() == body.tobytes()
        _assert_command_loads_equal_embed_dataset(manifest, cfg)
        manifest.with_suffix(".pack.npy").unlink()
        manifest.with_suffix(".pack.json").unlink()
        _assert_command_loads_equal_embed_dataset(manifest, cfg)


def _view_bits(build) -> tuple:
    """Every byte of the view build() returns, or the type and message of the error it raises."""
    try:
        view = build()
    except ZslSignError as exc:
        return type(exc), str(exc)
    stacks = [
        (role, stack.sample_ids, stack.labels, stack.features.shape, stack.features.tobytes(),
         [(c.class_id, c.name, c.attributes.tobytes(), c.text.tobytes()) for c in stack.classes])
        for role, stack in view.stacks.items()
    ]
    return stacks, view.split


def _assert_command_loads_equal_embed_dataset(manifest, cfg: RunConfig) -> None:
    cfg = replace(cfg, manifest=str(manifest))
    dataset = load_dataset(manifest)
    for roles in COMMAND_ROLE_SETS:
        expected = _view_bits(lambda: embed_dataset(dataset, cfg, roles))
        assert _view_bits(lambda: load_embedded(cfg, roles)) == expected, roles


def _without_role_samples(dataset: Dataset, class_ids) -> Dataset:
    samples = tuple(s for s in dataset.samples if s.class_id not in class_ids)
    return Dataset(dataset.classes, samples, dataset.split, dataset.attribute_count)


def test_a_role_without_samples_is_a_typed_error_naming_it(fixture_dataset):
    split = fixture_dataset.split
    no_seen = _without_role_samples(fixture_dataset, split.seen_classes)
    with pytest.raises(DegenerateData, match="^no seen samples to train on$"):
        embed_dataset(no_seen, FIXTURE_CFG, (Role.SEEN,))
    no_validation = _without_role_samples(fixture_dataset, split.validation_classes)
    with pytest.raises(EmptyEvaluationSet, match="^no validation samples to evaluate$"):
        embed_dataset(no_validation, FIXTURE_CFG, SWEEP_ROLES)
    no_unseen = _without_role_samples(fixture_dataset, split.unseen_classes)
    with pytest.raises(EmptyEvaluationSet, match="^no candidate samples to evaluate$"):
        embed_dataset(no_unseen, FIXTURE_CFG, (Role.CANDIDATES,))
    # each dataset still embeds the roles that have samples
    assert embed_dataset(no_seen, FIXTURE_CFG, (Role.VALIDATION, Role.CANDIDATES)).stacks
    assert embed_dataset(no_unseen, FIXTURE_CFG, SWEEP_ROLES).stacks
    # a split without validation classes keeps its own message
    no_validation_classes = replace(fixture_dataset, split=replace(split, validation_classes=frozenset()))
    with pytest.raises(ValueError, match="no validation classes"):
        embed_dataset(no_validation_classes, FIXTURE_CFG, SWEEP_ROLES)


def test_a_commands_load_holds_no_more_than_about_one_samples_frames(tmp_path):
    spec = SynthSpec(
        n_classes=6, n_seen=3, n_unseen=2, attribute_count=4, text_dim=8, samples_per_class=4,
        snippets=64, stream_width=256, noise_sigma=0.1, seed=1,
    )
    dataset, _ = generate(spec)
    manifest = save_dataset(dataset, tmp_path)
    sample_frames = max(sum(seq.data.nbytes for seq in s.sequences.values()) for s in dataset.samples)
    all_frames = sum(seq.data.nbytes for s in dataset.samples for seq in s.sequences.values())
    assert all_frames >= 20 * sample_frames
    text = sum(c.text.nbytes for c in dataset.classes)
    del dataset
    roles = tuple(Role)
    tracemalloc.start()
    try:
        view = load_embedded(RunConfig(manifest=str(manifest)), roles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    embeddings = sum(view.stack(role).features.nbytes for role in roles)
    assert sum(len(view.stack(role).sample_ids) for role in roles) == 24
    assert peak < 2 * sample_frames + embeddings + text


def test_a_view_refuses_a_role_it_did_not_embed(fixture_dataset, fixture_model):
    view = seen_view(fixture_dataset)
    with pytest.raises(ValueError, match="candidate samples were not embedded"):
        evaluate(view, fixture_model, FIXTURE_CFG)
    with pytest.raises(ValueError, match="validation samples were not embedded"):
        sweep_text_dim(view, FIXTURE_CFG, values=[4])


def test_validation_top1_uses_validation_classes(fixture_dataset, fixture_model):
    score = validation_top1(fixture_dataset, fixture_model, FIXTURE_CFG)
    assert 0.0 <= score <= 100.0


def test_sweep_bypass_value_matches_no_reduction_run(fixture_dataset):
    cfg = FIXTURE_CFG
    rows = sweep_text_dim(sweep_view(fixture_dataset), cfg, values=[2, 4])
    assert [r[0] for r in rows] == [2, 4]
    # d_t == text_dim runs without a reduction matrix; cross-check one repeat
    model = train_from_config(seen_view(fixture_dataset), cfg, seed=cfg.seed)
    assert model.M is None  # d_t=4 equals the raw text width: identity bypass
    direct = validation_top1(fixture_dataset, model, cfg)
    repeat_scores = [
        validation_top1(
            fixture_dataset,
            train_from_config(seen_view(fixture_dataset), cfg, seed=cfg.seed + r),
            cfg,
        )
        for r in range(cfg.repeats)
    ]
    assert rows[1][1] == pytest.approx(float(np.mean(repeat_scores)))
    assert direct == repeat_scores[0]


def test_sweep_beats_random_baseline(fixture_dataset):
    rows = sweep_text_dim(sweep_view(fixture_dataset), FIXTURE_CFG, values=[2, 4])
    n_val = len(fixture_dataset.split.validation_classes)
    random_top1 = 100.0 / n_val
    for _value, mean, _std in rows:
        assert mean > random_top1


def test_sweep_rejects_attr_mode(fixture_dataset):
    cfg = RunConfig(embedding="attr")
    with pytest.raises(ValueError, match="text-bearing"):
        sweep_text_dim(sweep_view(fixture_dataset, cfg), cfg, values=[2])


def test_run_config_round_trip_and_unknown_keys():
    cfg = RunConfig(manifest="m.json", ks=(1, 2), tsm_weights=(0.5, 1.0, 0.5))
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"nope": 1})


def test_run_config_from_json_checks_each_value_type():
    # every field takes its own value back from JSON, lists standing for tuples
    cfg = RunConfig(manifest="m.json", use_hand=True, lam=2, ks=(1, 3), tsm_weights=(1.0, 2.0, 0.5), out_dir="o")
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    assert RunConfig.from_dict({"tsm_weights": [1, 2, 1]}).tsm_weights == (1.0, 2.0, 1.0)
    assert RunConfig.from_dict({"out_dir": None, "gamma": 1}).gamma == 1
    wrong = [
        ("seed", True), ("repeats", 2.0), ("lam", "1e-3"), ("lam", False), ("use_hand", 1), ("method", None),
        ("manifest", 3), ("out_dir", 3), ("ks", [1, 2.0]), ("ks", [True]), ("tsm_weights", [1, "2", 1]),
        ("tsm_weights", 1.0),
    ]
    for key, value in wrong:
        with pytest.raises(ParseError, match=f"^key '{key}' must be "):
            RunConfig.from_dict({key: value})
    with pytest.raises(ParseError, match="must be a JSON object, got list"):
        RunConfig.from_dict([])


def test_candidate_descriptors_sorted(fixture_dataset):
    ids = [c.class_id for c in candidates_of(fixture_dataset).classes]
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
    model = train_from_config(seen_view(dataset, cfg), cfg)
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
    """A pool.map_jobs job: its worker's pid and a value computed from the shared arguments."""
    return os.getpid(), offset + scale * value


@needs_fork
def test_map_jobs_forks_workers_and_keeps_item_order(monkeypatch):
    items = [(v,) for v in range(7)]
    monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
    in_process = pool.map_jobs(_pid_job, items, (10, 3))
    assert in_process == [(os.getpid(), 10 + 3 * v) for v in range(7)]
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    pooled = pool.map_jobs(_pid_job, items, (10, 3))
    assert [value for _, value in pooled] == [value for _, value in in_process]
    pids = {pid for pid, _ in pooled}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    assert pool._shared == ()  # only the workers' initializer sets it


@needs_fork
@pytest.mark.parametrize("method", ["lle", "eszsl", "sae"])
def test_sweep_rows_do_not_depend_on_the_worker_count(fixture_dataset, monkeypatch, method):
    cfg = replace(FIXTURE_CFG, method=method, epochs=60, repeats=3)
    values = [2, 3, 4] if method == "lle" else [4]  # the closed forms need d_t == text width
    rows = {}
    for cpus in (1, 2):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        rows[cpus] = sweep_text_dim(sweep_view(fixture_dataset, cfg), cfg, values=values)
    assert rows[1] == rows[2]
    assert [r[0] for r in rows[1]] == values


@needs_fork
def test_train_repeats_do_not_depend_on_the_worker_count(fixture_dataset, monkeypatch):
    cfg = replace(FIXTURE_CFG, epochs=40, repeats=3)
    models = {}
    for cpus in (1, 2):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        models[cpus] = train_repeats(seen_view(fixture_dataset, cfg), cfg)
    for one, two, r in zip(models[1], models[2], range(cfg.repeats)):
        assert one.seed == two.seed == cfg.seed + r
        assert one.W.tobytes() == two.W.tobytes()
        assert one.M.tobytes() == two.M.tobytes() if one.M is not None else two.M is None
        assert one.loss_history == two.loss_history and one.final_loss == two.final_loss
    # each repeat is the model train_from_config gives for its seed
    alone = train_from_config(seen_view(fixture_dataset, cfg), cfg, seed=cfg.seed + 1)
    assert alone.W.tobytes() == models[2][1].W.tobytes()
    assert alone.loss_history == models[2][1].loss_history


@pytest.mark.parametrize("method, trainer", [("eszsl", "train_eszsl"), ("sae", "train_sae")])
def test_sweep_fits_a_closed_form_once_per_width(fixture_dataset, monkeypatch, method, trainer):
    calls = []
    original = getattr(experiment, trainer)
    monkeypatch.setattr(experiment, trainer, lambda *a, **kw: calls.append(1) or original(*a, **kw))
    monkeypatch.setattr(pool, "usable_cpus", lambda: 1)  # every fit in this process, so counted
    cfg = replace(FIXTURE_CFG, method=method, repeats=3)
    rows = sweep_text_dim(sweep_view(fixture_dataset, cfg), cfg, values=[4, 4])
    assert len(calls) == 2
    single = validation_top1(fixture_dataset, train_from_config(seen_view(fixture_dataset, cfg), cfg), cfg)
    # every repeat's score still enters the mean and the stddev, as three trainings' would
    assert rows == [(4, float(np.mean([single] * 3)), float(np.std([single] * 3, ddof=1)))] * 2
