import json
import multiprocessing
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslsign import experiment, pool
from zslsign.data import Dataset, SplitConfig, SplitMode, Stream, load_dataset, save_dataset
from zslsign.errors import (
    DegenerateData,
    DimensionMismatch,
    EmptyEvaluationSet,
    InvariantViolation,
    MissingHandStream,
    MissingReduction,
    ParseError,
    ZslSignError,
)
from zslsign.evaluation import topk_accuracy
from zslsign.experiment import (
    SWEEP_ROLES,
    Role,
    RunConfig,
    candidate_class_ids,
    evaluate,
    load_embedded,
    rank_samples,
    sweep_text_dim,
    train_from_config,
    train_repeats,
)
from zslsign.synth import SynthSpec, generate

from conftest import csv_text, make_descriptor, make_sample, reference_stack, write_csv_layout

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


def seen_view(saved, dataset, cfg=FIXTURE_CFG):
    return saved.view(dataset, cfg, (Role.SEEN,))


def candidate_view(saved, dataset, cfg=FIXTURE_CFG):
    return saved.view(dataset, cfg, (Role.CANDIDATES,))


def candidates_of(saved, dataset, cfg=FIXTURE_CFG):
    return candidate_view(saved, dataset, cfg).stack(Role.CANDIDATES)


def sweep_view(saved, dataset, cfg=FIXTURE_CFG):
    return saved.view(dataset, cfg, SWEEP_ROLES)


@pytest.fixture(scope="module")
def fixture_model(saved, fixture_dataset):
    return train_from_config(seen_view(saved, fixture_dataset), FIXTURE_CFG)


def validation_top1(saved, dataset, model, cfg) -> float:
    """Class-normalized top-1 of the validation samples, ranked among the validation classes.

    A ZSL split whose unseen classes are the validation classes makes rank_samples
    rank exactly those samples against exactly those candidates.
    """
    val_ids = dataset.split.validation_classes
    val_split = SplitConfig(dataset.split.seen_classes, frozenset(), val_ids, SplitMode.ZSL)
    validation = candidates_of(saved, replace(dataset, split=val_split), cfg)
    ranks, _ = rank_samples(model, validation)
    truths = validation.labels
    assert set(truths) == val_ids
    assert len(truths) == sum(s.class_id in val_ids for s in dataset.samples)
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
    split = replace(fixture_dataset.split, mode=SplitMode.GZSL)
    ids = candidate_class_ids(split)
    assert set(ids) == set(split.seen_classes | split.unseen_classes)


def test_gzsl_predict_on_unseen_candidates_equals_zsl(saved, fixture_dataset, fixture_model):
    zsl = candidates_of(saved, fixture_dataset)
    zsl_ranks, zsl_predicted = rank_samples(fixture_model, zsl)
    gzsl_dataset = unseen_as_gzsl(fixture_dataset)
    assert candidate_class_ids(gzsl_dataset.split) == candidate_class_ids(fixture_dataset.split)
    gzsl = candidates_of(saved, gzsl_dataset)
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
        z, g = candidates_of(saved, zsl_relabeled), candidates_of(saved, unseen_as_gzsl(fixture_dataset, relabeled))
        z_all, _ = rank_samples(fixture_model, z)
        g_all, _ = rank_samples(fixture_model, g)
        assert z.labels == g.labels == [cid] * len(zsl.sample_ids)
        assert np.array_equal(g_all, z_all)


def test_rank_samples_breaks_ties_by_class_id(saved, fixture_dataset, fixture_model):
    # W = 0 scores every candidate 0: the smallest class id is predicted, and each truth ranks by its id
    model = replace(fixture_model, W=np.zeros_like(fixture_model.W))
    stack = candidates_of(saved, fixture_dataset)
    ranks, predicted = rank_samples(model, stack)
    truths = stack.labels
    ids = candidate_class_ids(fixture_dataset.split)
    assert predicted == [ids[0]] * len(truths)
    assert ranks.tolist() == [ids.index(t) for t in truths]


def test_training_recovers_planted_structure(saved, fixture_dataset, fixture_model):
    report = evaluate(candidate_view(saved, fixture_dataset), fixture_model, FIXTURE_CFG)
    assert report.per_k[1] >= 75.0  # small fixture; the acceptance suite runs the full one
    assert set(report.per_class) <= set(fixture_dataset.split.unseen_classes)


def test_each_method_trains(saved, fixture_dataset):
    for method in ("lle", "eszsl", "sae"):
        cfg = RunConfig(
            embedding="attr", method=method, epochs=30, learning_rate=0.5, seed=1, repeats=1
        )
        model = train_from_config(seen_view(saved, fixture_dataset, cfg), cfg)
        report = evaluate(candidate_view(saved, fixture_dataset, cfg), model, cfg)
        assert set(report.per_k) == {1, 2, 5}


def test_hand_stream_must_cover_dataset(saved, fixture_dataset):
    cfg = RunConfig(use_hand=True, embedding="attr", epochs=1)
    for roles in [(Role.SEEN,), (Role.CANDIDATES,), SWEEP_ROLES]:
        with pytest.raises(MissingHandStream, match="dataset-wide"):
            saved.view(fixture_dataset, cfg, roles)


def test_mixed_widths_raise_dimension_mismatch(saved):
    samples = (
        make_sample("s0", "c", [[1.0, 2.0]]),
        make_sample("s1", "c", [[1.0, 2.0, 3.0]]),
    )
    split = SplitConfig(frozenset({"c"}), frozenset(), frozenset(), SplitMode.ZSL)
    dataset = Dataset((make_descriptor("c", [1.0]),), samples, split, attribute_count=1)
    with pytest.raises(DimensionMismatch, match=r"samples disagree on embedded width: \[2, 3\]"):
        saved.view(dataset, RunConfig(), (Role.SEEN,))


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
    """A command's load gives each role's reference_stack, byte for byte, from every layout of the dataset.

    From the pack, with the pack's index deleted (the manifest parsed), and
    in the CSV layout, also with one CSV edited after it was written.
    """
    cfg = RunConfig(aggregator=aggregator, tsm_weights=weights, use_hand=use_hand)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_dataset(dataset, Path(tmp) / "packed")
        _assert_command_loads_equal_the_reference_stacks(manifest, dataset, cfg)
        manifest.with_suffix(".pack.json").unlink()
        _assert_command_loads_equal_the_reference_stacks(manifest, dataset, cfg)
        manifest = write_csv_layout(dataset, Path(tmp) / "csv")
        _assert_command_loads_equal_the_reference_stacks(manifest, dataset, cfg)
        edited = manifest.parent / json.loads(manifest.read_text())["samples"][0]["body"]
        first = dataset.samples[0]
        body = first.body.data * 0.5 + 1.0
        edited.write_text(csv_text(body), encoding="utf-8")
        assert load_dataset(manifest).samples[0].body.data.tobytes() == body.tobytes()
        streams = {**first.sequences, Stream.BODY: replace(first.body, data=body)}
        dataset = replace(dataset, samples=(replace(first, sequences=streams), *dataset.samples[1:]))
        _assert_command_loads_equal_the_reference_stacks(manifest, dataset, cfg)


# the roles each command loads: train, predict/eval/analyze, sweep and baseline; every role; and two out of order
COMMAND_ROLE_SETS = [(Role.SEEN,), (Role.CANDIDATES,), SWEEP_ROLES, (), tuple(Role), (Role.CANDIDATES, Role.SEEN)]


def _classes_bits(classes) -> list:
    return [(c.class_id, c.name, c.attributes.tobytes(), c.text.tobytes()) for c in classes]


def _view_bits(build) -> tuple:
    """Every byte of the view build() returns, or the type and message of the error it raises."""
    try:
        view = build()
    except ZslSignError as exc:
        return type(exc), str(exc)
    stacks = [
        (role, stack.sample_ids, stack.labels, stack.features.shape, stack.features.tobytes(),
         _classes_bits(stack.classes))
        for role, stack in view.stacks.items()
    ]
    return stacks, view.split


def _reference_bits(dataset: Dataset, cfg: RunConfig, roles) -> tuple:
    """What _view_bits must give of a load of dataset: each role's reference_stack, or the missing hand stream.

    The datasets of _role_datasets have samples in every role and one width per stream.
    """
    without_hand = [s.sample_id for s in dataset.samples if Stream.HAND not in s.sequences]
    if cfg.use_hand and without_hand:
        message = f"hand stream disabled dataset-wide: sample {without_hand[0]!r} (at least) has no hand sequence"
        return MissingHandStream, message
    classes = {c.class_id: c for c in dataset.classes}
    stacks = []
    for role in roles:
        class_ids = role.class_ids(dataset.split)
        ids, features, labels = reference_stack([s for s in dataset.samples if s.class_id in class_ids], cfg)
        stacks.append(
            (role, ids, labels, features.shape, features.tobytes(), _classes_bits(classes[c] for c in class_ids))
        )
    return stacks, dataset.split


def _assert_command_loads_equal_the_reference_stacks(manifest, dataset: Dataset, cfg: RunConfig) -> None:
    cfg = replace(cfg, manifest=str(manifest))
    for roles in COMMAND_ROLE_SETS:
        assert _view_bits(lambda: load_embedded(cfg, roles)) == _reference_bits(dataset, cfg, roles), roles


def _without_role_samples(dataset: Dataset, class_ids) -> Dataset:
    samples = tuple(s for s in dataset.samples if s.class_id not in class_ids)
    return Dataset(dataset.classes, samples, dataset.split, dataset.attribute_count)


def test_a_role_without_samples_is_a_typed_error_naming_it(saved, fixture_dataset):
    split = fixture_dataset.split
    no_seen = _without_role_samples(fixture_dataset, split.seen_classes)
    with pytest.raises(DegenerateData, match="^no seen samples to train on$"):
        saved.view(no_seen, FIXTURE_CFG, (Role.SEEN,))
    no_validation = _without_role_samples(fixture_dataset, split.validation_classes)
    with pytest.raises(EmptyEvaluationSet, match="^no validation samples to evaluate$"):
        saved.view(no_validation, FIXTURE_CFG, SWEEP_ROLES)
    no_unseen = _without_role_samples(fixture_dataset, split.unseen_classes)
    with pytest.raises(EmptyEvaluationSet, match="^no candidate samples to evaluate$"):
        saved.view(no_unseen, FIXTURE_CFG, (Role.CANDIDATES,))
    # each dataset still embeds the roles that have samples
    assert saved.view(no_seen, FIXTURE_CFG, (Role.VALIDATION, Role.CANDIDATES)).stacks
    assert saved.view(no_unseen, FIXTURE_CFG, SWEEP_ROLES).stacks
    # a split without validation classes keeps its own message
    no_validation_classes = replace(fixture_dataset, split=replace(split, validation_classes=frozenset()))
    with pytest.raises(ValueError, match="no validation classes"):
        saved.view(no_validation_classes, FIXTURE_CFG, SWEEP_ROLES)


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


def test_a_view_refuses_a_role_it_did_not_embed(saved, fixture_dataset, fixture_model):
    view = seen_view(saved, fixture_dataset)
    with pytest.raises(ValueError, match="candidate samples were not embedded"):
        evaluate(view, fixture_model, FIXTURE_CFG)
    with pytest.raises(ValueError, match="validation samples were not embedded"):
        sweep_text_dim(view, FIXTURE_CFG, values=[4])


def test_validation_top1_uses_validation_classes(saved, fixture_dataset, fixture_model):
    score = validation_top1(saved, fixture_dataset, fixture_model, FIXTURE_CFG)
    assert 0.0 <= score <= 100.0


def test_sweep_bypass_value_matches_no_reduction_run(saved, fixture_dataset):
    cfg = FIXTURE_CFG
    rows = sweep_text_dim(sweep_view(saved, fixture_dataset), cfg, values=[2, 4])
    assert [r[0] for r in rows] == [2, 4]
    # d_t == text_dim runs without a reduction matrix; cross-check one repeat
    model = train_from_config(seen_view(saved, fixture_dataset), replace(cfg, seed=cfg.seed))
    assert model.M is None  # d_t=4 equals the raw text width: identity bypass
    direct = validation_top1(saved, fixture_dataset, model, cfg)
    repeat_scores = [
        validation_top1(
            saved,
            fixture_dataset,
            train_from_config(seen_view(saved, fixture_dataset), replace(cfg, seed=cfg.seed + r)),
            cfg,
        )
        for r in range(cfg.repeats)
    ]
    assert rows[1][1] == pytest.approx(float(np.mean(repeat_scores)))
    assert direct == repeat_scores[0]


def test_sweep_beats_random_baseline(saved, fixture_dataset):
    rows = sweep_text_dim(sweep_view(saved, fixture_dataset), FIXTURE_CFG, values=[2, 4])
    n_val = len(fixture_dataset.split.validation_classes)
    random_top1 = 100.0 / n_val
    for _value, mean, _std in rows:
        assert mean > random_top1


def test_sweep_rejects_attr_mode(saved, fixture_dataset):
    cfg = RunConfig(embedding="attr")
    with pytest.raises(ValueError, match="text-bearing"):
        sweep_text_dim(sweep_view(saved, fixture_dataset, cfg), cfg, values=[2])


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
        ("tsm_weights", 1.0), ("lam", float("nan")), ("gamma", float("inf")), ("lam_sae", float("-inf")),
        ("tsm_weights", [1, float("nan"), 1]),  # json reads NaN and Infinity as floats; they are no JSON numbers
    ]
    for key, value in wrong:
        with pytest.raises(ParseError, match=f"^key '{key}' must be "):
            RunConfig.from_dict({key: value})
    with pytest.raises(ParseError, match="must be a JSON object, got list"):
        RunConfig.from_dict([])


@pytest.mark.parametrize(
    "cfg, sweep_values, message",
    [
        (RunConfig(d_t=0), (), "d_t must be >= 1, got 0"),
        (RunConfig(embedding="combined"), (8, 0), "d_t must be >= 1, got 0"),
        (RunConfig(embedding="attr", d_t=0), (8,), "sweeping d_t needs a text-bearing embedding mode"),
        (RunConfig(aggregator="tsm", tsm_weights=(1.0, 2.0)), (), "shift kernel needs exactly 3 weights, got 2"),
        (RunConfig(epochs=0), (), "epochs must be >= 1, got 0"),
        (RunConfig(seed=-1), (), "seed must be >= 0, got -1"),
        (RunConfig(lam=float("nan")), (), "lam must be finite, got nan"),
        (RunConfig(method="eszsl", lam=0.0), (), "lam must be > 0, got 0.0"),
        (RunConfig(method="eszsl", gamma=float("inf")), (), "gamma must be finite, got inf"),
        (RunConfig(method="sae", lam_sae=-1.0), (), "lam_sae must be > 0, got -1.0"),
        (RunConfig(ks=(1, 1, 2)), (), "ks must not repeat a value, got [1, 1, 2]"),
        (RunConfig(embedding="combined"), (4, 8, 4), "sweep values must not repeat, got [4, 8, 4]"),
    ],
)
def test_run_config_check_refuses_with_the_owners_message(cfg, sweep_values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cfg.check(sweep_values)


def test_run_config_check_holds_each_method_to_its_own_hyperparameters():
    RunConfig().check()
    RunConfig(embedding="text").check((1, 8))
    RunConfig(method="lle", lam=0.0, gamma=-1.0, lam_sae=0.0).check()  # lle takes lam >= 0 and no gamma or lam_sae
    RunConfig(method="eszsl", learning_rate=-1.0, epochs=0, seed=-1, lam_sae=0.0).check()  # descent settings unused
    RunConfig(method="sae", lam=-1.0, gamma=0.0).check()


# (method, float key it does not read): each method against every key of the others
_UNREAD_KEYS = [
    ("lle", "gamma"), ("lle", "lam_sae"),
    ("eszsl", "learning_rate"), ("eszsl", "init_scale"), ("eszsl", "lam_sae"),
    ("sae", "lam"), ("sae", "learning_rate"), ("sae", "init_scale"), ("sae", "gamma"),
]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("method, key", _UNREAD_KEYS, ids=[f"{m}-{k}" for m, k in _UNREAD_KEYS])
def test_run_config_check_refuses_a_non_finite_key_the_method_does_not_read(method, key, value):
    # effective_config.json echoes every key, and it is strict JSON
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
        RunConfig(method=method, **{key: value}).check()


def _count_sample_reads(monkeypatch) -> list:
    """One entry per DatasetReader.read_samples call from now on: a load that reads its samples."""
    read = []
    read_samples = experiment.DatasetReader.read_samples
    monkeypatch.setattr(
        experiment.DatasetReader, "read_samples", lambda self, visit: read.append(visit) or read_samples(self, visit)
    )
    return read


def test_load_embedded_refuses_a_closed_form_off_the_text_width_before_any_sample(tmp_path, monkeypatch):
    manifest = save_dataset(generate(SynthSpec(samples_per_class=2, seed=0))[0], tmp_path / "data")  # text width 8
    read = _count_sample_reads(monkeypatch)
    for method in ("eszsl", "sae"):
        cfg = RunConfig(manifest=str(manifest), method=method, embedding="text")
        with pytest.raises(MissingReduction, match=r"^mode 'text' with d_t=4 needs a 8x4 reduction matrix$"):
            load_embedded(cfg, (Role.SEEN,), (8, 4))
        load_embedded(cfg, (Role.SEEN,), (8,))  # at the text width
        load_embedded(cfg, (Role.CANDIDATES,))  # no fit: the model's mode is the one scored
    load_embedded(RunConfig(manifest=str(manifest), embedding="text"), (Role.SEEN,), (4,))  # lle trains M
    assert len(read) == 5  # the refused loads read no sample


@pytest.mark.parametrize("field, violation", [("text", "classes disagree on text dimensionality"),
                                              ("attributes", "attributes, expected 12")])
def test_a_closed_form_leaves_seen_classes_of_two_widths_to_the_load(tmp_path, monkeypatch, field, violation):
    manifest = save_dataset(generate(SynthSpec(samples_per_class=2, seed=0))[0], tmp_path / "data")
    doc = json.loads(manifest.read_text())
    seen = doc["split"]["seen"][0]
    entry = next(c for c in doc["classes"] if c["id"] == seen)
    entry[field] = entry[field][:-1]
    manifest.write_text(json.dumps(doc))
    read = _count_sample_reads(monkeypatch)
    cfg = RunConfig(manifest=str(manifest), method="eszsl", embedding="combined", d_t=4)
    with pytest.raises(InvariantViolation, match=violation):  # as without the closed form's text check
        load_embedded(cfg, (Role.SEEN,), (4,))
    assert len(read) == 1


def test_candidate_descriptors_sorted(saved, fixture_dataset):
    ids = [c.class_id for c in candidates_of(saved, fixture_dataset).classes]
    assert ids == sorted(ids) == candidate_class_ids(fixture_dataset.split)


def test_two_stream_training_when_hand_covered(saved):
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
    model = train_from_config(seen_view(saved, dataset, cfg), cfg)
    assert model.W.shape[0] == 5 + 2  # body width + hand width


def test_run_config_validates_ks_and_repeats():
    # a value of the right type but out of range is refused by check, not at construction, so a flag can override it
    cases = [
        ({"ks": ()}, "ks must be nonempty positive integers, got []"),
        ({"ks": (0,)}, "ks must be nonempty positive integers, got [0]"),
        ({"repeats": 0}, "repeats must be >= 1, got 0"),
    ]
    for fields, message in cases:
        cfg = RunConfig.from_dict({key: list(value) if key == "ks" else value for key, value in fields.items()})
        assert cfg == RunConfig(**fields)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cfg.check()
        replace(cfg, ks=(1,), repeats=1).check()
    with pytest.raises(ValueError, match=r"^repeats must be >= 1, got 0$"):
        train_repeats(None, RunConfig(repeats=0))  # refused before the data is looked at, not an empty list


def test_train_config_validation():
    from zslsign.models import Method, check_hyperparameters

    lle = RunConfig().hyperparameters()
    with pytest.raises(ValueError):
        check_hyperparameters(Method.LLE, **dict(lle, lam=-1.0))
    with pytest.raises(ValueError):
        check_hyperparameters(Method.LLE, **dict(lle, learning_rate=0.0))
    with pytest.raises(ValueError):
        check_hyperparameters(Method.LLE, **dict(lle, epochs=0))
    with pytest.raises(ValueError):
        check_hyperparameters(Method.LLE, **dict(lle, init_scale=0.0))


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
def test_sweep_rows_do_not_depend_on_the_worker_count(saved, fixture_dataset, monkeypatch, method):
    cfg = replace(FIXTURE_CFG, method=method, epochs=60, repeats=3)
    values = [2, 3, 4] if method == "lle" else [4]  # the closed forms need d_t == text width
    rows = {}
    for cpus in (1, 2):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        rows[cpus] = sweep_text_dim(sweep_view(saved, fixture_dataset, cfg), cfg, values=values)
    assert rows[1] == rows[2]
    assert [r[0] for r in rows[1]] == values


@needs_fork
def test_train_repeats_do_not_depend_on_the_worker_count(saved, fixture_dataset, monkeypatch):
    cfg = replace(FIXTURE_CFG, epochs=40, repeats=3)
    models = {}
    for cpus in (1, 2):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        models[cpus] = train_repeats(seen_view(saved, fixture_dataset, cfg), cfg)
    for one, two, r in zip(models[1], models[2], range(cfg.repeats)):
        assert one.seed == two.seed == cfg.seed + r
        assert one.W.tobytes() == two.W.tobytes()
        assert one.M.tobytes() == two.M.tobytes() if one.M is not None else two.M is None
        assert one.loss_history == two.loss_history and one.final_loss == two.final_loss
    # each repeat is the model train_from_config gives for its seed
    alone = train_from_config(seen_view(saved, fixture_dataset, cfg), replace(cfg, seed=cfg.seed + 1))
    assert alone.W.tobytes() == models[2][1].W.tobytes()
    assert alone.loss_history == models[2][1].loss_history


@pytest.mark.parametrize("method, trainer", [("eszsl", "train_eszsl"), ("sae", "train_sae")])
def test_sweep_fits_a_closed_form_once_per_width(saved, fixture_dataset, monkeypatch, method, trainer):
    calls = []
    original = getattr(experiment, trainer)
    monkeypatch.setattr(experiment, trainer, lambda *a, **kw: calls.append(1) or original(*a, **kw))
    monkeypatch.setattr(pool, "usable_cpus", lambda: 1)  # every fit in this process, so counted
    cfg = replace(FIXTURE_CFG, method=method, repeats=3)
    view = sweep_view(saved, fixture_dataset, cfg)
    with pytest.raises(ValueError, match=r"^sweep values must not repeat, got \[4, 4\]$"):
        sweep_text_dim(view, cfg, values=[4, 4])  # refused before any fit
    assert calls == []
    rows = sweep_text_dim(view, cfg, values=[4])  # the closed forms fit at the text width only
    assert len(calls) == 1
    single = validation_top1(saved, fixture_dataset, train_from_config(seen_view(saved, fixture_dataset, cfg), cfg), cfg)
    # every repeat's score still enters the mean and the stddev, as three trainings' would
    assert rows == [(4, float(np.mean([single] * 3)), float(np.std([single] * 3, ddof=1)))]
