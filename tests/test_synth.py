import numpy as np
import pytest

from zslsign.data import SplitMode, load_dataset, save_dataset
from zslsign.synth import SynthSpec, box_muller, generate
from zslsign.temporal import AggregatorSpec, aggregate


def small_spec(**overrides) -> SynthSpec:
    base = dict(
        n_classes=8,
        n_seen=4,
        n_unseen=3,
        attribute_count=5,
        text_dim=4,
        samples_per_class=3,
        snippets=4,
        stream_width=6,
        noise_sigma=0.02,
        seed=123,
    )
    base.update(overrides)
    return SynthSpec(**base)


def test_generated_dataset_is_valid(tmp_path):
    dataset, planted = generate(small_spec())
    load_dataset(save_dataset(dataset, tmp_path))  # the load of its save checks every invariant
    assert planted.shape == (6, 9)
    assert len(dataset.classes) == 8
    assert len(dataset.samples) == 24


def test_split_sizes_and_disjointness():
    dataset, _ = generate(small_spec())
    split = dataset.split
    assert len(split.seen_classes) == 4
    assert len(split.unseen_classes) == 3
    assert len(split.validation_classes) == 1
    assert not split.seen_classes & split.unseen_classes
    assert not split.seen_classes & split.validation_classes
    assert not split.validation_classes & split.unseen_classes


def test_same_seed_gives_byte_identical_output(tmp_path):
    for sub in ("a", "b"):
        dataset, _ = generate(small_spec())
        save_dataset(dataset, tmp_path / sub)
    a, b = tmp_path / "a", tmp_path / "b"
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert {"manifest.json", "manifest.pack.npy", "manifest.pack.json"} <= {str(f) for f in files}
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for f in files:
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_different_seed_changes_output():
    d1, _ = generate(small_spec())
    d2, _ = generate(small_spec(seed=124))
    assert not np.array_equal(d1.samples[0].body.data, d2.samples[0].body.data)


def test_zero_noise_plants_exact_structure():
    dataset, planted = generate(small_spec(noise_sigma=0.0))
    for sample in dataset.samples:
        descriptor = next(c for c in dataset.classes if c.class_id == sample.class_id)
        rho = np.concatenate([descriptor.attributes, descriptor.text])
        pooled = aggregate(sample.body.data, AggregatorSpec())
        assert np.max(np.abs(pooled - planted @ rho)) < 1e-12
    # distinct class embeddings -> a zero-error linear scorer exists by construction
    stacked = [np.concatenate([c.attributes, c.text]) for c in dataset.classes]
    assert len({tuple(v) for v in stacked}) == len(stacked)


def test_noisy_means_stay_centered_on_target():
    spec = small_spec(noise_sigma=0.05, samples_per_class=40, n_classes=4, n_seen=2, n_unseen=2)
    dataset, planted = generate(spec)
    descriptor = dataset.classes[0]
    rho = np.concatenate([descriptor.attributes, descriptor.text])
    samples = [s for s in dataset.samples if s.class_id == descriptor.class_id]
    assert len(samples) == 40
    pooled = np.stack([aggregate(s.body.data, AggregatorSpec()) for s in samples])
    assert np.max(np.abs(pooled.mean(axis=0) - planted @ rho)) < 5 * 0.05 / np.sqrt(40)


def test_round_trips_through_manifest(tmp_path):
    dataset, _ = generate(small_spec())
    manifest = save_dataset(dataset, tmp_path)
    reloaded = load_dataset(manifest)
    again = save_dataset(reloaded, tmp_path / "again")
    assert again.read_bytes() == manifest.read_bytes()
    load_dataset(again)
    assert len(reloaded.samples) == len(dataset.samples)
    pairs = zip(
        sorted(dataset.samples, key=lambda s: s.sample_id),
        sorted(reloaded.samples, key=lambda s: s.sample_id),
    )
    for a, b in pairs:
        assert np.array_equal(a.body.data, b.body.data)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(n_seen=6, n_unseen=3)  # 9 > 8 classes
    with pytest.raises(ValueError):
        small_spec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        small_spec(samples_per_class=0)
    # synth_spec.json is strict JSON
    for key in ("noise_sigma", "planted_map_scale"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
                small_spec(**{key: value})


def test_gzsl_split_mode_flag():
    dataset, _ = generate(small_spec(split_mode=SplitMode.GZSL))
    assert dataset.split.mode is SplitMode.GZSL


def test_box_muller_moments():
    rng = np.random.default_rng(0)
    z = box_muller(rng, (200000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert box_muller(np.random.default_rng(1), (3, 5)).shape == (3, 5)
