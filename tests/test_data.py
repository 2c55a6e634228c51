import json
import os
import re
import subprocess
import sys
import tempfile
import zlib
from collections import Counter
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zslsign import data as data_module
from zslsign import pool
from zslsign.data import (
    TEXT_NORM_TOL,
    Dataset,
    DatasetReader,
    SplitConfig,
    SplitMode,
    Stream,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from zslsign.errors import InvariantViolation, MissingFile, ParseError, ZslSignError
from zslsign.experiment import Role, RunConfig, embed_dataset, load_embedded

from conftest import make_descriptor, make_sample, small_manifest, write_feature_file, write_manifest


def test_load_small_manifest(tmp_path):
    dataset = load_dataset(small_manifest(tmp_path))
    assert len(dataset.classes) == 3
    assert len(dataset.samples) == 6
    assert dataset.attribute_count == 5
    assert validate_dataset(dataset) == []


def test_zsl_split_overlap_rejected(tmp_path):
    path = small_manifest(
        tmp_path, split={"mode": "zsl", "seen": ["c0", "c2"], "validation": ["c1"], "unseen": ["c2"]}
    )
    _assert_load_error(path, InvariantViolation, "c2")


def test_gzsl_split_overlap_is_not_a_zsl_violation(tmp_path):
    path = small_manifest(
        tmp_path, split={"mode": "gzsl", "seen": ["c0", "c2"], "validation": ["c1"], "unseen": ["c2"]}
    )
    dataset = load_dataset(path)
    assert dataset.split.mode is SplitMode.GZSL


def test_large_split_shape(tmp_path):
    rng = np.random.default_rng(0)
    ids = [f"c{i:03d}" for i in range(250)]
    classes = [
        {"id": cid, "name": cid, "attributes": [1] * 53, "text": [1.0, 0.0]} for cid in ids
    ]
    rel = write_feature_file(tmp_path / "features" / "s0.csv", rng.normal(size=(2, 3)))
    samples = [{"id": "s0", "class_id": ids[0], "body": f"features/{rel}"}]
    manifest = {
        "attribute_count": 53,
        "classes": classes,
        "samples": samples,
        "split": {
            "mode": "zsl",
            "seen": ids[:170],
            "validation": ids[170:200],
            "unseen": ids[200:250],
        },
    }
    dataset = load_dataset(write_manifest(tmp_path, manifest))
    assert len(dataset.split.seen_classes) == 170
    assert len(dataset.split.validation_classes) == 30
    assert len(dataset.split.unseen_classes) == 50


def test_missing_manifest(tmp_path):
    _assert_load_error(tmp_path / "nope.json", MissingFile, "not found")


def test_missing_feature_file(tmp_path):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["samples"][0]["body"] = "features/gone.csv"
    write_manifest(tmp_path, manifest)
    _assert_load_error(path, MissingFile, "not found")


def test_feature_path_naming_a_directory_is_a_missing_file(tmp_path):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["samples"][0]["body"] = "features"
    write_manifest(tmp_path, manifest)
    _assert_load_error(path, MissingFile, "sample 's0' body: feature file not found")


_LOAD_BOTH_WAYS = """
import sys
from zslsign.data import load_dataset
from zslsign.errors import MissingFile
from zslsign.experiment import Role, RunConfig, load_embedded
for load in (load_dataset, lambda manifest: load_embedded(RunConfig(manifest=manifest), tuple(Role))):
    try:
        load(sys.argv[1])
    except MissingFile as exc:
        print(exc)
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="the platform has no FIFOs")
def test_feature_path_naming_a_fifo_is_a_missing_file_and_never_blocks(tmp_path):
    # with and without the pack; in a child with a deadline, since an open that waits for a writer never returns
    manifest = _packed_copy(tmp_path)
    fifo = manifest.parent / "features" / "s0_body.csv"
    fifo.unlink()
    os.mkfifo(fifo)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for with_pack in (True, False):
        if not with_pack:
            _drop_pack(manifest)
        child = subprocess.run(
            [sys.executable, "-c", _LOAD_BOTH_WAYS, str(manifest)], env=env, capture_output=True, text=True, timeout=60
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines() == [f"sample 's0' body: feature file not found: {fifo}"] * 2


def test_feature_path_with_a_trailing_slash_is_a_missing_file_naming_the_file(tmp_path):
    # a path is opened as written, and "s0.csv/" names a directory, which the file s0.csv is not
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["samples"][0]["body"] += "/"
    write_manifest(tmp_path, manifest)
    named = tmp_path / "features" / "s0.csv"
    assert named.is_file()
    _assert_load_error(path, MissingFile, "^" + re.escape(f"sample 's0' body: feature file not found: {named}") + "$")


def test_parse_error_names_line_and_field(tmp_path):
    path = small_manifest(tmp_path)
    (tmp_path / "features" / "s0.csv").write_text("1.0,2.0,3.0\n1.0,oops,3.0\n", encoding="utf-8")
    _assert_load_error(path, ParseError, r"line 2 field 2")


def test_ragged_rows_rejected(tmp_path):
    path = small_manifest(tmp_path)
    (tmp_path / "features" / "s0.csv").write_text("1.0,2.0,3.0\n1.0,2.0\n", encoding="utf-8")
    _assert_load_error(path, InvariantViolation, "ragged")


def test_crlf_feature_files_accepted(tmp_path):
    path = small_manifest(tmp_path)
    (tmp_path / "features" / "s0.csv").write_bytes(b"1.0,2.0,3.0\r\n4.0,5.0,6.0\r\n")
    dataset = load_dataset(path)
    body = next(s for s in dataset.samples if s.sample_id == "s0").body
    assert np.array_equal(body.data, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_text_file_reference(tmp_path):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    write_feature_file(tmp_path / "text_c0.csv", [[3.0, 4.0, 0.0, 0.0]])
    del manifest["classes"][0]["text"]
    manifest["classes"][0]["text_file"] = "text_c0.csv"
    write_manifest(tmp_path, manifest)
    dataset = load_dataset(path)
    text = dataset.classes_by_id["c0"].text
    assert np.allclose(text, [0.6, 0.8, 0.0, 0.0])  # normalized on load


def test_text_file_of_more_than_one_row_rejected(tmp_path, monkeypatch):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    rows = np.array([[3.0, 4.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    write_feature_file(tmp_path / "text_c1.csv", rows)
    del manifest["classes"][1]["text"]
    manifest["classes"][1]["text_file"] = "text_c1.csv"
    write_manifest(tmp_path, manifest)
    expected = r"^class 'c1': text file text_c1.csv has 2 rows, expected 1$"
    _assert_load_error(path, InvariantViolation, expected)
    # the same when the rows come from a pack that matches the file
    raw = (tmp_path / "text_c1.csv").read_bytes()
    data_module._FeaturePack.write(path, {"text_c1.csv": (rows, len(raw), zlib.crc32(raw))})
    monkeypatch.setattr(data_module, "_parse_feature_matrix", _no_parse)
    _assert_load_error(path, InvariantViolation, expected)


def test_text_and_text_file_together_rejected(tmp_path):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["classes"][0]["text_file"] = "whatever.csv"
    write_manifest(tmp_path, manifest)
    _assert_load_error(path, ParseError, "either")


def test_missing_body_field_rejected(tmp_path):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    del manifest["samples"][0]["body"]
    write_manifest(tmp_path, manifest)
    _assert_load_error(path, ParseError, "body")


def _set(section: str, key: str, value):
    def change(manifest):
        manifest[section][0][key] = value

    return change


@pytest.mark.parametrize(
    "change, expected",
    [
        pytest.param(_set("samples", "body", 5), r"sample 's0': field 'body' must be a relative file path", id="body-int"),
        pytest.param(_set("samples", "hand", ["a.csv"]), r"sample 's0': field 'hand'", id="hand-list"),
        pytest.param(_set("classes", "attributes", ["x"] * 5), r"class 'c0': field 'attributes'", id="attributes-text"),
        pytest.param(_set("classes", "attributes", 1), r"class 'c0': field 'attributes'", id="attributes-scalar"),
        pytest.param(_set("classes", "attributes", [[1, 0]] * 5), r"class 'c0': field 'attributes'", id="attributes-2d"),
        pytest.param(_set("classes", "text", [[0.6, 0.8]] * 2), r"class 'c0': field 'text'", id="text-2d"),
        pytest.param(_set("classes", "text", [0.6, [0.8]]), r"class 'c0': field 'text'", id="text-ragged"),
        pytest.param(_set("classes", "text", [0.6, None]), r"class 'c0': field 'text'", id="text-null-entry"),
        pytest.param(_set("classes", "text", {"a": 1.0}), r"class 'c0': field 'text'", id="text-object"),
        pytest.param(lambda m: m.update(classes={"c0": {}}), r"'classes': expected a list of objects", id="classes-object"),
        pytest.param(lambda m: m["samples"].append(5), r"'samples': expected a list of objects", id="sample-int"),
    ],
)
def test_malformed_fields_raise_parse_error(tmp_path, change, expected):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    change(manifest)
    write_manifest(tmp_path, manifest)
    _assert_load_error(path, ParseError, expected)


def test_malformed_text_file_field_raises_parse_error(tmp_path):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    del manifest["classes"][0]["text"]
    manifest["classes"][0]["text_file"] = 5
    write_manifest(tmp_path, manifest)
    _assert_load_error(path, ParseError, r"class 'c0': field 'text_file' must be a relative file path")


@pytest.mark.parametrize("split", [{"mode": "zs"}, {"seen": ["c0"]}, 5, ["mode"], {"mode": "zsl", "seen": [["c0"]]}])
def test_split_errors_come_with_the_manifest_before_the_samples(tmp_path, split):
    path = small_manifest(tmp_path, split=split)
    error = _load_error(path)
    assert error[0] is ParseError
    with pytest.raises(ParseError) as info:  # the reader raises it before it reads a sample
        DatasetReader(path)
    assert str(info.value) == error[1]
    (tmp_path / "features" / "s5.csv").write_text("1.0,2.0,3.0\nnan,2.0,3.0\n", encoding="utf-8")
    assert _load_error(path) == error  # the non-finite row is an invariant: it comes after the split
    (tmp_path / "features" / "s5.csv").unlink()
    assert _load_error(path) == error  # and so does a sample's missing file


def test_hand_length_mismatch_rejected(tmp_path):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    rel = write_feature_file(tmp_path / "features" / "h0.csv", np.ones((2, 3)))  # body has 4 rows
    manifest["samples"][0]["hand"] = f"features/{rel}"
    write_manifest(tmp_path, manifest)
    _assert_load_error(path, InvariantViolation, "hand length")


def test_zero_text_vector_rejected(tmp_path):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["classes"][0]["text"] = [0.0, 0.0, 0.0, 0.0]
    write_manifest(tmp_path, manifest)
    _assert_load_error(path, InvariantViolation, "norm")


def test_validate_reports_nan_row():
    sample = make_sample("s1", "c1", [[1.0, 2.0], [np.nan, 4.0], [5.0, 6.0]])
    dataset = Dataset(
        (make_descriptor("c1", [0, 1, 0]),),
        (sample,),
        SplitConfig(frozenset(), frozenset(), frozenset(), SplitMode.ZSL),
        attribute_count=3,
    )
    violations = validate_dataset(dataset)
    assert "sample 's1' body row 1 non-finite" in violations


def test_validate_reports_non_binary_attribute():
    dataset = Dataset(
        (make_descriptor("c3", [0, 1, 0.5, np.nan, -0.0, 1]),),
        (),
        SplitConfig(frozenset(), frozenset(), frozenset(), SplitMode.ZSL),
        attribute_count=6,
    )
    violations = validate_dataset(dataset)
    assert violations == ["class 'c3' attribute 2 not binary", "class 'c3' attribute 3 not binary"]


def test_validate_reports_duplicates_and_unknown_refs():
    c = make_descriptor("c1", [0, 1])
    s = make_sample("s1", "ghost", [[1.0]])
    dataset = Dataset(
        (c, c),
        (s,),
        SplitConfig(frozenset({"phantom"}), frozenset(), frozenset(), SplitMode.ZSL),
        attribute_count=2,
    )
    violations = validate_dataset(dataset)
    assert any("duplicated" in v for v in violations)
    assert any("'ghost'" in v for v in violations)
    assert any("'phantom'" in v for v in violations)


def test_validate_clean_dataset_is_empty(tiny_dataset):
    assert validate_dataset(tiny_dataset) == []


def test_round_trip_is_bit_exact(tmp_path):
    first = load_dataset(small_manifest(tmp_path / "orig"))
    saved = save_dataset(first, tmp_path / "copy")
    second = load_dataset(saved)
    assert [c.class_id for c in second.classes] == [c.class_id for c in first.classes]
    for a, b in zip(first.classes, second.classes):
        assert np.array_equal(a.attributes, b.attributes)
        assert np.array_equal(a.text, b.text)
    for a, b in zip(
        sorted(first.samples, key=lambda s: s.sample_id),
        sorted(second.samples, key=lambda s: s.sample_id),
    ):
        assert np.array_equal(a.body.data, b.body.data)
    assert first.split == second.split

    # and a second save reproduces the exact same bytes
    save_dataset(second, tmp_path / "copy2")
    assert (tmp_path / "copy2" / "manifest.json").read_bytes() == saved.read_bytes()


def test_loaded_text_vectors_are_unit_norm(tmp_path):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["classes"][0]["text"] = [2.0, 0.0, 0.0, 0.0]
    write_manifest(tmp_path, manifest)
    dataset = load_dataset(path)
    assert np.array_equal(dataset.classes_by_id["c0"].text, [1.0, 0.0, 0.0, 0.0])


def test_hand_coverage_flag(tiny_dataset):
    assert tiny_dataset.has_full_hand_coverage is False  # body-only samples
    with_hand = make_sample("h", "c1", [[1.0, 2.0]], hand=[[3.0]])
    dataset = Dataset(
        tiny_dataset.classes, (with_hand,), tiny_dataset.split, tiny_dataset.attribute_count
    )
    assert dataset.has_full_hand_coverage is True


def test_sequences_are_immutable(tiny_dataset):
    body = tiny_dataset.samples[0].body.data
    with pytest.raises(ValueError):
        body[0, 0] = 99.0


# ---------------------------------------------------------------------------
# feature pack
# ---------------------------------------------------------------------------


def _packed_copy(tmp_path) -> Path:
    """The manifest of a small dataset saved with its pack."""
    return save_dataset(load_dataset(small_manifest(tmp_path / "orig")), tmp_path / "copy")


def _drop_pack(manifest: Path) -> None:
    manifest.with_suffix(".pack.npy").unlink()
    manifest.with_suffix(".pack.json").unlink()


def _features(dataset) -> dict:
    return {(s.sample_id, stream): seq.data for s in dataset.samples for stream, seq in s.sequences.items()}


def _classes(dataset) -> list:
    return [(c.class_id, c.name, c.attributes.tobytes(), c.text.shape, c.text.tobytes()) for c in dataset.classes]


def _assert_same_bits(a, b) -> None:
    fa, fb = _features(a), _features(b)
    assert fa.keys() == fb.keys()
    for key in fa:
        assert fa[key].shape == fb[key].shape, key
        assert fa[key].tobytes() == fb[key].tobytes(), key
    assert _classes(a) == _classes(b)
    assert (a.split, a.attribute_count) == (b.split, b.attribute_count)


def _command_load(manifest: Path):
    """A command's load: every role pooled as it is read, no Dataset built."""
    return load_embedded(RunConfig(manifest=str(manifest)), tuple(Role))


def _load_error(manifest: Path) -> tuple[type, str]:
    """The error of load_dataset, which a command's load raises too, with the same type and message."""
    errors = []
    for load in (load_dataset, _command_load):
        with pytest.raises(ZslSignError) as info:
            load(manifest)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    return errors[0]


def _assert_load_error(manifest: Path, kind: type, pattern: str) -> None:
    error, message = _load_error(manifest)
    assert issubclass(error, kind), (error, message)
    assert re.search(pattern, message), message


def _roles_with_samples(dataset) -> tuple:
    return tuple(r for r in Role if dataset.samples_of(set(r.class_ids(dataset.split))))


def _stack_bits(stack) -> tuple:
    classes = [(c.class_id, c.name, c.attributes.tobytes(), c.text.shape, c.text.tobytes()) for c in stack.classes]
    return stack.sample_ids, stack.labels, stack.features.shape, stack.features.tobytes(), classes


def _assert_loads(manifest: Path, reference) -> None:
    """load_dataset reads reference's bits from manifest, and a command's load pools them as embed_dataset does."""
    _assert_same_bits(load_dataset(manifest), reference)
    hand = reference.has_full_hand_coverage
    cfg = RunConfig(manifest=str(manifest), aggregator="tsm", tsm_weights=(0.5, 1.0, -2.0), use_hand=hand)
    roles = _roles_with_samples(reference)
    with np.errstate(over="ignore", invalid="ignore"):  # extreme frames pool to inf or nan, on both paths alike
        view = load_embedded(cfg, roles)
        expected = embed_dataset(reference, cfg, roles)
    assert list(view.stacks) == list(expected.stacks) == list(roles)
    for role in roles:
        assert _stack_bits(view.stack(role)) == _stack_bits(expected.stack(role)), role
    assert view.split == expected.split


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 1.7976931348623157e308]
_values = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_text_values = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1.0]), st.floats(-1.0, 1.0))


@st.composite
def _datasets(draw):
    """Valid one- or two-stream datasets over a fixed two-class schema."""
    two_streams = draw(st.booleans())
    n_samples = draw(st.integers(1, 3))
    body_cols = draw(st.integers(1, 3))
    hand_cols = draw(st.integers(1, 3))
    samples = []
    for j in range(n_samples):
        rows = draw(st.integers(1, 3))
        body = draw(st.lists(_values, min_size=rows * body_cols, max_size=rows * body_cols))
        hand = draw(st.lists(_values, min_size=rows * hand_cols, max_size=rows * hand_cols))
        samples.append(
            make_sample(
                f"s{j}",
                f"c{j % 2}",
                np.reshape(body, (rows, body_cols)),
                hand=np.reshape(hand, (rows, hand_cols)) if two_streams else None,
            )
        )
    text_dim = draw(st.integers(1, 4))
    classes = []
    for cid, attrs in (("c0", [0, 1]), ("c1", [1, 0])):
        text = np.array(draw(st.lists(_text_values, min_size=text_dim, max_size=text_dim)))
        norm = np.linalg.norm(text)
        assume(norm > 0)
        # a valid text vector is unit norm; dividing a tiny vector by its underflowed norm may miss that
        assume(abs(np.linalg.norm(text / norm) - 1.0) <= TEXT_NORM_TOL)
        classes.append(make_descriptor(cid, attrs, text / norm))
    split = SplitConfig(frozenset({"c0"}), frozenset(), frozenset({"c1"}), SplitMode.ZSL)
    return Dataset(tuple(classes), tuple(samples), split, attribute_count=2)


@settings(max_examples=40, deadline=None)
@given(_datasets())
def test_pack_loads_the_same_bits_as_the_csvs(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_dataset(dataset, tmp)
        _assert_loads(manifest, dataset)
        _drop_pack(manifest)
        _assert_loads(manifest, dataset)


def _no_parse(*args):
    raise AssertionError("a feature CSV was parsed although the pack matched it")


def test_intact_pack_replaces_every_feature_parse(tmp_path, monkeypatch):
    manifest = _packed_copy(tmp_path)
    reference = load_dataset(manifest)
    monkeypatch.setattr(data_module, "_parse_feature_matrix", _no_parse)
    _assert_loads(manifest, reference)


def test_chunked_checksums_match_the_pack(tmp_path, monkeypatch):
    # a CRC-32 carried across reads of a few bytes is the CRC-32 of the whole file
    manifest = _packed_copy(tmp_path)
    reference = load_dataset(manifest)
    monkeypatch.setattr(data_module, "_CRC_CHUNK", 7)
    monkeypatch.setattr(data_module, "_parse_feature_matrix", _no_parse)
    monkeypatch.setattr(data_module.json, "loads", _no_manifest_parse(manifest))
    _assert_loads(manifest, reference)


def test_an_intact_pack_costs_one_open_per_csv_and_no_parse(tmp_path, monkeypatch):
    # the I/O a load rests on: each feature CSV opened exactly once and never stat'ed by path (its length
    # comes from fstat of the open file), the manifest opened once for its CRC-32, the pack's index opened
    # once, one open of the pack's value file for every block, and no CSV parsed
    manifest = save_dataset(_save_case("hand"), tmp_path)
    samples = json.loads(manifest.read_text())["samples"]
    features = {os.path.normpath(tmp_path / s[stream]) for s in samples for stream in ("body", "hand")}
    assert len(features) == 24
    calls = {"open": [], "stat": []}

    def spy(name, real):
        def counted(path, *args, **kwargs):
            if not isinstance(path, int):  # a descriptor opened again is no new open of a path
                calls[name].append(os.path.normpath(path))
            return real(path, *args, **kwargs)

        return counted

    monkeypatch.setattr(os, "open", spy("open", os.open))
    monkeypatch.setattr(os, "stat", spy("stat", os.stat))
    monkeypatch.setattr(data_module, "open", spy("open", open), raising=False)
    monkeypatch.setattr(data_module, "_parse_feature_matrix", _no_parse)
    for load in (load_dataset, _command_load):
        calls["open"].clear()
        calls["stat"].clear()
        load(manifest)
        opened = Counter(calls["open"])
        pack = [str(manifest.with_suffix(suffix)) for suffix in (".pack.json", ".pack.npy")]
        assert opened == dict.fromkeys([*features, str(manifest), *pack], 1)
        assert features.isdisjoint(calls["stat"])


def _no_manifest_parse(manifest: Path):
    loads = json.loads
    raw = manifest.read_text(encoding="utf-8")

    def guarded(text, *args, **kwargs):
        assert (text.decode("utf-8") if isinstance(text, bytes) else text) != raw, "the manifest was parsed"
        return loads(text, *args, **kwargs)

    return guarded


def _packed_manifest(manifest: Path) -> dict | None:
    """What the pack saved with manifest gives as its content, the manifest opened as a load opens it."""
    fd, size = data_module.open_input(manifest, "manifest")
    try:
        with closing(data_module._FeaturePack.open(manifest)) as pack:
            return pack.manifest(fd, size)
    finally:
        os.close(fd)


def test_packed_text_vectors_do_not_share_the_packs_memory(tmp_path, monkeypatch):
    # an array that viewed a shared buffer (the pack's text block, or a read of several files) would keep
    # the other classes' text or other samples' frames alive: no two loaded arrays may share memory
    manifest = _packed_copy(tmp_path)
    packed = _packed_manifest(manifest)
    assert packed is not None  # the text vectors come from the pack
    monkeypatch.setattr(data_module, "_parse_feature_matrix", _no_parse)  # and so do the frames
    dataset = load_dataset(manifest)
    for c, entry in zip(dataset.classes, packed["classes"]):
        assert c.text.tobytes() == entry["text"].tobytes()
    arrays = [c.text for c in dataset.classes] + [seq.data for s in dataset.samples for seq in s.sequences.values()]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


def test_intact_pack_serves_the_manifest_without_parsing_its_floats(tmp_path, monkeypatch):
    manifest = _packed_copy(tmp_path)
    raw = manifest.read_text(encoding="utf-8")
    reference = load_dataset(manifest)
    parsed = []
    loads = json.loads

    def spy(text, *args, **kwargs):
        parsed.append(text.decode("utf-8") if isinstance(text, bytes) else text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(data_module.json, "loads", spy)
    _assert_same_bits(load_dataset(manifest), reference)
    assert parsed and raw not in parsed  # only the pack index was parsed
    assert not any(str(c.text[0]) in text for c in reference.classes for text in parsed)


def test_pack_manifest_matches_a_parse_of_the_manifest(tmp_path):
    manifest = _packed_copy(tmp_path)
    index = json.loads(manifest.with_suffix(".pack.json").read_text())
    fields = index["manifest"]["fields"]
    source = json.loads(manifest.read_text())
    assert fields == {**source, "classes": [{k: v for k, v in c.items() if k != "text"} for c in source["classes"]]}
    with_pack = load_dataset(manifest)
    _drop_pack(manifest)
    _assert_loads(manifest, with_pack)


def _rename_class(text: str) -> str:
    """The same manifest with class c1 named "sign X": equal length, other content."""
    return text.replace('"sign 1"', '"sign X"')


def _text_digit(text: str) -> str:
    """The same manifest with one text float's last digit changed: equal length, other value."""
    start = text.index('"text": [') + len('"text": [')
    end = text.index(",", start)
    return text[:start] + _bump_last_digit(text[start:end]) + text[end:]


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_text_digit, id="text-same-length"),
        pytest.param(_rename_class, id="name-same-length"),
        pytest.param(lambda t: t.replace('"seen": ["c0"]', '"seen": ["c2"]'), id="split-same-length"),
        pytest.param(lambda t: json.dumps(json.loads(t), indent=1), id="reformatted"),
    ],
)
def test_edited_manifest_overrides_the_pack(tmp_path, edit):
    manifest = _packed_copy(tmp_path)
    before = manifest.read_text(encoding="utf-8")
    after = edit(before)
    assert after != before
    manifest.write_text(after, encoding="utf-8")
    assert _packed_manifest(manifest) is None
    try:
        with_pack = load_dataset(manifest)
    except ZslSignError:  # the split edit makes c2 both seen and unseen
        with_pack = _load_error(manifest)
        _drop_pack(manifest)
        assert _load_error(manifest) == with_pack
        return
    _assert_loads(manifest, with_pack)
    _drop_pack(manifest)
    _assert_loads(manifest, with_pack)


def _rewrite_manifest_entry(path: Path, change) -> None:
    index = json.loads(path.read_text())
    change(index["manifest"])
    path.write_text(json.dumps(index))


_MANIFEST_ENTRY_DAMAGE = {
    "missing": lambda e: e.clear(),
    "fields-missing": lambda e: e.pop("fields"),
    "fields-list": lambda e: e.update(fields=[]),
    "classes-missing": lambda e: e["fields"].pop("classes"),
    "classes-not-objects": lambda e: e["fields"].update(classes=[1, 2, 3]),
    "one-class-less": lambda e: e["fields"]["classes"].pop(),
    "rows-wrong": lambda e: e.update(rows=e["rows"] - 1),
    "cols-wrong": lambda e: e.update(cols=e["cols"] + 1),
    "offset-wrong": lambda e: e.update(offset=0),
    "crc-wrong": lambda e: e.update(crc32=e["crc32"] ^ 1),
    "bytes-wrong": lambda e: e.update(bytes=e["bytes"] - 1),
    "values-crc-wrong": lambda e: e.update(values_crc32=e["values_crc32"] ^ 1),
}


@pytest.mark.parametrize("damage", sorted(_MANIFEST_ENTRY_DAMAGE))
def test_damaged_manifest_entry_falls_back_to_the_manifest(tmp_path, damage):
    manifest = _packed_copy(tmp_path)
    reference = load_dataset(manifest)
    index_path = manifest.with_suffix(".pack.json")
    if damage == "missing":
        index = json.loads(index_path.read_text())
        del index["manifest"]
        index_path.write_text(json.dumps(index))
    else:
        _rewrite_manifest_entry(index_path, _MANIFEST_ENTRY_DAMAGE[damage])
    assert _packed_manifest(manifest) is None
    _assert_loads(manifest, reference)


def test_text_of_mixed_widths_is_left_to_the_manifest(tmp_path):
    first = load_dataset(small_manifest(tmp_path / "orig"))
    short = make_descriptor("c0", first.classes[0].attributes, [0.6, 0.8])
    mixed = Dataset((short, *first.classes[1:]), first.samples, first.split, first.attribute_count)
    manifest = save_dataset(mixed, tmp_path / "copy")
    assert "manifest" not in json.loads(manifest.with_suffix(".pack.json").read_text())
    with_pack = _load_error(manifest)
    assert "text dimensionality" in with_pack[1]
    _drop_pack(manifest)
    assert _load_error(manifest) == with_pack


def test_manifest_is_one_line_of_json(tmp_path):
    source = json.loads(small_manifest(tmp_path / "orig").read_text())
    text = _packed_copy(tmp_path).read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("}\n")
    saved = json.loads(text)
    assert saved["split"] == source["split"]
    assert saved["classes"] == source["classes"]


def _bump_last_digit(text: str) -> str:
    """The same text with its last mantissa digit changed: equal length, other value."""
    i = max(text.rfind(d) for d in "123456789")
    return text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1 :]


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda f: f.write_text("7.25" + f.read_text()[f.read_text().index(","):]), id="edit"),
        pytest.param(lambda f: f.write_text(_bump_last_digit(f.read_text())), id="edit-same-length"),
        pytest.param(lambda f: f.write_text(f.read_text().split("\n", 1)[0] + "\n"), id="truncate"),
        pytest.param(lambda f: f.write_text(f.read_text()[:-6] + "\n"), id="cut-last-value"),
    ],
)
def test_edited_csv_overrides_the_pack(tmp_path, edit):
    manifest = _packed_copy(tmp_path)
    before = load_dataset(manifest)
    edit(manifest.parent / "features" / "s0_body.csv")
    with_pack = load_dataset(manifest)
    _drop_pack(manifest)
    _assert_loads(manifest, with_pack)
    s0 = next(s for s in with_pack.samples if s.sample_id == "s0")
    assert s0.body.data.tobytes() != before.samples[0].body.data.tobytes()


def test_swapped_csvs_override_the_pack(tmp_path):
    manifest = _packed_copy(tmp_path)
    before = {s.sample_id: s.body.data for s in load_dataset(manifest).samples}
    f0, f1 = (manifest.parent / "features" / f"s{j}_body.csv" for j in (0, 1))
    b0, b1 = f0.read_bytes(), f1.read_bytes()
    f0.write_bytes(b1)
    f1.write_bytes(b0)
    swapped = load_dataset(manifest)
    after = {s.sample_id: s.body.data for s in swapped.samples}
    assert np.array_equal(after["s0"], before["s1"]) and np.array_equal(after["s1"], before["s0"])
    _drop_pack(manifest)
    _assert_loads(manifest, swapped)


@pytest.mark.parametrize(
    "content, expected",
    [
        ("1.0,2.0,3.0\n1.0,oops,3.0\n", r"line 2 field 2"),
        ("1.0,2.0,3.0\n1.0,2.0\n", "ragged"),
        ("1.0,2.0,3.0\nnan,2.0,3.0\n", "row 1 non-finite"),
        ("1.0,2.0,3.0\n1.0,inf,3.0\n", "row 1 non-finite"),
        ("\n\n", "no rows"),
    ],
)
def test_bad_csv_raises_the_same_error_with_and_without_a_pack(tmp_path, content, expected):
    manifest = _packed_copy(tmp_path)
    (manifest.parent / "features" / "s0_body.csv").write_text(content, encoding="utf-8")
    with_pack = _load_error(manifest)
    _drop_pack(manifest)
    assert _load_error(manifest) == with_pack
    assert re.search(expected, with_pack[1])


def _rewrite_index(path: Path, change) -> None:
    index = json.loads(path.read_text())
    change(index["files"]["features/s0_body.csv"])
    path.write_text(json.dumps(index))


def _write_npy(path: Path, array) -> None:
    with open(path, "wb") as f:
        np.save(f, array)


_PACK_DAMAGE = {
    "npy-garbage": (".pack.npy", lambda p: p.write_bytes(b"not a pack" * 20)),
    "npy-empty": (".pack.npy", lambda p: p.write_bytes(b"")),
    "npy-truncated": (".pack.npy", lambda p: p.write_bytes(p.read_bytes()[:200])),
    "npy-cut-one-byte": (".pack.npy", lambda p: p.write_bytes(p.read_bytes()[:-1])),
    "npy-header-only": (".pack.npy", lambda p: p.write_bytes(p.read_bytes()[:128])),
    "npy-float32": (".pack.npy", lambda p: _write_npy(p, np.load(p).astype(np.float32))),
    "npy-big-endian": (".pack.npy", lambda p: _write_npy(p, np.load(p).astype(">f8"))),
    "npy-2d": (".pack.npy", lambda p: _write_npy(p, np.load(p).reshape(-1, 3))),
    "npy-shorter": (".pack.npy", lambda p: _write_npy(p, np.load(p)[:10])),
    "npy-missing": (".pack.npy", lambda p: p.unlink()),
    "index-garbage": (".pack.json", lambda p: p.write_bytes(b"\xff\xfe{not json")),
    "index-truncated": (".pack.json", lambda p: p.write_text(p.read_text()[:40])),
    "index-list": (".pack.json", lambda p: p.write_text("[]")),
    "index-files-list": (".pack.json", lambda p: p.write_text('{"files": []}')),
    "index-missing": (".pack.json", lambda p: p.unlink()),
    "offset-negative": (".pack.json", lambda p: _rewrite_index(p, lambda e: e.update(offset=-1))),
    "offset-past-end": (".pack.json", lambda p: _rewrite_index(p, lambda e: e.update(offset=10**9))),
    "rows-zero": (".pack.json", lambda p: _rewrite_index(p, lambda e: e.update(rows=0))),
    "rows-float": (".pack.json", lambda p: _rewrite_index(p, lambda e: e.update(rows=4.0))),
    "cols-bool": (".pack.json", lambda p: _rewrite_index(p, lambda e: e.update(cols=True))),
    "crc-missing": (".pack.json", lambda p: _rewrite_index(p, lambda e: e.pop("crc32"))),
    "crc-wrong": (".pack.json", lambda p: _rewrite_index(p, lambda e: e.update(crc32=e["crc32"] ^ 1))),
    "bytes-wrong": (".pack.json", lambda p: _rewrite_index(p, lambda e: e.update(bytes=e["bytes"] + 1))),
    "values-crc-wrong": (".pack.json", lambda p: _rewrite_index(p, lambda e: e.update(values_crc32=0))),
    "entry-string": (".pack.json", lambda p: _rewrite_index(p, lambda e: e.clear())),
}


@pytest.mark.parametrize("damage", sorted(_PACK_DAMAGE))
def test_damaged_pack_falls_back_to_the_csvs(tmp_path, damage):
    manifest = _packed_copy(tmp_path)
    reference = load_dataset(manifest)
    suffix, change = _PACK_DAMAGE[damage]
    change(manifest.with_suffix(suffix))
    _assert_loads(manifest, reference)


def test_stale_pack_entry_is_not_used(tmp_path):
    # The index points s0 at s1's values: only the CRC of s0's own bytes may pick a slice.
    manifest = _packed_copy(tmp_path)
    reference = load_dataset(manifest)
    index_path = manifest.with_suffix(".pack.json")
    index = json.loads(index_path.read_text())
    files = index["files"]
    files["features/s0_body.csv"]["offset"] = files["features/s1_body.csv"]["offset"]
    index_path.write_text(json.dumps(index))
    _assert_loads(manifest, reference)
    files["features/s0_body.csv"]["crc32"] = files["features/s1_body.csv"]["crc32"]
    index_path.write_text(json.dumps(index))
    _assert_loads(manifest, reference)


def test_index_of_another_save_is_not_used(tmp_path):
    # A save torn between the value file and the index leaves an index that
    # describes other values; s0's CSV is unchanged, but its offset moved.
    first = load_dataset(small_manifest(tmp_path / "orig"))
    manifest = save_dataset(first, tmp_path / "copy")
    old_index = manifest.with_suffix(".pack.json").read_bytes()
    reordered = Dataset(first.classes, first.samples[::-1], first.split, first.attribute_count)
    save_dataset(reordered, tmp_path / "copy")
    manifest.with_suffix(".pack.json").write_bytes(old_index)
    _assert_loads(manifest, first)


def test_two_manifests_in_one_directory_keep_their_own_packs(tmp_path):
    first = load_dataset(small_manifest(tmp_path / "orig"))
    shifted = tuple(
        make_sample(s.sample_id if j % 2 else f"x{j}", s.class_id, s.body.data + 1.0)
        for j, s in enumerate(first.samples)
    )
    second = Dataset(first.classes, shifted, first.split, first.attribute_count)
    out = tmp_path / "shared"
    a = save_dataset(first, out, "a.json")
    b = save_dataset(second, out, "b.json")
    assert a.with_suffix(".pack.npy").read_bytes() != b.with_suffix(".pack.npy").read_bytes()
    packed = load_dataset(a), load_dataset(b)
    # s1, s3, s5 were overwritten by the second save: a.json must read b's CSV values for them.
    for m in (a, b):
        _drop_pack(m)
    for with_pack, manifest in zip(packed, (a, b)):
        _assert_loads(manifest, with_pack)
    a_bodies = {s.sample_id: s.body.data for s in packed[0].samples}
    assert np.array_equal(a_bodies["s0"], first.samples[0].body.data)
    assert np.array_equal(a_bodies["s1"], first.samples[1].body.data + 1.0)


# ---------------------------------------------------------------------------
# saving on the worker pool
# ---------------------------------------------------------------------------


def _save_case(case: str) -> Dataset:
    """A two-stream, a GZSL or a mixed-text-width dataset of 12 samples over 4 classes."""
    rng = np.random.default_rng(3)
    texts = rng.normal(size=(4, 6))
    classes = [make_descriptor(f"c{i}", [(i >> b) & 1 for b in range(3)], t / np.linalg.norm(t)) for i, t in enumerate(texts)]
    if case == "mixed text widths":
        classes[0] = make_descriptor("c0", classes[0].attributes, [0.6, 0.8])
    samples = tuple(
        make_sample(f"s{j}", f"c{j % 4}", rng.normal(size=(3, 5)), hand=rng.normal(size=(3, 2)) if case == "hand" else None)
        for j in range(12)
    )
    mode = SplitMode.GZSL if case == "gzsl" else SplitMode.ZSL
    split = SplitConfig(frozenset({"c0", "c1"}), frozenset({"c2"}), frozenset({"c3"}), mode)
    return Dataset(tuple(classes), samples, split, attribute_count=3)


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", ["hand", "gzsl", "mixed text widths"])
def test_saved_tree_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, case):
    dataset = _save_case(case)
    extra = {"planted_map.csv": np.random.default_rng(4).normal(size=(5, 7))}
    monkeypatch.setattr(data_module, "_POOL_MIN_VALUES", 0)  # this small a save on the workers too
    trees = {}
    for cpus in (1, 2):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        save_dataset(dataset, tmp_path / str(cpus), extra_csv=extra)
        trees[cpus] = _tree(tmp_path / str(cpus))
    assert trees[1] == trees[2]
    streams = 2 if case == "hand" else 1
    assert len(trees[1]) == 12 * streams + 4  # the CSVs, the extra file, the pack's two files, the manifest
    assert trees[2]["planted_map.csv"] == data_module.csv_text(extra["planted_map.csv"]).encode("utf-8")
    if case == "mixed text widths":
        assert "manifest" not in json.loads(trees[2]["manifest.pack.json"])
        return
    manifest = tmp_path / "2" / "manifest.json"
    with monkeypatch.context() as patch:
        patch.setattr(data_module, "_parse_feature_matrix", _no_parse)
        _assert_same_bits(load_dataset(manifest), dataset)  # the pack index matches every CSV
    _drop_pack(manifest)
    _assert_same_bits(load_dataset(manifest), dataset)


def test_ranges_cover_every_index_once_in_at_most_the_asked_number():
    sizes = [192, 210, *[4] * 250]
    for parts in (1, 2, 8, 1000):
        ranges = data_module._ranges(sizes, parts)
        assert 1 <= len(ranges) <= parts
        assert [i for start, stop in ranges for i in range(start, stop)] == list(range(len(sizes)))
    assert data_module._ranges(sizes, 8)[:2] == [(0, 1), (1, 2)]  # each large document is a job of its own
