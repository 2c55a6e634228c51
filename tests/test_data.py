import json
import os
import re
import subprocess
import sys
import tempfile
import zlib
from collections import Counter
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zslsign import data as data_module
from zslsign.cli import main
from zslsign.data import (
    TEXT_NORM_TOL,
    Dataset,
    DatasetReader,
    SplitConfig,
    SplitMode,
    Stream,
    load_dataset,
    parse_json,
    save_dataset,
)
from zslsign.errors import InvariantViolation, MissingFile, MissingHandStream, PackMismatch, ParseError, ZslSignError
from zslsign.experiment import Role, RunConfig, load_embedded

from conftest import (
    make_descriptor,
    make_sample,
    reference_stack,
    small_manifest,
    write_csv_layout,
    write_feature_file,
    write_manifest,
)


def test_load_small_manifest(tmp_path):
    dataset = load_dataset(small_manifest(tmp_path))
    assert len(dataset.classes) == 3
    assert len(dataset.samples) == 6
    assert dataset.attribute_count == 5
    _assert_same_bits(load_dataset(save_dataset(dataset, tmp_path / "copy")), dataset)  # valid once saved, too


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
    # a sample's CSV, and a packed sample's value file; in a child with a deadline, since an open that waits
    # for a writer never returns
    csv_manifest = _csv_copy(tmp_path / "csv")
    packed_manifest = _packed_copy(tmp_path / "packed")
    cases = [
        (csv_manifest, csv_manifest.parent / "features" / "s0_body.csv", "feature file"),
        (packed_manifest, packed_manifest.with_suffix(".pack.npy"), "feature pack"),
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for manifest, fifo, what in cases:
        fifo.unlink()
        os.mkfifo(fifo)
        child = subprocess.run(
            [sys.executable, "-c", _LOAD_BOTH_WAYS, str(manifest)], env=env, capture_output=True, text=True, timeout=60
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines() == [f"sample 's0' body: {what} not found: {fifo}"] * 2


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
    text = next(c.text for c in dataset.classes if c.class_id == "c0")
    assert np.allclose(text, [0.6, 0.8, 0.0, 0.0])  # normalized on load


def test_text_file_of_more_than_one_row_rejected(tmp_path):
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    rows = np.array([[3.0, 4.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    write_feature_file(tmp_path / "text_c1.csv", rows)
    del manifest["classes"][1]["text"]
    manifest["classes"][1]["text_file"] = "text_c1.csv"
    write_manifest(tmp_path, manifest)
    expected = r"^class 'c1': text file text_c1.csv has 2 rows, expected 1$"
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


def test_validate_reports_nan_row(tmp_path):
    # a dataset in memory is validated by its save's load: the pack holds the NaN, the load refuses it
    sample = make_sample("s1", "c1", [[1.0, 2.0], [np.nan, 4.0], [5.0, 6.0]])
    dataset = Dataset(
        (make_descriptor("c1", [0, 1, 0]),),
        (sample,),
        SplitConfig(frozenset(), frozenset(), frozenset(), SplitMode.ZSL),
        attribute_count=3,
    )
    _assert_load_error(save_dataset(dataset, tmp_path), InvariantViolation, "^sample 's1' body row 1 non-finite$")


def test_validate_reports_non_binary_attribute(tmp_path):
    # a hand-written manifest may hold a NaN (json reads NaN), which compares unequal to 0 and to 1
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["attribute_count"] = 6
    for c in manifest["classes"]:
        c["attributes"] = [0, 1, 1, 0, 0, 1]
    manifest["classes"][2]["attributes"] = [0, 1, 0.5, float("nan"), -0.0, 1]
    write_manifest(tmp_path, manifest)
    expected = "^class 'c2' attribute 2 not binary; class 'c2' attribute 3 not binary$"
    _assert_load_error(path, InvariantViolation, expected)


def test_validate_reports_duplicates_and_unknown_refs(tmp_path):
    c = make_descriptor("c1", [0, 1])
    s = make_sample("s1", "ghost", [[1.0]])
    dataset = Dataset(
        (c, c),
        (s,),
        SplitConfig(frozenset({"phantom"}), frozenset(), frozenset(), SplitMode.ZSL),
        attribute_count=2,
    )
    _, message = _load_error(save_dataset(dataset, tmp_path))
    violations = message.split("; ")
    assert violations == [
        "class 'c1' duplicated",
        "sample 's1' references unknown class 'ghost'",
        "split seen references unknown class 'phantom'",
    ]


def test_validate_clean_dataset_is_empty(tiny_dataset, tmp_path):
    _assert_loads(save_dataset(tiny_dataset, tmp_path), tiny_dataset)


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
    assert np.array_equal(next(c.text for c in dataset.classes if c.class_id == "c0"), [1.0, 0.0, 0.0, 0.0])


def test_a_tiny_text_vector_that_normalizes_off_unit_norm_is_refused(tmp_path):
    # its norm underflows in the last digits: divided by it, the vector misses unit norm by 5.6e-6
    path = small_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["classes"][0]["text"] = [1e-160, 1e-160, 0.0, 0.0]
    write_manifest(tmp_path, manifest)
    _assert_load_error(path, InvariantViolation, "^class 'c0' text vector not unit norm$")


def _nan_in_the_packed_text(tmp_path) -> Path:
    """A saved manifest whose pack serves a text vector with a NaN, the pack's CRC-32s made to match it."""
    manifest = _packed_copy(tmp_path)
    index_path, npy = manifest.with_suffix(".pack.json"), manifest.with_suffix(".pack.npy")
    index = json.loads(index_path.read_text())
    text = index["manifest"]["text"]
    values = np.load(npy)
    values[text["offset"]] = np.nan
    _write_npy(npy, values)
    text["crc32"] = zlib.crc32(values[text["offset"] : text["offset"] + text["rows"] * text["cols"]])
    index_path.write_text(json.dumps(index))
    assert np.isnan(_packed_manifest(manifest)["classes"][0]["text"][0])  # the pack, not the manifest, serves it
    return manifest


def _non_finite_text(value: float, where: str):
    def change(tmp_path) -> Path:
        path = small_manifest(tmp_path)
        manifest = json.loads(path.read_text())
        if where == "text_file":
            write_feature_file(tmp_path / "text_c0.csv", [[value, 1.0, 0.0, 0.0]])
            del manifest["classes"][0]["text"]
            manifest["classes"][0]["text_file"] = "text_c0.csv"
        else:
            manifest["classes"][0]["text"] = [value, 1.0, 0.0, 0.0]  # json writes NaN, Infinity and -Infinity
        return write_manifest(tmp_path, manifest)

    return change


_NON_FINITE_TEXTS = {
    **{f"{where}-{value}": _non_finite_text(value, where) for where in ("text", "text_file")
       for value in (float("nan"), float("inf"), float("-inf"))},
    "pack-nan": _nan_in_the_packed_text,
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_TEXTS))
def test_a_non_finite_text_stops_at_its_normalization_in_every_reader_input(tmp_path, case):
    # every input a text vector comes from, inline, a text file or the pack, stops at its normalization,
    # as the reader opens the manifest, before any sample is read: no invariant check sees a non-finite text
    path = _NON_FINITE_TEXTS[case](tmp_path)
    expected = "^class 'c0': text vector has no finite nonzero norm$"
    with pytest.raises(InvariantViolation, match=expected):
        DatasetReader(path).close()  # the open raises, before any sample is read
    _assert_load_error(path, InvariantViolation, expected)


def test_hand_coverage_flag(tiny_dataset, saved):
    # the hand stream is usable only when every sample carries one
    with pytest.raises(MissingHandStream, match="^hand stream disabled dataset-wide: sample 's0' "):
        saved.view(tiny_dataset, RunConfig(use_hand=True), (Role.SEEN,))
    assert saved.view(tiny_dataset, RunConfig(), (Role.SEEN,)).stack(Role.SEEN).features.shape == (2, 2)
    with_hand = make_sample("h", "c1", [[1.0, 2.0]], hand=[[3.0]])
    dataset = Dataset(
        tiny_dataset.classes, (with_hand,), tiny_dataset.split, tiny_dataset.attribute_count
    )
    stack = saved.view(dataset, RunConfig(use_hand=True), (Role.SEEN,)).stack(Role.SEEN)
    assert stack.features.tolist() == [[1.0, 2.0, 3.0]]


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


def _csv_copy(tmp_path) -> Path:
    """The manifest of the same dataset in the CSV layout: samples s0..s5, features/s<j>_body.csv."""
    return write_csv_layout(load_dataset(small_manifest(tmp_path / "orig")), tmp_path / "copy")


def _drop_index(manifest: Path) -> None:
    """Delete the pack's index: the manifest is then parsed, and the frames still come from the value file."""
    manifest.with_suffix(".pack.json").unlink()


def _features(dataset) -> dict:
    return {(s.sample_id, stream): seq.data for s in dataset.samples for stream, seq in s.sequences.items()}


def _assert_same_bits(a, b) -> None:
    fa, fb = _features(a), _features(b)
    assert fa.keys() == fb.keys()
    for key in fa:
        assert fa[key].shape == fb[key].shape, key
        assert fa[key].tobytes() == fb[key].tobytes(), key
    assert _classes_bits(a.classes) == _classes_bits(b.classes)
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


def _role_samples(dataset, role: Role) -> list:
    class_ids = role.class_ids(dataset.split)
    return [s for s in dataset.samples if s.class_id in class_ids]


def _classes_bits(classes) -> list:
    return [(c.class_id, c.name, c.attributes.tobytes(), c.text.shape, c.text.tobytes()) for c in classes]


def _assert_loads(manifest: Path, reference) -> None:
    """load_dataset reads reference's bits from manifest, and a command's load pools them as reference_stack does."""
    _assert_same_bits(load_dataset(manifest), reference)
    hand = all(Stream.HAND in s.sequences for s in reference.samples)
    cfg = RunConfig(manifest=str(manifest), aggregator="tsm", tsm_weights=(0.5, 1.0, -2.0), use_hand=hand)
    roles = tuple(role for role in Role if _role_samples(reference, role))
    classes = {c.class_id: c for c in reference.classes}
    with np.errstate(over="ignore", invalid="ignore"):  # extreme frames pool to inf or nan, on both paths alike
        view = load_embedded(cfg, roles)
        expected = {role: reference_stack(_role_samples(reference, role), cfg) for role in roles}
    assert list(view.stacks) == list(roles)
    for role, (ids, features, labels) in expected.items():
        stack = view.stack(role)
        assert (stack.sample_ids, stack.labels) == (ids, labels), role
        assert (stack.features.shape, stack.features.tobytes()) == (features.shape, features.tobytes()), role
        assert _classes_bits(stack.classes) == _classes_bits(classes[c] for c in role.class_ids(reference.split))
    assert view.split == reference.split


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
    # a saved dataset and its CSV rendering both load to the dataset's records, bit for bit
    with tempfile.TemporaryDirectory() as tmp:
        _assert_loads(save_dataset(dataset, Path(tmp) / "packed"), dataset)
        _assert_loads(write_csv_layout(dataset, Path(tmp) / "csv"), dataset)


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


def test_a_packed_load_opens_each_file_once_and_parses_no_csv(tmp_path, monkeypatch):
    # the I/O a load rests on: the manifest opened once for its CRC-32, the pack's index once, the pack's
    # value file once for all 24 blocks, no other file, none of them stat'ed by path (a length comes from
    # fstat of the open file), and no CSV parsed
    manifest = save_dataset(_save_case("hand"), tmp_path)
    samples = json.loads(manifest.read_text())["samples"]
    assert sum(len(s["pack"]) for s in samples) == 24
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
        assert opened == dict.fromkeys([str(manifest), *pack], 1)
        assert opened.keys().isdisjoint(calls["stat"])


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
        with closing(data_module._FeaturePack(manifest)) as pack:
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
    with_index = load_dataset(manifest)
    _drop_index(manifest)
    _assert_loads(manifest, with_index)


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
    # a hand-edited manifest is parsed, and its samples' frames still come from the pack's value file
    manifest = _packed_copy(tmp_path)
    before = manifest.read_text(encoding="utf-8")
    after = edit(before)
    assert after != before
    manifest.write_text(after, encoding="utf-8")
    assert _packed_manifest(manifest) is None
    try:
        with_index = load_dataset(manifest)
    except ZslSignError:  # the split edit makes c2 both seen and unseen
        with_index = _load_error(manifest)
        _drop_index(manifest)
        assert _load_error(manifest) == with_index
        return
    _assert_loads(manifest, with_index)
    _drop_index(manifest)
    _assert_loads(manifest, with_index)


def test_a_manifest_copied_under_another_name_reads_the_pack_it_names(tmp_path):
    manifest = _packed_copy(tmp_path)
    reference = load_dataset(manifest)
    doc = json.loads(manifest.read_text())
    doc["samples"] = doc["samples"][::2]
    copy = manifest.with_name("every_other.json")
    copy.write_text(json.dumps(doc, indent=1))
    assert doc["pack_file"] == "manifest.pack.npy" and not copy.with_suffix(".pack.json").exists()
    every_other = Dataset(reference.classes, reference.samples[::2], reference.split, reference.attribute_count)
    _assert_loads(copy, every_other)


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
    "pack-file-missing": lambda e: e["fields"].pop("pack_file"),
    "pack-file-elsewhere": lambda e: e["fields"].update(pack_file="features/none.npy"),
    "text-missing": lambda e: e.pop("text"),
    "rows-wrong": lambda e: e["text"].update(rows=e["text"]["rows"] - 1),
    "cols-wrong": lambda e: e["text"].update(cols=e["text"]["cols"] + 1),
    "offset-wrong": lambda e: e["text"].update(offset=0),
    "crc-wrong": lambda e: e.update(crc32=e["crc32"] ^ 1),
    "bytes-wrong": lambda e: e.update(bytes=e["bytes"] - 1),
    "values-crc-wrong": lambda e: e["text"].update(crc32=e["text"]["crc32"] ^ 1),
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
    with_index = _load_error(manifest)
    assert "text dimensionality" in with_index[1]
    _drop_index(manifest)
    assert _load_error(manifest) == with_index


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"a": 1}\xff', "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        (b'{"a": 1,\n}', "invalid JSON at line 2: "),
        (b'{"a": ' + b"[" * 10_000 + b"]" * 10_000 + b"}", "nested too deeply to parse"),
        (b'{"a": ' + b"1" * 5_000 + b"}", "Exceeds the limit (4300"),
        (b"[]", "top level must be a JSON object"),
    ],
    ids=["not-utf8", "not-json", "nested", "long-integer", "list"],
)
def test_parse_json_raises_the_callers_error_naming_the_input(raw, message):
    with pytest.raises(InvariantViolation, match=f"^input x: {re.escape(message)}"):
        parse_json(raw, "input x", InvariantViolation)
    assert parse_json(b'{"a": [1]}', "input x", InvariantViolation) == {"a": [1]}


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
def test_an_edited_csv_is_read_as_edited(tmp_path, edit):
    manifest = _csv_copy(tmp_path)
    before = load_dataset(manifest)
    edit(manifest.parent / "features" / "s0_body.csv")
    edited = load_dataset(manifest)
    _assert_loads(manifest, edited)
    assert edited.samples[0].body.data.tobytes() != before.samples[0].body.data.tobytes()
    assert all(a.body.data.tobytes() == b.body.data.tobytes() for a, b in zip(edited.samples[1:], before.samples[1:]))


def test_swapped_csvs_are_read_swapped(tmp_path):
    manifest = _csv_copy(tmp_path)
    before = {s.sample_id: s.body.data for s in load_dataset(manifest).samples}
    f0, f1 = (manifest.parent / "features" / f"s{j}_body.csv" for j in (0, 1))
    b0, b1 = f0.read_bytes(), f1.read_bytes()
    f0.write_bytes(b1)
    f1.write_bytes(b0)
    swapped = load_dataset(manifest)
    after = {s.sample_id: s.body.data for s in swapped.samples}
    assert np.array_equal(after["s0"], before["s1"]) and np.array_equal(after["s1"], before["s0"])
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
def test_a_bad_csv_raises_the_same_error_in_both_loads(tmp_path, content, expected):
    manifest = _csv_copy(tmp_path)
    (manifest.parent / "features" / "s0_body.csv").write_text(content, encoding="utf-8")
    assert re.search(expected, _load_error(manifest)[1])


def _write_npy(path: Path, array) -> None:
    with open(path, "wb") as f:
        np.save(f, array)


def _flip_byte(path: Path, value_index: int) -> None:
    """Flip one bit of the value at value_index of the pack's value file."""
    raw = bytearray(path.read_bytes())
    i = len(raw) - np.load(path).nbytes + 8 * value_index + 3
    raw[i] ^= 0x10
    path.write_bytes(bytes(raw))


_PACK_DAMAGE = {
    "npy-garbage": lambda p: p.write_bytes(b"not a pack" * 20),
    "npy-empty": lambda p: p.write_bytes(b""),
    "npy-truncated": lambda p: p.write_bytes(p.read_bytes()[:200]),
    "npy-cut-one-byte": lambda p: p.write_bytes(p.read_bytes()[:-1]),
    "npy-header-only": lambda p: p.write_bytes(p.read_bytes()[:128]),
    "npy-float32": lambda p: _write_npy(p, np.load(p).astype(np.float32)),
    "npy-big-endian": lambda p: _write_npy(p, np.load(p).astype(">f8")),
    "npy-2d": lambda p: _write_npy(p, np.load(p).reshape(-1, 3)),
    "npy-shorter": lambda p: _write_npy(p, np.load(p)[:10]),
    "npy-missing": lambda p: p.unlink(),
    "npy-flipped-byte": lambda p: _flip_byte(p, 5),
    "npy-zeroed": lambda p: _write_npy(p, np.zeros_like(np.load(p))),
}


@pytest.mark.parametrize("damage", sorted(_PACK_DAMAGE))
def test_damaged_pack_is_refused_naming_the_pack_and_the_sample(tmp_path, damage):
    manifest = _packed_copy(tmp_path)
    npy = manifest.with_suffix(".pack.npy")
    _PACK_DAMAGE[damage](npy)
    error, message = _load_error(manifest)
    assert error is (MissingFile if damage == "npy-missing" else PackMismatch), message
    assert message.startswith("sample 's0' body: feature pack ") and str(npy) in message


def test_a_flipped_byte_in_one_block_is_refused_naming_its_sample(tmp_path):
    manifest = _packed_copy(tmp_path)
    block = json.loads(manifest.read_text())["samples"][3]["pack"]["body"]
    npy = manifest.with_suffix(".pack.npy")
    _flip_byte(npy, block["offset"] + block["rows"] * block["cols"] - 1)  # the block's last value
    expected = f"^sample 's3' body: feature pack {re.escape(str(npy))} does not hold the 4x3 block at offset "
    _assert_load_error(manifest, PackMismatch, expected)


_INDEX_DAMAGE = {
    "index-garbage": lambda p: p.write_bytes(b"\xff\xfe{not json"),
    "index-truncated": lambda p: p.write_text(p.read_text()[:40]),
    "index-list": lambda p: p.write_text("[]"),
    "index-nested": lambda p: p.write_text("[" * 10_000 + "]" * 10_000),
    "index-files-list": lambda p: p.write_text('{"files": []}'),
    "index-missing": lambda p: p.unlink(),
    "index-directory": lambda p: p.unlink() or p.mkdir(),
}


@pytest.mark.parametrize("damage", sorted(_INDEX_DAMAGE))
def test_damaged_index_falls_back_to_the_manifest(tmp_path, damage):
    manifest = _packed_copy(tmp_path)
    reference = load_dataset(manifest)
    _INDEX_DAMAGE[damage](manifest.with_suffix(".pack.json"))
    assert _packed_manifest(manifest) is None
    _assert_loads(manifest, reference)


def _s0_body(change):
    return lambda m: change(m["samples"][0]["pack"]["body"])


_BAD_BODY = "sample 's0': field 'body' must be a pack block, integers offset >= 0, rows >= 1, cols >= 1 and crc32$"
_NOT_HELD = r"sample 's0' body: feature pack .*manifest\.pack\.npy does not hold the "


@pytest.mark.parametrize(
    "change, kind, expected",
    [
        pytest.param(_s0_body(lambda e: e.update(offset=-1)), ParseError, _BAD_BODY,
                     id="offset-negative"),
        pytest.param(_s0_body(lambda e: e.update(rows=0)), ParseError, _BAD_BODY, id="rows-zero"),
        pytest.param(_s0_body(lambda e: e.update(rows=4.0)), ParseError, _BAD_BODY, id="rows-float"),
        pytest.param(_s0_body(lambda e: e.update(cols=True)), ParseError, _BAD_BODY, id="cols-bool"),
        pytest.param(_s0_body(lambda e: e.pop("crc32")), ParseError, _BAD_BODY, id="crc-missing"),
        pytest.param(_s0_body(lambda e: e.clear()), ParseError, _BAD_BODY, id="entry-empty"),
        pytest.param(lambda m: m["samples"][0]["pack"].update(body="s0.csv"), ParseError, _BAD_BODY,
                     id="entry-string"),
        pytest.param(lambda m: m["samples"][0]["pack"].pop("body"), ParseError, "sample 's0': missing field 'body'",
                     id="body-missing"),
        pytest.param(lambda m: m["samples"][0].update(pack=[1]), ParseError,
                     "sample 's0': field 'pack' must be an object", id="pack-list"),
        pytest.param(lambda m: m.pop("pack_file"), ParseError,
                     "sample 's0' body: a packed stream needs the manifest field 'pack_file'", id="pack-file-missing"),
        pytest.param(lambda m: m.update(pack_file=3), ParseError,
                     "manifest: field 'pack_file' must be a relative file path", id="pack-file-int"),
        pytest.param(lambda m: m.update(pack_file="none.npy"), MissingFile,
                     "sample 's0' body: feature pack not found: .*none\\.npy", id="pack-file-gone"),
        pytest.param(_s0_body(lambda e: e.update(offset=10**9)), PackMismatch, _NOT_HELD, id="offset-past-end"),
        pytest.param(_s0_body(lambda e: e.update(crc32=e["crc32"] ^ 1)), PackMismatch, _NOT_HELD, id="crc-wrong"),
        pytest.param(_s0_body(lambda e: e.update(rows=e["rows"] - 1)), PackMismatch, _NOT_HELD, id="rows-wrong"),
        pytest.param(_s0_body(lambda e: e.update(offset=e["offset"] + 1)), PackMismatch, _NOT_HELD,
                     id="offset-wrong"),
    ],
)
def test_a_malformed_or_wrong_block_entry_is_refused(tmp_path, change, kind, expected):
    manifest = _packed_copy(tmp_path)
    doc = json.loads(manifest.read_text())
    change(doc)
    manifest.write_text(json.dumps(doc))
    _assert_load_error(manifest, kind, "^" + expected)


def test_a_sample_that_names_both_a_block_and_a_csv_is_a_parse_error(tmp_path):
    manifest = _packed_copy(tmp_path)
    write_feature_file(manifest.parent / "features" / "s0.csv", np.ones((4, 3)))
    doc = json.loads(manifest.read_text())
    doc["samples"][0]["body"] = "features/s0.csv"
    manifest.write_text(json.dumps(doc))
    expected = "^sample 's0': give either 'pack' or 'body' and 'hand' files, not both$"
    _assert_load_error(manifest, ParseError, expected)


def test_stale_pack_entry_is_not_used(tmp_path):
    # The manifest points s0 at s1's values: only s0's own CRC-32 may pick a block.
    manifest = _packed_copy(tmp_path)
    doc = json.loads(manifest.read_text())
    samples = doc["samples"]
    samples[0]["pack"]["body"]["offset"] = samples[1]["pack"]["body"]["offset"]
    manifest.write_text(json.dumps(doc))
    _assert_load_error(manifest, PackMismatch, "^" + _NOT_HELD)


def _shifted(dataset: Dataset) -> Dataset:
    """The same dataset with every body frame moved by 1."""
    samples = tuple(make_sample(s.sample_id, s.class_id, s.body.data + 1.0) for s in dataset.samples)
    return Dataset(dataset.classes, samples, dataset.split, dataset.attribute_count)


@pytest.mark.parametrize("files", [(".pack.npy",), (".pack.npy", ".pack.json")], ids=["values", "values-and-index"])
def test_another_saves_pack_is_refused(tmp_path, files):
    manifest = _packed_copy(tmp_path)
    other = save_dataset(_shifted(load_dataset(manifest)), tmp_path / "other")
    for suffix in files:
        manifest.with_suffix(suffix).write_bytes(other.with_suffix(suffix).read_bytes())
    _assert_load_error(manifest, PackMismatch, "^" + _NOT_HELD)


def test_a_save_torn_before_its_manifest_is_refused(tmp_path, monkeypatch):
    # the second save into the directory stops after its pack: the pack is newer than the manifest
    manifest = _packed_copy(tmp_path)
    before = manifest.read_bytes()
    shifted = _shifted(load_dataset(manifest))

    def torn(path, data):
        raise OSError(f"no space left to write {path}")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_bytes", torn)
        with pytest.raises(OSError, match="no space left"):
            save_dataset(shifted, manifest.parent)
    assert manifest.read_bytes() == before  # the old manifest, beside the new pack
    _assert_load_error(manifest, PackMismatch, "^" + _NOT_HELD)
    save_dataset(shifted, manifest.parent)  # a save that ends repairs it
    _assert_loads(manifest, shifted)


def test_index_of_another_save_is_not_used(tmp_path):
    # A save torn between the index and the manifest, here undone for the index alone, leaves an index that
    # describes another manifest; the manifest is parsed.
    first = load_dataset(small_manifest(tmp_path / "orig"))
    manifest = save_dataset(first, tmp_path / "copy")
    old_index = manifest.with_suffix(".pack.json").read_bytes()
    reordered = Dataset(first.classes, first.samples[::-1], first.split, first.attribute_count)
    save_dataset(reordered, tmp_path / "copy")
    manifest.with_suffix(".pack.json").write_bytes(old_index)
    assert _packed_manifest(manifest) is None
    _assert_loads(manifest, reordered)


def test_two_manifests_in_one_directory_keep_their_own_packs(tmp_path):
    first = load_dataset(small_manifest(tmp_path / "orig"))
    second = _shifted(first)
    out = tmp_path / "shared"
    a = save_dataset(first, out, "a.json")
    b = save_dataset(second, out, "b.json")
    assert json.loads(a.read_text())["pack_file"] == "a.pack.npy"
    assert json.loads(b.read_text())["pack_file"] == "b.pack.npy"
    assert a.with_suffix(".pack.npy").read_bytes() != b.with_suffix(".pack.npy").read_bytes()
    _assert_loads(a, first)
    _assert_loads(b, second)


PARENT_SAVE = Path(__file__).resolve().parent / "data" / "parent_save"


def _parent_save_case() -> Dataset:
    """The dataset in tests/data/parent_save: three classes, three two-stream samples."""
    rng = np.random.default_rng(7)
    texts = rng.normal(size=(3, 4))
    classes = tuple(make_descriptor(f"c{i}", [i & 1, i >> 1], t / np.linalg.norm(t)) for i, t in enumerate(texts))
    samples = tuple(
        make_sample(f"s{j}", f"c{j}", rng.normal(size=(2 + j, 3)), hand=rng.normal(size=(2 + j, 2))) for j in range(3)
    )
    split = SplitConfig(frozenset({"c0"}), frozenset({"c1"}), frozenset({"c2"}), SplitMode.ZSL)
    return Dataset(classes, samples, split, attribute_count=2)


def test_a_dataset_saved_in_the_csv_layout_loads_the_same_records_and_converts(tmp_path):
    # tests/data/parent_save was written by save_dataset before the pack held the frames: one CSV per sample
    # stream, and a pack whose index is keyed by the CSVs' paths, byte lengths and CRC-32s
    manifest = PARENT_SAVE / "manifest.json"
    assert "files" in json.loads(manifest.with_suffix(".pack.json").read_text())
    assert len(list((PARENT_SAVE / "features").glob("*.csv"))) == 6
    reference = _parent_save_case()
    _assert_loads(manifest, reference)
    converted = save_dataset(load_dataset(manifest), tmp_path)
    _assert_loads(converted, reference)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "manifest.pack.json", "manifest.pack.npy"]


# ---------------------------------------------------------------------------
# saving
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


def test_save_dataset_writes_no_manifest_strict_json_cannot_hold(tmp_path):
    from zslsign.synth import SynthSpec, generate

    dataset, _ = generate(SynthSpec(n_classes=4, n_seen=2, n_unseen=1, samples_per_class=1))
    text = dataset.classes[0].text.copy()
    text[0] = np.inf
    object.__setattr__(dataset.classes[0], "text", text)  # past the descriptor's own check
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_dataset(dataset, tmp_path / "out")
    assert not (tmp_path / "out").exists()  # serialized before any file is written


def test_a_non_binary_attribute_is_saved_as_it_is_for_the_load_to_refuse(tmp_path):
    dataset = _save_case("gzsl")
    classes = (make_descriptor("c0", [0, 1.5, 0.7], dataset.classes[0].text), *dataset.classes[1:])
    manifest = save_dataset(replace(dataset, classes=classes), tmp_path)
    saved = json.loads(manifest.read_text())["classes"]
    assert [c["attributes"] for c in saved] == [[0, 1.5, 0.7], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
    assert all(type(v) is int for c in saved[1:] for v in c["attributes"])  # 0 and 1 as integers, as ever
    expected = "^class 'c0' attribute 1 not binary; class 'c0' attribute 2 not binary$"
    _assert_load_error(manifest, InvariantViolation, expected)
    assert main(["baseline", "--manifest", str(manifest)]) == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_a_non_finite_attribute_is_refused_before_any_file_is_written(tmp_path, value):
    dataset = _save_case("gzsl")
    classes = (make_descriptor("c0", [0, value, 1], dataset.classes[0].text), *dataset.classes[1:])
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_dataset(replace(dataset, classes=classes), tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["hand", "gzsl", "mixed text widths"])
def test_saved_tree_is_the_manifest_and_its_pack(tmp_path, monkeypatch, case):
    dataset = _save_case(case)
    trees = []
    for run in ("a", "b"):
        save_dataset(dataset, tmp_path / run)
        trees.append(_tree(tmp_path / run))
    assert trees[0] == trees[1]  # a save depends on nothing but its arguments
    assert sorted(trees[0]) == ["manifest.json", "manifest.pack.json", "manifest.pack.npy"]
    # files of the caller's own beside the dataset (synth's spec and planted map) are left as they are
    (tmp_path / "b" / "planted_map.npy").write_bytes(b"caller's file")
    save_dataset(dataset, tmp_path / "b")
    assert _tree(tmp_path / "b") == {**trees[0], "planted_map.npy": b"caller's file"}
    if case == "mixed text widths":
        assert "manifest" not in json.loads(trees[0]["manifest.pack.json"])
        return
    manifest = tmp_path / "b" / "manifest.json"
    with monkeypatch.context() as patch:
        patch.setattr(data_module, "_parse_feature_matrix", _no_parse)
        patch.setattr(data_module.json, "loads", _no_manifest_parse(manifest))
        _assert_same_bits(load_dataset(manifest), dataset)  # the index serves the manifest, the blocks the frames
    _drop_index(manifest)
    _assert_same_bits(load_dataset(manifest), dataset)
