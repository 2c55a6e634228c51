import dataclasses
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from zslsign import cli, data, experiment, pool
from zslsign.cli import main
from zslsign.data import SplitMode, load_dataset
from zslsign.errors import MissingReduction, ParseError
from zslsign.models import load_model
from zslsign.synth import SynthSpec, generate

from conftest import write_csv_layout

SYNTH_ARGS = [
    "synth",
    "--classes", "14",
    "--seen", "8",
    "--unseen", "4",
    "--attributes", "6",
    "--text-dim", "4",
    "--samples-per-class", "6",
    "--snippets", "4",
    "--width", "12",
    "--noise", "0.01",
    "--seed", "5",
]

TRAIN_OVERRIDES = [
    "--embedding", "combined",
    "--d-t", "4",
    "--epochs", "200",
    "--learning-rate", "0.5",
    "--lam", "1e-3",
    "--seed", "5",
    "--repeats", "1",
]


def run(argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run(SYNTH_ARGS + ["--out", data]) == 0
    manifest = data / "manifest.json"
    train = root / "train"
    assert run(["train", "--manifest", manifest, "--out", train] + TRAIN_OVERRIDES) == 0
    return {"root": root, "manifest": manifest, "model": train / "model.json", "train": train}


def snapshot(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_synth_writes_complete_tree(workspace):
    data = workspace["manifest"].parent
    assert sorted(snapshot(data)) == [
        "manifest.json", "manifest.pack.json", "manifest.pack.npy", "planted_map.npy", "synth_spec.json"
    ]
    manifest = json.loads(workspace["manifest"].read_text())
    assert len(manifest["classes"]) == 14
    spec = json.loads((data / "synth_spec.json").read_text())
    assert list(spec) == sorted(f.name for f in dataclasses.fields(SynthSpec))
    # the planted map is generate's matrix bit for bit, as a little-endian float64 npy 1.0 file
    _, planted = generate(SynthSpec(**{**spec, "split_mode": SplitMode(spec["split_mode"])}))
    with open(data / "planted_map.npy", "rb") as f:
        assert np.lib.format.read_magic(f) == (1, 0)
    loaded = np.load(data / "planted_map.npy")
    assert loaded.dtype == np.dtype("<f8") and loaded.shape == planted.shape == (12, 6 + 4)
    assert loaded.tobytes() == planted.tobytes()
    # the frames are in the pack only: one block per sample, no feature CSV
    assert [len(s["pack"]) for s in manifest["samples"]] == [1] * 14 * 6
    assert manifest["pack_file"] == "manifest.pack.npy" and (data / "manifest.pack.npy").is_file()
    assert not (data / "features").exists()


def test_train_outputs(workspace):
    train = workspace["train"]
    assert workspace["model"].exists()
    assert (train / "effective_config.json").exists()
    log = (train / "training_log.csv").read_text().strip().splitlines()
    assert log[0] == "epoch,loss"
    first = float(log[1].split(",")[1])
    last = float(log[-1].split(",")[1])
    assert last < first


def test_train_missing_manifest_exits_2(tmp_path, capsys):
    code = run(["train", "--manifest", tmp_path / "absent.json", "--out", tmp_path / "o"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_train_repeats_default_writes_five_models_and_summary(workspace, tmp_path):
    out = tmp_path / "rep"
    code = run(
        ["train", "--manifest", workspace["manifest"], "--out", out]
        + TRAIN_OVERRIDES[:-2]  # no --repeats flag: the default of 5 applies
        + ["--epochs", "30"]
    )
    assert code == 0
    for r in range(5):
        assert json.loads((out / f"model_r{r}.json").read_text())["weights"] == f"model_r{r}.npy"
        assert (out / f"model_r{r}.npy").exists()
        assert (out / f"training_log_r{r}.csv").exists()
    assert len({(out / f"model_r{r}.npy").read_bytes() for r in range(5)}) == 5
    summary = json.loads((out / "summary.json").read_text())
    assert summary["repeats"] == 5
    assert summary["seeds"] == [5, 6, 7, 8, 9]
    assert len(summary["final_losses"]) == 5
    assert summary["final_loss_stddev"] >= 0.0
    seeds = {json.loads((out / f"model_r{r}.json").read_text())["seed"] for r in range(5)}
    assert seeds == {5, 6, 7, 8, 9}


@pytest.mark.parametrize("method", ["lle", "eszsl", "sae"])
def test_train_summary_lists_each_saved_models_seed_and_epochs(workspace, tmp_path, method):
    out = tmp_path / method
    argv = ["train", "--manifest", workspace["manifest"], "--out", out, "--method", method, "--repeats", "2"]
    assert run(argv + TRAIN_OVERRIDES[:-2]) == 0
    headers = [json.loads((out / f"model_r{r}.json").read_text()) for r in range(2)]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [h["seed"] for h in headers]  # a closed form's one fit has seed 0, not 5 and 6
    assert summary["epochs"] == [h["epochs"] for h in headers]
    if method == "lle":
        assert summary["seeds"] == [5, 6] and all(1 <= e < 200 for e in summary["epochs"])


def test_train_says_after_how_many_epochs_and_why_an_lle_fit_ended(workspace, tmp_path, capsys):
    base = ["train", "--manifest", workspace["manifest"]] + TRAIN_OVERRIDES
    for method, cap in [("lle", "200"), ("lle", "3"), ("eszsl", "200"), ("sae", "200")]:
        out = tmp_path / f"{method}{cap}"
        assert run(base + ["--out", out, "--method", method, "--epochs", cap]) == 0
        header = json.loads((out / "model.json").read_text())
        log = (out / "training_log.csv").read_text().splitlines()
        first = capsys.readouterr().out.splitlines()[0]
        if method != "lle":  # a closed form's line is as it was
            assert first == f"trained {method} model: final loss {header['final_loss']!r}"
            continue
        stop = "cap" if cap == "3" else "tolerance"
        ran = f"after {header['epochs']} epochs ({stop})"
        assert first == f"trained lle model: final loss {header['final_loss']!r} {ran}"
        assert len(log) == header["epochs"] + 2  # the header row, the initial loss, then one row per epoch run
        assert (header["epochs"] == 3) == (cap == "3")


def test_an_lle_reduction_of_width_2_converges_to_a_bounded_m(workspace, tmp_path):
    """Scaling M by c and W's text block by 1/c leaves every score: only lam ||M||^2 keeps ||M|| from growing.

    Without it, this fit's ||M|| reached 10.5 after 60 epochs and 20.4 after 400, and a sweep at this width fell
    to chance.
    """
    models = {}
    for cap in ("60", "400"):
        out = tmp_path / cap
        argv = ["train", "--manifest", workspace["manifest"], "--out", out] + TRAIN_OVERRIDES
        assert run(argv + ["--d-t", "2", "--epochs", cap]) == 0
        models[cap] = load_model(out / "model.json")
        assert models[cap].epochs < 60
    assert (out / "model.npy").read_bytes() == (tmp_path / "60" / "model.npy").read_bytes()
    assert np.linalg.norm(models["400"].M) < 5.0


def test_eval_zsl_restricts_candidates(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    code = run(
        ["eval", "--manifest", workspace["manifest"], "--model", workspace["model"], "--out", out]
        + TRAIN_OVERRIDES
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    manifest = json.loads(workspace["manifest"].read_text())
    unseen = set(manifest["split"]["unseen"])
    assert set(report["per_class"]) <= unseen
    assert report["seen_per_k"] is None  # ZSL: no GZSL breakdown
    assert "top-1" in capsys.readouterr().out


def test_eval_gzsl_has_breakdown_and_baseline(workspace, tmp_path, capsys):
    # same fixture, GZSL split mode
    data2 = tmp_path / "data_gzsl"
    assert run(SYNTH_ARGS + ["--out", data2, "--gzsl"]) == 0
    train2 = tmp_path / "train_gzsl"
    assert run(["train", "--manifest", data2 / "manifest.json", "--out", train2] + TRAIN_OVERRIDES) == 0
    out = tmp_path / "eval_gzsl"
    code = run(
        [
            "eval",
            "--manifest", data2 / "manifest.json",
            "--model", train2 / "model.json",
            "--out", out,
            "--random-baseline",
        ]
        + TRAIN_OVERRIDES
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seen_per_k"] is not None
    assert report["unseen_per_k"] is not None
    assert report["harmonic_per_k"] is not None
    # 12 candidate classes: random top-k is exactly 100 k/12
    assert report["random_per_k"] == {"1": 100.0 / 12, "2": 200.0 / 12, "5": 500.0 / 12}
    out_text = capsys.readouterr().out
    assert "harmonic" in out_text and "random" in out_text


def test_eval_dimension_mismatch_exits_3(workspace, tmp_path):
    # same fixture but a different stream width: model and dataset disagree on d
    other = tmp_path / "other_data"
    args = list(SYNTH_ARGS)
    args[args.index("--width") + 1] = "7"
    assert run(args + ["--out", other]) == 0
    code = run(
        ["eval", "--manifest", other / "manifest.json", "--model", workspace["model"], "--out", tmp_path / "e3"]
        + TRAIN_OVERRIDES
    )
    assert code == 3


def test_predict_writes_rankings(workspace, tmp_path):
    out = tmp_path / "pred"
    code = run(
        ["predict", "--manifest", workspace["manifest"], "--model", workspace["model"], "--out", out]
        + TRAIN_OVERRIDES
    )
    assert code == 0
    rows = (out / "predictions.csv").read_text().strip().splitlines()
    assert rows[0] == "sample_id,truth,predicted,truth_rank"
    assert len(rows) == 1 + 4 * 6  # unseen-class samples only


def test_analyze_correct_and_rerun_determinism(workspace, tmp_path):
    out = tmp_path / "analysis"
    argv = (
        ["analyze", "--manifest", workspace["manifest"], "--model", workspace["model"], "--out", out, "--correct", "--min-affiliation", "1"]
        + TRAIN_OVERRIDES
    )
    assert run(argv) == 0
    first = snapshot(out)
    assert "influence_correct.json" in first
    assert "influence_correct.csv" in first
    assert "affiliation_correct.csv" in first
    assert "affiliation_summary.csv" in first
    assert run(argv) == 0
    assert snapshot(out) == first  # byte-identical rerun


def train_weak_model(workspace, out: Path) -> Path:
    """A barely trained model: it misclassifies, so real confusion pairs exist."""
    argv = ["train", "--manifest", workspace["manifest"], "--out", out] + TRAIN_OVERRIDES
    argv[argv.index("--epochs") + 1] = "1"
    argv[argv.index("--learning-rate") + 1] = "1e-9"
    assert run(argv) == 0
    return out / "model.json"


def test_analyze_confusions_on_weak_model(workspace, tmp_path):
    weak_model = train_weak_model(workspace, tmp_path / "weak")
    out = tmp_path / "confusions"
    code = run(
        ["analyze", "--manifest", workspace["manifest"], "--model", weak_model, "--out", out, "--confusions", "4"]
        + TRAIN_OVERRIDES
    )
    assert code == 0
    report = json.loads((out / "influence_confusions.json").read_text())
    assert 1 <= len(report["rows"]) <= 4
    for row in report["rows"]:
        truth, predicted = row["subject"]
        assert truth != predicted
        assert len(row["scores"]) == 6  # one score per attribute
    assert (out / "affiliation_predicted.csv").exists()
    assert (out / "affiliation_truth.csv").exists()


@pytest.mark.parametrize("count", ["-1", "0"])
def test_analyze_nonpositive_confusions_exits_1_with_error_line(workspace, tmp_path, capsys, count):
    weak_model = train_weak_model(workspace, tmp_path / "weak")
    out = tmp_path / "confusions"
    capsys.readouterr()
    code = run(
        ["analyze", "--manifest", workspace["manifest"], "--model", weak_model, "--out", out, "--confusions", count]
        + TRAIN_OVERRIDES
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and f"got {count}" in err
    assert not (out / "influence_confusions.json").exists()


def test_analyze_confusions_on_perfect_model_exits_1(workspace, tmp_path):
    code = run(
        ["analyze", "--manifest", workspace["manifest"], "--model", workspace["model"], "--out", tmp_path / "c1", "--confusions", "2"]
        + TRAIN_OVERRIDES
    )
    assert code == 1  # the fixture model is perfectly accurate: NoMisclassifications


def test_train_sae_out_of_memory_exits_1_with_error_line(workspace, tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(np.linalg, "svd", no_memory)
    argv = ["train", "--manifest", workspace["manifest"], "--out", tmp_path / "sae"] + TRAIN_OVERRIDES
    code = run(argv + ["--method", "sae"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and re.match(r"error: sae: the Sylvester solve for t=\d+, d=\d+, N=\d+ .* \d+ bytes", err[0])
    assert not (tmp_path / "sae" / "model.json").exists()


def test_train_eszsl_out_of_memory_exits_1_with_error_line(workspace, tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(np.linalg, "svd", no_memory)
    argv = ["train", "--manifest", workspace["manifest"], "--out", tmp_path / "eszsl"] + TRAIN_OVERRIDES
    code = run(argv + ["--method", "eszsl"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and re.match(r"error: eszsl: the ridge solve for t=\d+, d=\d+, N=\d+ .* \d+ bytes", err[0])
    assert not (tmp_path / "eszsl" / "model.json").exists()
    assert not (tmp_path / "eszsl" / "model.npy").exists()


def test_train_eszsl_negative_gamma_exits_1_with_error_line(workspace, tmp_path, capsys):
    argv = ["train", "--manifest", workspace["manifest"], "--out", tmp_path / "eszsl"] + TRAIN_OVERRIDES
    code = run(argv + ["--method", "eszsl", "--gamma=-1e-3"])  # argparse reads a bare "-1e-3" as an option
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: gamma must be > 0, got -0.001"]
    assert not (tmp_path / "eszsl" / "model.json").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--method", "eszsl", "--gamma", "-1e-3"], "error: gamma must be > 0, got -0.001"),
        (["--method", "eszsl", "--lam", "-1e-3"], "error: lam must be > 0, got -0.001"),
    ],
    ids=["gamma", "lam"],
)
def test_negative_exponent_value_after_a_space_reaches_the_value_check(workspace, tmp_path, capsys, flags, message):
    argv = ["train", "--manifest", workspace["manifest"], "--out", tmp_path / "out"] + TRAIN_OVERRIDES + flags
    assert run(argv) == 1
    assert capsys.readouterr().err.strip().splitlines() == [message]
    assert not (tmp_path / "out" / "model.json").exists()


def test_negative_tsm_weights_after_a_space_train_as_the_equals_form(workspace, tmp_path):
    base = ["train", "--manifest", workspace["manifest"]] + TRAIN_OVERRIDES + ["--aggregator", "tsm"]
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run(base + ["--out", spaced, "--tsm-weights", "-0.5,1,0.5"]) == 0
    assert run(base + ["--out", joined, "--tsm-weights=-0.5,1,0.5"]) == 0
    configs = [json.loads((out / "effective_config.json").read_text()) for out in (spaced, joined)]
    assert configs[0]["tsm_weights"] == configs[1]["tsm_weights"] == [-0.5, 1.0, 0.5]
    files = [snapshot(out) for out in (spaced, joined)]
    for tree in files:
        del tree["effective_config.json"]  # names its own --out
    assert files[0] == files[1]


def test_option_followed_by_another_option_still_exits_2(workspace, tmp_path, capsys):
    argv = ["train", "--manifest", workspace["manifest"], "--out", tmp_path / "out", "--method", "eszsl"]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--gamma", "--lam", "1"])
    assert exc.value.code == 2
    assert "argument --gamma: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, kind",
    [
        (["sweep", "--values", "8,x"], "--values", "integers"),
        (["sweep", "--values", "8,,4"], "--values", "integers"),
        (["train", "--ks", "1,a"], "--ks", "integers"),
        (["train", "--tsm-weights", "1,x,2"], "--tsm-weights", "numbers"),
        (["baseline", "--classes", "5", "--ks", "1,x"], "--ks", "integers"),
    ],
    ids=["values-x", "values-empty", "train-ks", "tsm-weights", "baseline-ks"],
)
def test_a_malformed_list_flag_exits_2_naming_the_flag(workspace, tmp_path, capsys, argv, flag, kind):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--manifest", workspace["manifest"], "--out", out])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.endswith(f"error: argument {flag}: expected comma-separated {kind}, got {argv[-1]!r}")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["train", "--aggregator", "tsm", "--tsm-weights", "1,2"], "exactly 3 weights, got 2"),
        (["train", "--ks", "0,1"], "got [0, 1]"),
        (["sweep", "--values", "0"], "d_t must be >= 1, got 0"),
    ],
    ids=["two-weights", "k-0", "d_t-0"],
)
def test_a_list_flag_out_of_range_still_exits_1(workspace, tmp_path, capsys, argv, named):
    code = run(argv + ["--manifest", workspace["manifest"], "--out", tmp_path / "out"] + TRAIN_OVERRIDES[:-2])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]


@pytest.mark.parametrize(
    "key, value, kind",
    [("d_t", "8", "an integer"), ("epochs", 2.5, "an integer"), ("ks", "12", "a list of integers"),
     ("use_hand", "no", "true or false"), ("method", "svm", 'one of "lle", "eszsl", "sae"'),
     ("embedding", "foo", 'one of "attr", "text", "combined"'), ("aggregator", "max", 'one of "avgpool", "tsm"'),
     ("lam", float("nan"), "a number"), ("gamma", float("inf"), "a number"),
     ("tsm_weights", [1, float("-inf"), 1], "a list of numbers")],
    ids=["d_t-string", "epochs-float", "ks-string", "use_hand-string", "method-svm", "embedding-foo",
         "aggregator-max", "lam-NaN", "gamma-Infinity", "tsm_weights--Infinity"],
)
def test_a_config_value_of_the_wrong_type_exits_2_naming_the_key(workspace, tmp_path, capsys, key, value, kind):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 1, "repeats": 1, key: value}))
    out = tmp_path / "out"
    assert run(["train", "--config", config, "--manifest", workspace["manifest"], "--out", out]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: config {config}: key {key!r} must be {kind}, got {json.dumps(value)}"]
    assert not out.exists()


def _copy_model(workspace, dest: Path) -> Path:
    dest.mkdir()
    for name in ("model.json", "model.npy"):
        (dest / name).write_bytes((workspace["train"] / name).read_bytes())
    return dest / "model.json"


def _inline_w(path: Path) -> None:
    doc = json.loads(path.read_text())
    flat = np.load(path.with_suffix(".npy"))
    d, t = doc["d"], doc["t"]
    doc["W"], doc["M"] = flat[: d * t].tolist(), flat[d * t :].tolist() if doc["has_M"] else None
    for key in ("has_M", "weights", "weights_crc32"):
        del doc[key]
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


@pytest.mark.parametrize(
    "damage, code",
    [
        pytest.param(lambda p: p.with_suffix(".npy").unlink(), 2, id="npy-missing"),
        pytest.param(lambda p: p.with_suffix(".npy").write_bytes(b"garbage" * 30), 3, id="npy-garbage"),
        pytest.param(lambda p: p.with_suffix(".npy").write_bytes(p.with_suffix(".npy").read_bytes()[:-8]), 3, id="npy-truncated"),
        pytest.param(lambda p: np.save(p.with_suffix(".npy"), np.load(p.with_suffix(".npy")).astype(np.float32)), 3, id="npy-float32"),
        pytest.param(lambda p: np.save(p.with_suffix(".npy"), np.load(p.with_suffix(".npy"))[1:]), 3, id="npy-wrong-size"),
        pytest.param(lambda p: np.save(p.with_suffix(".npy"), np.load(p.with_suffix(".npy")) * 2.0), 3, id="npy-crc"),
        pytest.param(_inline_w, 3, id="inline-W"),
    ],
)
def test_damaged_model_file_exit_codes(workspace, tmp_path, capsys, damage, code):
    model = _copy_model(workspace, tmp_path / "m")
    damage(model)
    argv = ["eval", "--manifest", workspace["manifest"], "--model", model, "--out", tmp_path / "e"]
    assert run(argv + TRAIN_OVERRIDES) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "e" / "report.json").exists()


# each changes one header field outside the schema; the error line names the model file and the field
_HEADER_FIELDS = {
    "final_loss-missing": (lambda doc: doc.pop("final_loss"), "missing or corrupts a schema field: 'final_loss'"),
    "hyperparams-5": (lambda doc: doc.update(hyperparams=5), "hyperparams must be an object of numbers, got 5"),
    "epochs-null": (lambda doc: doc.update(epochs=None), "epochs must be an integer >= 0, got None"),
    "seed-x": (lambda doc: doc.update(seed="x"), "seed must be an integer >= 0, got 'x'"),
    "d-1e999": (lambda doc: doc.update(d=1e999), "d must be an integer >= 1, got inf"),
}


@pytest.mark.parametrize("field", sorted(_HEADER_FIELDS))
def test_a_header_field_outside_the_schema_exits_3_naming_the_model_file(workspace, tmp_path, capsys, field):
    change, message = _HEADER_FIELDS[field]
    model = _copy_model(workspace, tmp_path / "m")
    doc = json.loads(model.read_text())
    change(doc)
    model.write_text(json.dumps(doc))
    out = tmp_path / "e"
    assert run(["eval", "--manifest", workspace["manifest"], "--model", model, "--out", out] + TRAIN_OVERRIDES) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: model file {model}") and err[0].endswith(message)
    assert not out.exists()


def test_malformed_manifest_field_exits_2(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    assert run(SYNTH_ARGS + ["--out", data]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest["samples"][0]["pack"]
    manifest["samples"][0]["body"] = 5
    (data / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    code = run(["train", "--manifest", data / "manifest.json", "--out", tmp_path / "t"] + TRAIN_OVERRIDES)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "field 'body' must be a relative file path" in err[0]


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(lambda m: m.update(split=5), "manifest field 'split': expected an object, got int", id="split-int"),
        pytest.param(
            lambda m: m.update(split=["mode"]), "manifest field 'split': expected an object, got list", id="split-list"
        ),
        pytest.param(
            lambda m: m["split"].update(seen=[["c000"]]),
            "split field 'seen': expected a list of class id strings",
            id="seen-nested",
        ),
        pytest.param(
            lambda m: m["split"].update(seen=3), "split field 'seen': expected a list of class id strings", id="seen-int"
        ),
        pytest.param(
            lambda m: m["classes"][0].update(id=["c000"]),
            "class entry: field 'id' must be a string, got list",
            id="class-id-list",
        ),
        pytest.param(
            lambda m: m["samples"][0].update(class_id={"id": "c000"}),
            "sample 'c000_s00': field 'class_id' must be a string, got dict",
            id="sample-class_id-object",
        ),
        pytest.param(
            lambda m: m.update(attribute_count=True),
            "manifest field 'attribute_count': expected positive integer, got True",
            id="attribute_count-true",
        ),
        pytest.param(
            lambda m: m["samples"][0].update(id=7), "sample entry: field 'id' must be a string, got int", id="sample-id-int"
        ),
    ],
)
def test_a_manifest_field_of_the_wrong_json_type_exits_2_naming_it(workspace, tmp_path, capsys, change, message):
    data_dir = Path(shutil.copytree(workspace["manifest"].parent, tmp_path / "data"))
    manifest = json.loads((data_dir / "manifest.json").read_text())
    change(manifest)
    (data_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParseError) as info:
        load_dataset(data_dir / "manifest.json")
    assert str(info.value) == message
    capsys.readouterr()
    argv = ["eval", "--manifest", data_dir / "manifest.json", "--model", workspace["model"], "--out", tmp_path / "e"]
    assert run(argv + TRAIN_OVERRIDES) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]


def test_analyze_text_model_exits_4(workspace, tmp_path):
    train_text = tmp_path / "train_text"
    argv = ["train", "--manifest", workspace["manifest"], "--out", train_text] + TRAIN_OVERRIDES
    argv[argv.index("combined")] = "text"
    assert run(argv) == 0
    code = run(
        ["analyze", "--manifest", workspace["manifest"], "--model", train_text / "model.json", "--out", tmp_path / "a4", "--correct"]
        + TRAIN_OVERRIDES
    )
    assert code == 4


def test_train_rerun_is_byte_identical(workspace, tmp_path):
    out = tmp_path / "det"
    argv = ["train", "--manifest", workspace["manifest"], "--out", out] + TRAIN_OVERRIDES
    assert run(argv) == 0
    first = snapshot(out)
    assert {"model.json", "model.npy", "training_log.csv"} <= set(first)
    assert run(argv) == 0
    assert snapshot(out) == first


def test_baseline_command(tmp_path, capsys):
    out = tmp_path / "base"
    code = run(["baseline", "--classes", "50", "--out", out])
    assert code == 0
    payload = json.loads((out / "baseline.json").read_text())
    assert payload == {"n_classes": 50, "per_k": {"1": 2.0, "2": 4.0, "5": 10.0}}
    assert "random" in capsys.readouterr().out


def test_baseline_from_manifest(workspace, tmp_path, capsys):
    out = tmp_path / "base"
    assert run(["baseline", "--manifest", workspace["manifest"], "--ks", "1,3,5", "--out", out]) == 0
    assert "random" in capsys.readouterr().out
    # ZSL candidates: the 4 unseen classes; k = 5 covers them all
    payload = json.loads((out / "baseline.json").read_text())
    assert payload == {"n_classes": 4, "per_k": {"1": 25.0, "3": 75.0, "5": 100.0}}


def test_baseline_from_manifest_checks_every_file_but_pools_none(workspace, tmp_path, monkeypatch, capsys):
    pooled = []
    monkeypatch.setattr(experiment, "embed_video", lambda *args: pooled.append(args))
    assert run(["baseline", "--manifest", workspace["manifest"]]) == 0
    assert pooled == []
    # the last sample's frames are still read and checked: its pack block, and in the CSV layout its file
    data_dir = Path(shutil.copytree(workspace["manifest"].parent, tmp_path / "data"))
    manifest = data_dir / "manifest.json"
    last = json.loads(manifest.read_text())["samples"][-1]
    npy = manifest.with_suffix(".pack.npy")
    values = np.load(npy)
    values[last["pack"]["body"]["offset"]] += 1.0
    np.save(npy, values)
    capsys.readouterr()
    assert run(["baseline", "--manifest", manifest]) == 2
    assert capsys.readouterr().err.startswith(f"error: sample {last['id']!r} body: feature pack {npy} does not hold")
    write_csv_layout(load_dataset(workspace["manifest"]), data_dir)
    (data_dir / "features" / f"{last['id']}_body.csv").write_text("1.0,oops\n", encoding="utf-8")
    assert run(["baseline", "--manifest", manifest]) == 2
    assert "not a number: 'oops'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--classes", "5", "--ks", "0,1"], "k=0"),
        (["--classes", "5", "--ks", "1,-2"], "k=-2"),
        (["--classes", "0"], "n_classes=0"),
        (["--classes", "-3"], "n_classes=-3"),
    ],
)
def test_baseline_rejects_nonpositive_k_and_class_count(argv, named, tmp_path, capsys):
    out = tmp_path / "base"
    assert run(["baseline", *argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not (out / "baseline.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "one of the arguments --manifest --classes is required"),
        (["--manifest", "MANIFEST", "--classes", "7"], "argument --classes: not allowed with argument --manifest"),
    ],
    ids=["neither", "both"],
)
def test_baseline_takes_its_class_count_from_exactly_one_of_manifest_and_classes(
    workspace, tmp_path, monkeypatch, capsys, argv, message
):
    opened = _spy_on_inputs(monkeypatch)
    out = tmp_path / "base"
    with pytest.raises(SystemExit) as exc:
        run(["baseline", *[workspace["manifest"] if a == "MANIFEST" else a for a in argv], "--out", out])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {message}")
    assert opened == [] and not out.exists()


@pytest.mark.parametrize("config", [False, True], ids=["flags", "config"])
def test_analyze_refuses_min_affiliation_with_confusions_before_any_input(workspace, tmp_path, monkeypatch, capsys,
                                                                         config):
    # the summary is of correct-confidence rows only, so with --confusions the flag would be dropped
    opened = _spy_on_inputs(monkeypatch)
    out = tmp_path / "out"
    argv = ["analyze", "--manifest", workspace["manifest"], "--model", workspace["model"], "--out", out,
            "--confusions", "2", "--min-affiliation", "1"]
    if config:
        (tmp_path / "run.json").write_text('{"repeats": 1}')
        argv += ["--config", tmp_path / "run.json"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: zslsign analyze ")
    assert err[-1] == "zslsign analyze: error: argument --min-affiliation: not allowed with argument --confusions"
    assert opened == [] and not out.exists()


@pytest.mark.parametrize("embedding", ["attr", "combined"])
def test_sweep_refuses_any_param_but_d_t_at_parse_time(workspace, tmp_path, monkeypatch, capsys, embedding):
    # the --param error comes first, whatever the mode: attr alone would be refused later as no text to sweep
    opened = _spy_on_inputs(monkeypatch)
    out = tmp_path / "sweep"
    argv = ["sweep", "--manifest", workspace["manifest"], "--out", out, "--embedding", embedding]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--param", "gamma", "--values", "1,2"])
    assert exc.value.code == 2
    assert "error: argument --param: invalid choice: 'gamma'" in capsys.readouterr().err.splitlines()[-1]
    assert opened == [] and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["baseline", "--classes", "5", "--trials", "10"],
        ["baseline", "--classes", "5", "--seed", "1"],
        ["baseline", "--classes", "5", "--sizes", "1,2"],
        ["baseline", "--classes", "5", "--samples-per-class", "3"],
        ["eval", "--model", "m.json", "--random-baseline", "--trials", "10"],
    ],
)
def test_removed_baseline_flags_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("gzsl", [False, True])
def test_predict_and_eval_agree_on_top1_per_class(workspace, tmp_path, gzsl):
    manifest = workspace["manifest"]
    if gzsl:
        data = tmp_path / "data_gzsl"
        assert run(SYNTH_ARGS + ["--out", data, "--gzsl"]) == 0
        manifest = data / "manifest.json"
    common = ["--manifest", manifest, "--model", workspace["model"]] + TRAIN_OVERRIDES
    assert run(["predict", "--out", tmp_path / "pred"] + common) == 0
    assert run(["eval", "--out", tmp_path / "eval"] + common) == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert (report["seen_per_k"] is not None) == gzsl

    rows = [r.split(",") for r in (tmp_path / "pred" / "predictions.csv").read_text().splitlines()[1:]]
    by_class: dict[str, list[int]] = {}
    for _sid, truth, predicted, rank in rows:
        assert (predicted == truth) == (rank == "1")
        by_class.setdefault(truth, []).append(int(rank))
    assert set(by_class) == set(report["per_class"])
    for cid, ranks in by_class.items():
        assert min(ranks) >= 1
        assert sum(r == 1 for r in ranks) / len(ranks) == report["per_class"][cid]["1"]


def test_sweep_command(workspace, tmp_path):
    out = tmp_path / "sweep"
    code = run(
        [
            "sweep",
            "--manifest", workspace["manifest"],
            "--out", out,
            "--values", "2,4",
            "--repeats", "2",
        ]
        + TRAIN_OVERRIDES[:-2]
        + ["--epochs", "60"]
    )
    assert code == 0
    rows = (out / "sweep_d_t.csv").read_text().strip().splitlines()
    assert rows[0] == "d_t,mean_val_top1,stddev"
    assert len(rows) == 3
    values = [int(r.split(",")[0]) for r in rows[1:]]
    assert values == [2, 4]
    # planted structure: every swept width beats the random baseline
    for row in rows[1:]:
        assert float(row.split(",")[1]) > 100.0 / 2  # two validation classes


def _without_samples(manifest: Path, role: str) -> Path:
    """A copy of the manifest, beside it, without the samples of the role's classes.

    The manifest's split is ZSL, so the candidate classes are the unseen ones.
    """
    doc = json.loads(manifest.read_text())
    classes = set(doc["split"]["unseen" if role == "candidate" else role])
    doc["samples"] = [s for s in doc["samples"] if s["class_id"] not in classes]
    path = manifest.with_name(f"no_{role}_samples.json")
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "role, commands",
    [
        ("seen", [["train", "--method", "lle"], ["train", "--method", "eszsl"], ["train", "--method", "sae"],
                  ["train", "--repeats", "2"], ["sweep", "--values", "2,4"]]),
        ("validation", [["sweep", "--values", "2,4"]]),
        ("candidate", [["predict"], ["eval"], ["analyze", "--correct"], ["analyze", "--confusions", "2"]]),
    ],
)
def test_a_role_without_samples_exits_1_naming_it(workspace, tmp_path, capsys, role, commands):
    manifest = _without_samples(workspace["manifest"], role)
    message = "error: no seen samples to train on" if role == "seen" else f"error: no {role} samples to evaluate"
    for i, command in enumerate(commands):
        out = tmp_path / str(i)
        model = ["--model", workspace["model"]] if command[0] in ("predict", "eval", "analyze") else []
        argv = command[:1] + TRAIN_OVERRIDES + command[1:] + model + ["--manifest", manifest, "--out", out]
        capsys.readouterr()
        assert run(argv) == 1, command
        assert capsys.readouterr().err.strip().splitlines() == [message], command
        assert not out.exists(), command  # a refused view comes before the output directory


_WORK_STARTS = {
    experiment: ("train_lle", "train_eszsl", "train_sae", "rank_samples", "map_jobs"),
    cli: ("rank_samples", "class_influence_matrix", "confusion_influence_matrix"),
}


@pytest.mark.parametrize(
    "command, started",
    [
        (["train", "--method", "lle"], ["map_jobs", "train_lle"]),
        (["train", "--method", "sae"], ["map_jobs", "train_sae"]),
        (["train", "--method", "eszsl", "--repeats", "2"], ["map_jobs", "train_eszsl"]),
        (["train", "--repeats", "2"], ["map_jobs", "train_lle", "train_lle"]),
        (["predict"], ["rank_samples"]),
        (["eval"], ["rank_samples"]),
        (["analyze", "--correct"], ["class_influence_matrix"]),
        (["analyze", "--confusions", "2"], ["confusion_influence_matrix"]),
        (["sweep", "--values", "2,4", "--repeats", "1"], ["map_jobs"] + ["train_lle", "rank_samples"] * 2),
    ],
    ids=["train", "train-sae", "train-eszsl-repeats", "train-repeats", "predict", "eval", "analyze-correct",
         "analyze-confusions", "sweep"],
)
def test_the_loaded_dataset_is_freed_before_the_work_starts(workspace, tmp_path, monkeypatch, command, started):
    # a weak reference to the frames of every sample the command reads must be dead when the reader
    # reads the next one, and when a trainer, the ranking, an influence analysis or the worker pool
    # starts: only the embeddings are left
    loaded, calls = [], []
    read_sample = data.DatasetReader._read_sample

    def tracked_read(reader, entry):
        assert all(ref() is None for ref in loaded), "a sample was read with an earlier one's frames alive"
        record = read_sample(reader, entry)
        sample_id, _, body, hand = record
        assert sample_id == entry["id"] and (hand is None) == (entry.get("hand") is None)
        loaded.extend(weakref.ref(frames) for frames in (body, hand) if frames is not None)
        return record

    monkeypatch.setattr(data.DatasetReader, "_read_sample", tracked_read)

    def guard(module, name):
        original = getattr(module, name)

        def guarded(*args, **kwargs):
            calls.append(name)
            assert loaded and all(ref() is None for ref in loaded), f"{name} started with a sample alive"
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, guarded)

    for module, names in _WORK_STARTS.items():
        for name in names:
            guard(module, name)
    monkeypatch.setattr(pool, "usable_cpus", lambda: 1)  # every job in this process, so guarded
    model = workspace["model"]
    if "--confusions" in command:
        model = train_weak_model(workspace, tmp_path / "weak")  # it misclassifies, so confusions exist
        loaded.clear()
        calls.clear()
    argv = command[:1] + TRAIN_OVERRIDES + command[1:]  # the command's own flags come last, so they win
    argv += ["--manifest", workspace["manifest"], "--out", tmp_path / "out"]
    if command[0] in ("predict", "eval", "analyze"):
        argv += ["--model", model]
    assert run(argv) == 0
    # each sample read once: the workspace samples have a body and no hand
    assert len(loaded) == len(json.loads(workspace["manifest"].read_text())["samples"])
    assert calls == started


SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env() -> dict[str, str]:
    """The environment for a child Python that imports zslsign from this checkout's src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_sweep_csv_bytes_do_not_depend_on_the_worker_count(workspace, tmp_path, monkeypatch):
    argv = ["sweep", "--manifest", workspace["manifest"], "--values", "2,3,4", "--repeats", "3"]
    argv += TRAIN_OVERRIDES[:-2] + ["--epochs", "60"]
    csv = {}
    for cpus in (1, 2):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        assert run(argv + ["--out", tmp_path / str(cpus)]) == 0
        csv[cpus] = (tmp_path / str(cpus) / "sweep_d_t.csv").read_bytes()
    assert csv[1] == csv[2]


@pytest.mark.parametrize("method, trainer", [("eszsl", "train_eszsl"), ("sae", "train_sae")])
def test_train_repeats_of_a_closed_form_fit_once(workspace, tmp_path, monkeypatch, method, trainer):
    calls = []
    original = getattr(experiment, trainer)
    monkeypatch.setattr(experiment, trainer, lambda *a, **kw: calls.append(1) or original(*a, **kw))
    monkeypatch.setattr(pool, "usable_cpus", lambda: 1)  # every fit in this process, so counted
    base = ["train", "--manifest", workspace["manifest"], "--method", method] + TRAIN_OVERRIDES[:-2]
    assert run(base + ["--out", tmp_path / "one", "--repeats", "1"]) == 0
    assert run(base + ["--out", tmp_path / "three", "--repeats", "3"]) == 0
    assert len(calls) == 2  # one fit per command
    one, three = tmp_path / "one", tmp_path / "three"
    weights = (one / "model.npy").read_bytes()
    header = json.loads((one / "model.json").read_text())
    for r in range(3):
        assert (three / f"model_r{r}.npy").read_bytes() == weights
        assert json.loads((three / f"model_r{r}.json").read_text()) == dict(header, weights=f"model_r{r}.npy")
        assert (three / f"training_log_r{r}.csv").read_bytes() == (one / "training_log.csv").read_bytes()
    summary = json.loads((three / "summary.json").read_text())
    assert summary["final_losses"] == [header["final_loss"]] * 3
    assert summary["final_loss_mean"] == float(np.mean([header["final_loss"]] * 3))


@pytest.fixture(scope="module")
def default_manifest(tmp_path_factory):
    """A dataset at the SynthSpec defaults: text width 8."""
    data = tmp_path_factory.mktemp("default") / "data"
    assert run(["synth", "--out", data, "--seed", "0"]) == 0
    return data / "manifest.json"


@pytest.mark.parametrize("cpus, values", [(1, "4"), (2, "8,4")])
def test_a_training_jobs_typed_error_keeps_its_exit_code(default_manifest, tmp_path, monkeypatch, capsys, cpus, values):
    # "8,4" on two CPUs raises in a worker, after another worker's fit succeeded; the run config passes
    # every check made before the fits, so the error is the fit's own
    train_lle = experiment.train_lle

    def refuse_d_t_4(features, labels, classes, **hyperparameters):
        if classes.mode.d_t == 4:
            raise MissingReduction("the fit at d_t=4 needs a reduction matrix")
        return train_lle(features, labels, classes, **hyperparameters)

    monkeypatch.setattr(experiment, "train_lle", refuse_d_t_4)
    monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
    argv = ["sweep", "--manifest", default_manifest, "--out", tmp_path, "--embedding", "combined",
            "--values", values, "--repeats", "2", "--epochs", "5"]
    assert run(argv) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: the fit at d_t=4 needs a reduction matrix"]
    assert not (tmp_path / "sweep_d_t.csv").exists()


_DYING_WORKER = """
import importlib, os, sys
from zslsign import pool
from zslsign.cli import main

def die(*args):
    os._exit(7)

module, name = sys.argv[1].split(":")
setattr(importlib.import_module(module), name, die)
pool.usable_cpus = lambda: 2
sys.exit(main(sys.argv[2:]))
"""


def _run_with_dying_worker(job: str, argv) -> subprocess.CompletedProcess:
    """Run the CLI in a child whose pool job `job` ("module:function") kills its worker."""
    return subprocess.run(
        [sys.executable, "-c", _DYING_WORKER, job, *map(str, argv)],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )


def _assert_one_worker_error_line(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 1
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "worker" in err[0]


def test_a_worker_that_dies_exits_1_with_one_error_line(workspace, tmp_path):
    argv = ["sweep", "--manifest", workspace["manifest"], "--out", tmp_path, "--values", "2,4", "--repeats", "2"]
    argv += TRAIN_OVERRIDES[:-2]
    _assert_one_worker_error_line(_run_with_dying_worker("zslsign.experiment:_validation_top1", argv))
    assert not (tmp_path / "sweep_d_t.csv").exists()


def test_a_synth_that_dies_writing_its_pack_leaves_no_manifest(tmp_path):
    out = tmp_path / "data"
    proc = _run_with_dying_worker("zslsign.data:write_vector", ["synth", "--out", out, "--seed", "0"])
    assert proc.returncode == 7, proc.stderr
    assert out.is_dir() and not (out / "manifest.json").exists()
    assert not (out / "manifest.pack.json").exists()


# Runs the CLI with an audit hook that prints each file a command opens for writing, in order.
_CREATION_SPY = """
import os, sys
from zslsign.cli import main

def spy(event, args):
    if event == "open" and args[0] is not None and not isinstance(args[0], int):
        mode, flags = args[1], args[2]
        if ("w" in mode or "x" in mode or "a" in mode) if mode else flags & (os.O_WRONLY | os.O_RDWR):
            print("created", os.fspath(args[0]), flush=True)

sys.addaudithook(spy)
sys.exit(main(sys.argv[1:]))
"""


def test_synth_writes_its_manifest_last(tmp_path):
    # a synth cut short before the manifest leaves no new manifest beside a missing or stale spec or planted map
    out = tmp_path / "data"
    proc = subprocess.run(
        [sys.executable, "-c", _CREATION_SPY, *map(str, SYNTH_ARGS), "--out", str(out)],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    created = [Path(line.split(" ", 1)[1]).name for line in proc.stdout.splitlines() if line.startswith("created ")]
    assert sorted(created) == sorted(snapshot(out)) and len(created) == 5
    assert created[-1] == "manifest.json"


def test_two_synths_with_the_same_seed_write_identical_trees(tmp_path):
    for tree in ("a", "b"):
        assert run(SYNTH_ARGS + ["--out", tmp_path / tree]) == 0
    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")
    assert len(snapshot(tmp_path / "a")) == 5


def test_synth_calls_the_generate_bound_on_the_cli_module(tmp_path, monkeypatch):
    # synth is imported on first use, but a replacement bound on zslsign.cli (a tracer's) is still the one called
    from zslsign import cli

    seeds = []
    generate = cli.generate
    monkeypatch.setattr(cli, "generate", lambda spec: seeds.append(spec.seed) or generate(spec))
    assert run(SYNTH_ARGS + ["--out", tmp_path]) == 0
    assert seeds == [5]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name


@pytest.mark.parametrize("flag, key", [("--noise", "noise_sigma"), ("--scale", "planted_map_scale")])
def test_synth_refuses_a_non_finite_value_before_writing(tmp_path, capsys, flag, key):
    out = tmp_path / "data"
    assert run(SYNTH_ARGS + [flag, "nan", "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {key} must be finite, got nan"]
    assert not out.exists()


_COMMAND_ONLY_MODULES = ("multiprocessing", "concurrent.futures", "zslsign.synth", "zslsign.influence", "zslsign.oracles")


def test_importing_the_cli_loads_no_process_pool():
    # nor the modules that only some commands run: synth, the influence analysis and the reference oracles
    code = f"import sys, zslsign.cli; print(sorted(m for m in {_COMMAND_ONLY_MODULES!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("method", ["eszsl", "sae"])
def test_training_a_closed_form_loads_no_oracle(workspace, tmp_path, method):
    # the reference oracles pin the closed forms in the tests; no fit reads them
    argv = ["train", "--manifest", workspace["manifest"], "--out", tmp_path, "--method", method] + TRAIN_OVERRIDES
    code = (
        f"import sys; from zslsign.cli import main; code = main({list(map(str, argv))!r}); "
        "print(code, 'zslsign.oracles' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_importing_the_cli_leaves_the_collector_on_and_unfrozen():
    # the import-time pause of the collector is only for `python -m zslsign.cli`
    code = "import gc, zslsign.cli; print(gc.isenabled(), gc.get_freeze_count())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True 0\n", "")


def test_console_entry_point_help():
    # the child gets src/ on its path too, so the test passes from an uninstalled checkout
    proc = subprocess.run(
        [sys.executable, "-m", "zslsign.cli", "--help"], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0
    for sub in ("synth", "train", "predict", "eval", "analyze", "baseline", "sweep"):
        assert sub in proc.stdout


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("classes, code", [("10", 0), ("0", 1)], ids=["success", "refusal"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled, classes, code):
    # only the process entry, run(), freezes the heap; an in-process caller's collector stays its own
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert run(["baseline", "--classes", classes, "--out", tmp_path]) == code
        assert gc.isenabled() is enabled and gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


# what each process entry runs after its imports: `python -m zslsign.cli` (as runpy runs it) and the script's run()
_ENTRY_CODE = {
    "module": "import runpy; runpy.run_module('zslsign.cli', run_name='__main__', alter_sys=True)",
    "run": "import zslsign.cli; sys.exit(zslsign.cli.run())",
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_CODE))
def test_a_process_entry_runs_the_command_on_a_frozen_heap_with_the_collector_on(tmp_path, capsys, entry):
    assert main(["baseline", "--classes", "4"]) == 0
    main_stdout = capsys.readouterr().out.splitlines()
    code = (
        "import atexit, gc, sys; atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0)); "
        f"sys.argv[1:] = ['baseline', '--classes', '4']; {_ENTRY_CODE[entry]}"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    *printed, state = proc.stdout.splitlines()
    assert printed == main_stdout and state == "True True"


# the process entries of `python -m zslsign.cli` and of the `zslsign` script
_ENTRIES = {
    "module": ["-m", "zslsign.cli"],
    "run": ["-c", "import sys; from zslsign.cli import run; sys.exit(run())"],
}
# by exit code: a success that writes a tree, a missing manifest, a model header without final_loss
_ENTRY_CASES = {
    0: ["synth", "--classes", "6", "--seen", "3", "--unseen", "2", "--samples-per-class", "2", "--out", "out"],
    2: ["train", "--manifest", "absent.json", "--out", "out", "--repeats", "1"],
    3: ["eval", "--manifest", "absent.json", "--model", "model/model.json", "--out", "out"],
}


@pytest.mark.parametrize("code", sorted(_ENTRY_CASES))
def test_the_process_entries_exit_print_and_write_as_main_does(workspace, tmp_path, monkeypatch, capsys, code):
    def case(name: str) -> Path:
        directory = tmp_path / name
        directory.mkdir()
        if code == 3:
            model = _copy_model(workspace, directory / "model")
            model.write_text(json.dumps({k: v for k, v in json.loads(model.read_text()).items() if k != "final_loss"}))
        return directory

    monkeypatch.chdir(case("main"))
    expected = (main(_ENTRY_CASES[code]), *capsys.readouterr())
    assert expected[0] == code
    for name, entry in _ENTRIES.items():
        cwd = case(name)
        proc = subprocess.run(
            [sys.executable, *entry, *_ENTRY_CASES[code]], cwd=cwd, capture_output=True, text=True,
            env=child_env(), timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, name
        assert snapshot(cwd) == snapshot(tmp_path / "main"), name


def test_env_var_sets_default_output_root(workspace, tmp_path, monkeypatch):
    root = tmp_path / "envroot"
    monkeypatch.setenv("ZSLSIGN_OUT_ROOT", str(root))
    code = run(["train", "--manifest", workspace["manifest"]] + TRAIN_OVERRIDES[:-2] + ["--epochs", "10", "--repeats", "1"])
    assert code == 0
    assert (root / "model.json").exists()


# every input of an eval, by its path in the tree the eval runs in; None is the first sample's body CSV, in
# the CSV layout of the same dataset
_INPUTS = {
    "config": "config.json",
    "model": "model/model.json",
    "weights": "model/model.npy",
    "manifest": "data/manifest.json",
    "feature": None,
    "pack-index": "data/manifest.pack.json",
    "pack-values": "data/manifest.pack.npy",
}
_EVAL = ["eval", "--config", "config.json", "--model", "model/model.json", "--manifest", "data/manifest.json",
         "--out", "out"]


def _eval_child(cwd: Path) -> subprocess.CompletedProcess:
    # with a deadline: an open that waits for a FIFO's writer never returns
    return subprocess.run(
        [sys.executable, "-m", "zslsign.cli", *_EVAL], cwd=cwd, capture_output=True, text=True, env=child_env(),
        timeout=60,
    )


@pytest.fixture(scope="module")
def eval_tree(workspace, tmp_path_factory):
    """A tree of every input of an eval, the eval's stdout and report.json, and the path of each input."""
    root = tmp_path_factory.mktemp("inputs")
    shutil.copytree(workspace["manifest"].parent, root / "data")
    _copy_model(workspace, root / "model")
    (root / "config.json").write_text(json.dumps({"embedding": "combined", "d_t": 4}))
    intact = _eval_child(root)
    assert intact.returncode == 0, intact.stderr
    report = (root / "out" / "report.json").read_bytes()
    shutil.rmtree(root / "out")
    csv_tree = tmp_path_factory.mktemp("csv_inputs")
    shutil.copytree(root, csv_tree, dirs_exist_ok=True)
    csv_manifest = write_csv_layout(load_dataset(root / "data" / "manifest.json"), csv_tree / "data")
    rendered = _eval_child(csv_tree)  # the CSV layout evaluates to the same bytes
    assert (rendered.returncode, rendered.stdout) == (0, intact.stdout), rendered.stderr
    assert (csv_tree / "out" / "report.json").read_bytes() == report
    shutil.rmtree(csv_tree / "out")
    first = json.loads(csv_manifest.read_text())["samples"][0]
    paths = dict(_INPUTS, feature=f"data/{first['body']}")
    return (root, csv_tree), intact.stdout, report, paths, f"sample {first['id']!r}"


def _case(eval_tree, tmp_path: Path, kind: str) -> Path:
    """A copy of the eval's tree, in the CSV layout if the case damages a feature CSV."""
    case = tmp_path / "case"
    shutil.copytree(eval_tree[0][kind == "feature"], case)
    return case


def _fifo(path: Path) -> None:
    path.unlink()
    os.mkfifo(path)


def _directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("special", [_fifo, _directory], ids=["fifo", "directory"])
@pytest.mark.parametrize("kind", list(_INPUTS))
def test_an_input_that_is_a_fifo_or_a_directory_never_blocks(eval_tree, tmp_path, kind, special):
    if special is _fifo and not hasattr(os, "mkfifo"):
        pytest.skip("the platform has no FIFOs")
    _, stdout, report, paths, sample = eval_tree
    case = _case(eval_tree, tmp_path, kind)
    special(case / paths[kind])
    proc = _eval_child(case)
    if kind == "pack-index":  # an unusable index: the manifest is parsed, to the same output
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == stdout
        assert (case / "out" / "report.json").read_bytes() == report
        return
    what = {"config": "config file", "model": "model file", "weights": "model weights file",
            "manifest": "manifest", "feature": f"{sample} body: feature file",
            "pack-values": f"{sample} body: feature pack"}[kind]
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [f"error: {what} not found: {Path(paths[kind])}"]
    assert proc.stdout == "" and not (case / "out").exists()


def _rewrite(text: str):
    return lambda path: path.write_text(text)


def _append_blank_line(path: Path) -> None:
    path.write_text(path.read_text() + "\n")  # the same rows, other bytes


_LOAD_FAULTS = [  # (input, damage, exit code)
    ("feature", Path.unlink, 2),
    ("feature", _fifo, 2),
    ("feature", _append_blank_line, 0),
    ("feature", _rewrite("1.0,oops\n"), 2),
    ("feature", _rewrite("nan\n"), 2),  # an invariant, raised after the last sample
    ("manifest", _fifo, 2),
    ("manifest", _directory, 2),
    ("manifest", _rewrite("{"), 2),
    ("config", _fifo, 2),
    ("config", _rewrite("{"), 2),
    ("model", _fifo, 2),
    ("model", _rewrite("{"), 3),
    ("weights", _fifo, 2),
    ("weights", _rewrite("garbage"), 3),
    ("pack-index", _fifo, 0),
    ("pack-index", _rewrite("garbage"), 0),
    ("pack-values", _directory, 2),
    ("pack-values", _rewrite("garbage"), 2),
    ("pack-values", Path.unlink, 2),
]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd (Linux)")
def test_no_load_leaves_a_descriptor_open(eval_tree, tmp_path, monkeypatch, capsys):
    # a raw descriptor left open raises no ResourceWarning, so this process's descriptors are listed instead
    paths = eval_tree[3]
    cases = []
    for i, (kind, damage, code) in enumerate(_LOAD_FAULTS):
        case = _case(eval_tree, tmp_path / str(i), kind)
        damage(case / paths[kind])
        cases.append((case, code))
    monkeypatch.chdir(_case(eval_tree, tmp_path / "first", "manifest"))
    assert run(_EVAL) == 0  # whatever a first eval opens for good (imports, BLAS) is open before the listing
    before = sorted(os.listdir("/proc/self/fd"))
    for case, code in cases:
        monkeypatch.chdir(case)
        assert run(_EVAL) == code, (case, capsys.readouterr().err)
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("command", [["predict"], ["eval"], ["analyze", "--correct"]])
def test_a_model_error_comes_before_a_dataset_error(tmp_path, capsys, command):
    model = tmp_path / "absent_model.json"
    assert run(command + ["--manifest", tmp_path / "absent.json", "--model", model, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: model file not found: {model}"]


def test_a_sweep_without_text_is_refused_before_the_dataset_is_read(tmp_path, capsys):
    argv = ["sweep", "--manifest", tmp_path / "absent.json", "--embedding", "attr", "--values", "2"]
    assert run(argv + ["--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: sweeping d_t needs a text-bearing embedding mode"]
    assert not (tmp_path / "o").exists()


def _spy_on_inputs(monkeypatch) -> list[Path]:
    """The path of every input opened from now on: every input goes through data.open_input."""
    opened: list[Path] = []
    real = data.open_input
    monkeypatch.setattr(data, "open_input", lambda path, what: opened.append(Path(path)) or real(path, what))
    return opened


# (command and flags, error line): each is refused by its owner's check before any input but the config
_REFUSED_CONFIGS = [
    (["train", "--method", "eszsl", "--gamma=-1e-3"], "gamma must be > 0, got -0.001"),
    (["train", "--method", "eszsl", "--lam=-1e-3"], "lam must be > 0, got -0.001"),
    (["train", "--method", "sae", "--lam-sae", "0"], "lam_sae must be > 0, got 0.0"),
    (["train", "--learning-rate=-1"], "learning_rate must be > 0, got -1.0"),
    (["train", "--epochs", "0"], "epochs must be >= 1, got 0"),
    (["train", "--init-scale", "0"], "init_scale must be > 0, got 0.0"),
    (["train", "--d-t", "0"], "d_t must be >= 1, got 0"),
    (["train", "--aggregator", "tsm", "--tsm-weights", "1,2"], "shift kernel needs exactly 3 weights, got 2"),
    (["eval", "--model", "MODEL", "--aggregator", "tsm", "--tsm-weights", "1,2"],
     "shift kernel needs exactly 3 weights, got 2"),
    (["sweep", "--embedding", "combined", "--values", "8,0"], "d_t must be >= 1, got 0"),
    (["analyze", "--model", "MODEL", "--confusions", "0"], "top_n_confusions must be >= 1, got 0"),
    (["analyze", "--model", "MODEL", "--correct", "--min-affiliation", "0"], "min_affiliation must be >= 1, got 0"),
    (["analyze", "--model", "MODEL", "--correct", "--min-affiliation=-5"], "min_affiliation must be >= 1, got -5"),
    (["baseline", "--manifest", "MANIFEST", "--ks", "0"], "top-k needs k >= 1, got k=0"),
    # a repeated value would print a column twice, or fit and write one width twice
    (["eval", "--model", "MODEL", "--ks", "1,1,2"], "ks must not repeat a value, got [1, 1, 2]"),
    (["baseline", "--classes", "5", "--ks", "2,1,2"], "top-k needs distinct k, got k=2 twice"),
    (["baseline", "--manifest", "MANIFEST", "--ks", "2,1,2"], "top-k needs distinct k, got k=2 twice"),
    (["sweep", "--embedding", "combined", "--values", "4,4"], "sweep values must not repeat, got [4, 4]"),
    (["train", "--manifest", "MISSING", "--d-t", "0"], "d_t must be >= 1, got 0"),
    (["train", "--method", "eszsl", "--lam", "inf"], "lam must be finite, got inf"),
    (["train", "--method", "eszsl", "--gamma", "nan"], "gamma must be finite, got nan"),
    (["train", "--method", "sae", "--lam-sae", "inf"], "lam_sae must be finite, got inf"),
    (["train", "--init-scale", "nan"], "init_scale must be finite, got nan"),
    (["train", "--lam", "nan"], "lam must be finite, got nan"),
    (["train", "--learning-rate", "inf"], "learning_rate must be finite, got inf"),
    (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
    # a float key the method does not read is echoed to effective_config.json, so it must be finite too
    (["train", "--gamma", "inf"], "gamma must be finite, got inf"),
    (["train", "--lam-sae", "nan"], "lam_sae must be finite, got nan"),
    (["train", "--method", "eszsl", "--learning-rate", "nan"], "learning_rate must be finite, got nan"),
    (["train", "--method", "eszsl", "--init-scale", "inf"], "init_scale must be finite, got inf"),
    (["train", "--method", "sae", "--lam=-inf"], "lam must be finite, got -inf"),
    (["train", "--tsm-weights", "1,inf,1"], "shift kernel weights must be finite, got (1.0, inf, 1.0)"),
    (["eval", "--model", "MODEL", "--method", "sae", "--gamma", "nan"], "gamma must be finite, got nan"),
]


@pytest.mark.parametrize(
    "argv, message", _REFUSED_CONFIGS, ids=["-".join(argv).replace("--", "") for argv, _ in _REFUSED_CONFIGS]
)
def test_a_bad_run_config_is_refused_before_any_input_is_read(workspace, tmp_path, monkeypatch, capsys, argv, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"manifest": str(workspace["manifest"]), "repeats": 1}))
    names = {"MODEL": workspace["model"], "MANIFEST": workspace["manifest"], "MISSING": tmp_path / "absent.json"}
    argv = [names.get(token, token) for token in argv]
    if argv[0] != "baseline":  # baseline takes no --config
        argv += ["--config", config]
    out = tmp_path / "out"
    opened = _spy_on_inputs(monkeypatch)
    assert run(argv + ["--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()
    assert opened == ([] if argv[0] == "baseline" else [config])


@pytest.mark.parametrize(
    "doc, flags, message",
    [
        ('{"repeats": 0}', ["--repeats", "0"], "repeats must be >= 1, got 0"),
        ('{"ks": [0]}', ["--ks", "0"], "ks must be nonempty positive integers, got [0]"),
        ('{"d_t": 0}', ["--d-t", "0"], "d_t must be >= 1, got 0"),
        ('{"ks": [1, 1, 2]}', ["--ks", "1,1,2"], "ks must not repeat a value, got [1, 1, 2]"),
    ],
    ids=["repeats-0", "ks-0", "d_t-0", "ks-repeated"],
)
def test_a_config_file_out_of_range_keeps_its_exit_code(workspace, tmp_path, monkeypatch, capsys, doc, flags, message):
    # a value of the right JSON type but out of range exits 1 with the same line from a file as from a flag
    config = tmp_path / "config.json"
    config.write_text(doc)
    out = tmp_path / "out"
    opened = _spy_on_inputs(monkeypatch)
    assert run(["train", "--config", config, "--manifest", workspace["manifest"], "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: " + message]
    assert opened == [config] and not out.exists()
    assert run(["train", *flags, "--manifest", workspace["manifest"], "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: " + message]
    assert opened == [config] and not out.exists()


def test_a_flag_overrides_a_config_files_out_of_range_value(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"repeats": 0, "ks": [0]}')
    out = tmp_path / "out"
    argv = ["train", "--config", config, "--manifest", workspace["manifest"], "--out", out] + TRAIN_OVERRIDES
    assert run(argv + ["--ks", "1,2"]) == 0
    effective = json.loads((out / "effective_config.json").read_text())
    assert (effective["repeats"], effective["ks"]) == (1, [1, 2])
    assert (out / "model.json").read_bytes() == workspace["model"].read_bytes()


@pytest.mark.parametrize("method", ["eszsl", "sae"])
@pytest.mark.parametrize("argv", [["train", "--d-t", "4"], ["sweep", "--values", "4,8"]], ids=["train", "sweep"])
def test_a_closed_form_off_the_text_width_is_refused_from_the_manifest(
    default_manifest, tmp_path, monkeypatch, capsys, argv, method
):
    out = tmp_path / "out"
    opened = _spy_on_inputs(monkeypatch)
    command, *flags = argv
    code = run([command, "--manifest", default_manifest, "--method", method, "--embedding", "combined", *flags,
                "--repeats", "1", "--out", out])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == ["error: mode 'combined' with d_t=4 needs a 8x4 reduction matrix"]
    assert sorted(path.name for path in opened) == ["manifest.json", "manifest.pack.json", "manifest.pack.npy"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, output",
    [(["eval"], "report.json"), (["predict"], "predictions.csv"), (["analyze", "--correct"], "influence_correct.json")],
)
def test_predict_eval_and_analyze_score_in_the_models_mode(workspace, tmp_path, command, output):
    # the fixture model is combined at d_t 4: a config's embedding and d_t are checked and echoed, not used
    base = [*command, "--manifest", workspace["manifest"], "--model", workspace["model"]]
    own, other = tmp_path / "own", tmp_path / "other"
    assert run(base + ["--out", own, "--embedding", "combined", "--d-t", "4"]) == 0
    assert run(base + ["--out", other, "--embedding", "attr", "--d-t", "3"]) == 0
    assert (own / output).read_bytes() == (other / output).read_bytes()
    effective = json.loads((other / "effective_config.json").read_text())
    cfg = experiment.RunConfig(manifest=str(workspace["manifest"]), embedding="attr", d_t=3, out_dir=str(other))
    assert effective == json.loads(json.dumps(cfg.to_dict()))


@pytest.mark.parametrize("kind, code", [("config", 2), ("model", 3), ("manifest", 2), ("feature", 2)])
def test_an_input_that_is_not_utf8_exits_naming_its_file(eval_tree, tmp_path, monkeypatch, capsys, kind, code):
    paths = eval_tree[3]
    case = _case(eval_tree, tmp_path, kind)
    damaged = case / paths[kind]
    damaged.write_bytes(damaged.read_bytes() + b"\xff\n")
    monkeypatch.chdir(case)
    assert run(_EVAL) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(Path(paths[kind])) in err[0]
    assert "can't decode byte 0xff" in err[0]
    assert not (case / "out").exists()


_UNPARSABLE = {  # JSON that the parser refuses: nested past its recursion limit, an integer past Python's digit limit
    "nested": ('{"x": ' + "[" * 10_000 + "]" * 10_000 + "}", "nested too deeply to parse"),
    "long-integer": ('{"x": ' + "1" * 5_000 + "}", "Exceeds the limit (4300"),
}


@pytest.mark.parametrize("content", sorted(_UNPARSABLE))
@pytest.mark.parametrize(
    "kind, code, what", [("config", 2, "config"), ("model", 3, "model file"), ("manifest", 2, "manifest")]
)
def test_json_the_parser_refuses_exits_naming_its_file(
    eval_tree, tmp_path, monkeypatch, capsys, kind, code, what, content
):
    text, message = _UNPARSABLE[content]
    paths = eval_tree[3]
    case = _case(eval_tree, tmp_path, kind)
    (case / paths[kind]).write_text(text)
    monkeypatch.chdir(case)
    assert run(_EVAL) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {what} {paths[kind]}: ")
    assert message in err[0]
    assert not (case / "out").exists()
