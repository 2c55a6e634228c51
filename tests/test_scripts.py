import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from zslsign.cli import main
from zslsign.models import load_model

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_synth_experiment_script(tmp_path, capsys):
    proc = run_script("run_synth_experiment.py", "--out", tmp_path, "--epochs", "20")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "data" / "manifest.json").exists()
    for method in ("lle", "eszsl", "sae"):
        header = tmp_path / f"model_{method}.json"
        assert header.with_suffix(".npy").exists()
        assert load_model(header).method.value == method
    assert "influence (correct predictions)" in proc.stdout
    # the script reads its saved dataset as the commands do: eval of its lle model prints its ZSL numbers
    script = re.search(r"^lle +ZSL +(.*)$", proc.stdout, re.MULTILINE).group(1)
    eval_out = tmp_path / "eval"
    argv = ["eval", "--manifest", tmp_path / "data" / "manifest.json", "--model", tmp_path / "model_lle.json",
            "--embedding", "combined", "--d-t", "8", "--out", eval_out]
    assert main(list(map(str, argv))) == 0
    table = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines()[:2])
    assert table["metric"].split() == re.findall(r"top-\d+", script) == ["top-1", "top-2", "top-5"]
    assert table["overall"].split() == re.findall(r"top-\d+ +([\d.]+)", script)
    assert set(os.listdir(tmp_path / "data")) == {
        f"{stem}{suffix}" for stem in ("manifest", "manifest_gzsl") for suffix in (".json", ".pack.json", ".pack.npy")
    }


def test_sweep_text_dim_script(tmp_path):
    """The text-width sweep at SynthSpec defaults, through `zslsign synth` and `zslsign sweep`."""
    data, out = tmp_path / "data", tmp_path / "sweep"
    assert main(["synth", "--out", str(data), "--seed", "0"]) == 0
    argv = ["sweep", "--manifest", str(data / "manifest.json"), "--out", str(out), "--values", "2", "--repeats", "1",
            "--epochs", "400", "--learning-rate", "0.5", "--lam", "1e-3", "--embedding", "combined", "--seed", "0"]
    assert main(argv) == 0
    rows = (out / "sweep_d_t.csv").read_text().splitlines()
    assert rows[0] == "d_t,mean_val_top1,stddev" and rows[1].startswith("2,")


def _library_use_blocks() -> list[str]:
    """The Python blocks of README's "Library use" section, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)


def test_readme_library_use_blocks_run(tmp_path, monkeypatch):
    first, second = _library_use_blocks()
    monkeypatch.chdir(tmp_path)  # the blocks write under out/
    names: dict = {}
    exec(compile(first, "README.md: Library use, block 1", "exec"), names)
    assert (tmp_path / "out" / "data" / "manifest.json").exists()
    assert names["same"].W.tobytes() == names["model"].W.tobytes()  # the trainer's own fit is train_from_config's
    assert [m.seed for m in names["repeats"]] == [1, 2]
    assert not np.array_equal(names["repeats"][0].W, names["repeats"][1].W)
    # the second block scores the first block's candidate stack
    stack = names["candidates"]
    names.update(features=stack.features, truths=stack.labels, candidates=stack.classes)
    exec(compile(second, "README.md: Library use, block 2", "exec"), names)
    assert names["ranks"].tolist() == list(names["rank_samples"](names["model"], stack)[0])
    assert names["report"].per_k == names["evaluate"](names["view"], names["model"], names["cfg"]).per_k
    assert np.allclose(names["probs"].sum(axis=1), 1.0)
