import os
import subprocess
import sys
from pathlib import Path

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


def test_run_synth_experiment_script(tmp_path):
    proc = run_script("run_synth_experiment.py", "--out", tmp_path, "--epochs", "20")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "data" / "manifest.json").exists()
    for method in ("lle", "eszsl", "sae"):
        header = tmp_path / f"model_{method}.json"
        assert header.with_suffix(".npy").exists()
        assert load_model(header).method.value == method
    assert "influence (correct predictions)" in proc.stdout


def test_sweep_text_dim_script(tmp_path):
    """The text-width sweep at SynthSpec defaults, through `zslsign synth` and `zslsign sweep`."""
    data, out = tmp_path / "data", tmp_path / "sweep"
    assert main(["synth", "--out", str(data), "--seed", "0"]) == 0
    argv = ["sweep", "--manifest", str(data / "manifest.json"), "--out", str(out), "--values", "2", "--repeats", "1",
            "--epochs", "400", "--learning-rate", "0.5", "--lam", "1e-3", "--embedding", "combined", "--seed", "0"]
    assert main(argv) == 0
    rows = (out / "sweep_d_t.csv").read_text().splitlines()
    assert rows[0] == "d_t,mean_val_top1,stddev" and rows[1].startswith("2,")
