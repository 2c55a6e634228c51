import os
import subprocess
import sys
from pathlib import Path

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
    proc = run_script("sweep_text_dim.py", "--out", tmp_path, "--values", "2", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "sweep_d_t.csv").read_text().splitlines()
    assert rows[0] == "d_t,mean_val_top1,stddev" and rows[1].startswith("2,")
