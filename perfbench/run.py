"""End-to-end benchmark of the zslsign CLI loop.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the benchmark runs the checkout's
`src/zslsign` and fails at once when it is missing. It writes only under
`perfbench/_work/`.

--trace 0  writes the workload's dataset at least three times (setup_s is the
           median), then repeats the workload's command loop, each command as
           its own `python3 -m zslsign.cli` child, one at a time, until S
           seconds are used; the last loop may stop after any command. Each
           command runs twice in a row: with the checkout's src, then with
           the frozen copy in control/ on a dataset of its own. A command's
           time is the median over its repetitions; loop_s and
           control_loop_s sum those medians. loop_vs_control is the loop's
           time relative to the control's, from the back-to-back pairs,
           which cancels the host's drift in speed between runs.
--trace 1  runs the loop once as children, once in-process through
           `zslsign.cli.main(argv)`, and once in-process with the tracer of
           tracer.py installed. It reports the per-layer metrics, the tracing
           overhead (traced minus plain in-process loop), and checks that all
           three passes write byte-identical output trees.

The metric names and units come from BENCHMARK.json at the checkout root.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
A run record (machine, BLAS, shapes, digests, every op's exit code) is written
to perfbench/_work/records/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Op, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONTROL = BENCH_DIR / "control"  # frozen copy of src/zslsign: the yardstick for loop_vs_control
WORK = BENCH_DIR / "_work"
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 9, 5.0  # cheap set-ups repeat more
STARTUP_REPS = 3
BLAS_THREADS = "1"  # one thread: steadier on a shared machine; within nproc everywhere
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
CHILD_TIMEOUT_S = 120.0
CAP_CEILING = 3 << 30  # address-space cap per command (bytes), lowered on a small machine


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    name: str
    rc: int
    wall_s: float
    rss_mb: float | None = None  # child's own max RSS; None for in-process passes
    cpu_s: float | None = None  # child's user + system CPU time; None for in-process passes
    error: str = ""  # last stderr line when rc != 0
    problems: list[str] = field(default_factory=list)  # failed output checks
    digest: str = ""  # sha256 of the op's own output directory (child passes)

    def to_dict(self) -> dict:
        return {
            "name": self.name, "rc": self.rc, "wall_s": self.wall_s, "cpu_s": self.cpu_s, "rss_mb": self.rss_mb,
            "error": self.error, "problems": self.problems, "digest": self.digest,
        }


def memory_cap() -> int:
    """Half of the available RAM, at most CAP_CEILING and at least 1 GiB."""
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return max(1 << 30, min(CAP_CEILING, int(line.split()[1]) * 1024 // 2))
    except OSError:
        pass
    return CAP_CEILING


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ZSLSIGN_OUT_ROOT"}
    env.update({v: BLAS_THREADS for v in BLAS_VARS})
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs one child at a time, with zslsign from src, under an address-space cap and a deadline."""

    def __init__(self, deadline: float, cap: int, src: Path = SRC, label: str = "") -> None:
        self.deadline = deadline
        self.cap = cap
        self.env = child_env(src)
        self.label = label  # prefixes the name of every result

    def _limit(self) -> None:
        resource.setrlimit(resource.RLIMIT_AS, (self.cap, self.cap))

    def run(self, name: str, argv: list[str], cwd: Path) -> OpResult:
        name = self.label + name
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return OpResult(name, -1, 0.0, error="run deadline passed before start")
        err_path = cwd / f".{name}.stderr"
        with open(os.devnull, "wb") as devnull, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=devnull, stderr=err,
                preexec_fn=self._limit,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        lines = [ln for ln in err_path.read_text(errors="replace").splitlines() if ln.strip()]
        err_path.unlink()
        error = ""
        if proc.returncode != 0:
            error = lines[-1].strip() if lines else f"exit {proc.returncode}, no stderr"
        return OpResult(name, proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, error)


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "zslsign.cli", *args]


def setup_argv(wl: Workload, out: str, seed: int) -> list[str]:
    args = [*wl.setup_args, "--out", out, "--seed", str(seed)]
    if wl.setup == "synth":
        return cli_argv(["synth", *args])
    return [sys.executable, str(BENCH_DIR / "twostream.py"), *args]


# ---------------------------------------------------------------------------
# output checks and digests
# ---------------------------------------------------------------------------


def tree_digest(path: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and not p.name.startswith(".")):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def accepted_refusal(res: OpResult) -> bool:
    text = res.error
    return res.rc == 1 and (text.startswith("error:") or "MemoryError" in text or "Unable to allocate" in text)


def check_op(wl: Workload, op: Op, res: OpResult, pass_dir: Path) -> float | None:
    """Record failed checks on res; return top-1 for the eval op."""
    if res.rc != 0:
        if not (op.may_refuse and accepted_refusal(res)):
            res.problems.append(f"exit {res.rc}: {res.error}")
        return None
    for rel in op.outputs:
        f = pass_dir / rel
        if not f.is_file() or f.stat().st_size == 0:
            res.problems.append(f"missing output {rel}")
    if res.problems:
        return None
    out = pass_dir / op.outputs[0]
    if op.name == "eval":
        report = json.loads(out.read_text())
        top1 = report["per_k"]["1"]
        if not 0.0 < top1 <= 100.0:
            res.problems.append(f"top-1 {top1} outside (0, 100]")
        expected = 100.0 / wl.candidates
        got = report["random_per_k"]["1"]
        if abs(got - expected) > 0.05 * expected:
            res.problems.append(f"random top-1 {got} is not 100/{wl.candidates}")
        elif top1 <= got:
            res.problems.append(f"top-1 {top1} does not beat random {got}")
        return top1
    if op.name.startswith("analyze"):
        rows = json.loads(out.read_text())["rows"]
        wanted = wl.min_confusion_rows if op.name == "analyze_confusions" else 1
        if len(rows) < wanted:
            res.problems.append(f"{len(rows)} influence rows, expected at least {wanted}")
    elif op.name == "sweep":
        lines = out.read_text().splitlines()
        widths = [ln.split(",")[0] for ln in lines[1:]]
        if widths != ["8", "16", "32", "64"]:
            res.problems.append(f"sweep rows for widths {widths}")
    return None


@dataclass
class LoopPass:
    """One pass over a workload's ops."""

    results: list[OpResult]
    digest: str
    top1: float | None

    @property
    def loop_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    def wall(self, name: str) -> float | None:
        return next((r.wall_s for r in self.results if r.name == name), None)

    def to_dict(self) -> dict:
        return {"loop_s": self.loop_s, "digest": self.digest, "top1": self.top1,
                "ops": [r.to_dict() for r in self.results]}


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_pass(wl: Workload, sides: list[tuple[Runner, Path]], stop=None) -> list[LoopPass]:
    """Run the ops in order as children, one pass per side (a runner and its pass directory).

    Each op runs on every side in turn before the next op starts, so the
    sides share the host's conditions. stop(op) -> True ends the passes before op.
    """
    for _, pass_dir in sides:
        fresh(pass_dir)
    results: list[list[OpResult]] = [[] for _ in sides]
    top1: list[float | None] = [None for _ in sides]
    for op in wl.ops:
        if stop is not None and stop(op):
            break
        for i, (runner, pass_dir) in enumerate(sides):
            res = runner.run(op.name, cli_argv(op.argv), pass_dir)
            value = check_op(wl, op, res, pass_dir)
            top1[i] = value if value is not None else top1[i]
            res.digest = tree_digest(pass_dir / "out" / op.name)
            results[i].append(res)
    return [LoopPass(results[i], tree_digest(pass_dir / "out"), top1[i]) for i, (_, pass_dir) in enumerate(sides)]


def inprocess_pass(wl: Workload, pass_dir: Path, tracer=None) -> LoopPass:
    """Run the ops through zslsign.cli.main(argv) in this process."""
    import zslsign.cli

    fresh(pass_dir)
    results, top1 = [], None
    cwd = os.getcwd()
    os.chdir(pass_dir)
    try:
        for op in wl.ops:
            err = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    if tracer is None:
                        rc = zslsign.cli.main(list(op.argv))
                    else:
                        rc = tracer.run(f"cli.{op.name}", op.name, zslsign.cli.main, list(op.argv))
                error = (err.getvalue().strip().splitlines() or [""])[-1]
            except SystemExit as exc:
                rc, error = exc.code if isinstance(exc.code, int) else 2, str(exc)
            except Exception as exc:  # an uncaught error exits 1 in a child, with this last line
                rc, error = 1, f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
            res = OpResult(op.name, rc, time.perf_counter() - start, error=error if rc else "")
            value = check_op(wl, op, res, pass_dir)
            top1 = value if value is not None else top1
            results.append(res)
    finally:
        os.chdir(cwd)
    return LoopPass(results, tree_digest(pass_dir / "out"), top1)


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"  # a source checkout without .git has no SHA to report
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        blas = {}
    source = hashlib.sha256()
    for f in sorted((SRC / "zslsign").rglob("*.py")):
        source.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),  # identifies the code where a checkout has no .git
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: BLAS_THREADS for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def dataset_record(data: Path) -> dict:
    """Digests and shape of a written dataset, read back from its files."""
    manifest = json.loads((data / "manifest.json").read_text())
    split = manifest["split"]
    first = manifest["samples"][0]
    streams = {}
    for stream in ("body", "hand"):
        if first.get(stream):
            rows = (data / first[stream]).read_text().splitlines()
            streams[stream] = {"columns": rows[0].count(",") + 1, "snippets": len(rows)}
    csv = [p.stat().st_size for p in data.rglob("*.csv") if p.parent.name == "features"]
    return {
        "manifest_sha256": file_sha256(data / "manifest.json"),
        "tree_sha256": tree_digest(data),
        "shape": {
            "classes": len(manifest["classes"]),
            "split": split["mode"],
            **{part: len(split[part]) for part in ("seen", "validation", "unseen")},
            "attributes": manifest["attribute_count"],
            "text_dim": len(manifest["classes"][0]["text"]),
            "samples": len(manifest["samples"]),
            "streams": streams,
        },
        "csv_files": len(csv),
        "csv_bytes": sum(csv),
    }


# ---------------------------------------------------------------------------
# workload runs
# ---------------------------------------------------------------------------


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_setup(wl: Workload, runner: Runner, run_dir: Path, seed: int, problems: list, reps=(1, 1)) -> tuple:
    """Write the dataset min..max times, repeating until SETUP_MIN_S is used; keep the first copy as run_dir/data."""
    walls, records = [], []
    while len(walls) < reps[0] or (sum(walls) < SETUP_MIN_S and len(walls) < reps[1]):
        i = len(walls)
        out = f"setup{i}"
        shutil.rmtree(run_dir / out, ignore_errors=True)
        res = runner.run(f"setup{i}", setup_argv(wl, out, seed), run_dir)
        walls.append(res.wall_s)
        if res.rc != 0:
            problems.append(f"setup exit {res.rc}: {res.error}")
            return walls, records
        records.append(dataset_record(run_dir / out))
    if len({r["tree_sha256"] for r in records}) != 1:
        problems.append("setup is not deterministic: dataset trees differ between repetitions")
    shutil.rmtree(run_dir / "data", ignore_errors=True)
    (run_dir / "setup0").rename(run_dir / "data")
    for i in range(1, len(walls)):
        shutil.rmtree(run_dir / f"setup{i}", ignore_errors=True)
    return walls, records


def collect_problems(passes: list[LoopPass], problems: list) -> None:
    for p in passes:
        for r in p.results:
            problems.extend(f"{r.name}: {msg}" for msg in r.problems)


def run_untraced(wl: Workload, runner: Runner, run_dir: Path, seed: int, seconds: float):
    problems: list[str] = []
    control = Runner(runner.deadline, runner.cap, CONTROL, "control.")
    ctl_dir = run_dir / "ctl"
    ctl_dir.mkdir()
    for who, r, d in (("zslsign.cli", runner, run_dir), ("the control's zslsign.cli", control, ctl_dir)):
        startup = r.run("startup", [sys.executable, "-c", "import zslsign.cli"], d)  # warms bytecode
        if startup.rc != 0:
            problems.append(f"import of {who} failed: {startup.error}")
            return {}, [], problems, {}
    setup_walls, setup_records = run_setup(wl, runner, run_dir, seed, problems, (SETUP_MIN_REPS, SETUP_MAX_REPS))
    if not problems:
        run_setup(wl, control, ctl_dir, seed, problems)
    if problems:
        return {}, [], problems, {"setup_s": setup_walls}

    # The program and the control run each op in turn. The loop repeats until
    # the window is used; the last pass may end before any op, so every op
    # gets at least one run and the window is not wasted.
    by_op: dict[str, list[OpResult]] = {op.name: [] for op in wl.ops}
    ctl_by_op: dict[str, list[OpResult]] = {op.name: [] for op in wl.ops}
    start = time.perf_counter()

    def stop(op: Op) -> bool:
        if not by_op[wl.ops[-1].name]:
            return False  # finish the first loop whatever it costs
        last = by_op[op.name][-1].wall_s + ctl_by_op[op.name][-1].wall_s
        return time.perf_counter() - start + last > seconds or time.monotonic() + 2 * last > runner.deadline

    passes: list[LoopPass] = []
    ctl_passes: list[LoopPass] = []
    while not passes or len(passes[-1].results) == len(wl.ops):
        mine, ctl = child_pass(wl, [(runner, run_dir / "u"), (control, ctl_dir / "u")], stop)
        if not mine.results:
            break
        passes.append(mine)
        ctl_passes.append(ctl)
        for op, r, c in zip(wl.ops, mine.results, ctl.results):
            by_op[op.name].append(r)
            ctl_by_op[op.name].append(c)
    collect_problems(passes + ctl_passes, problems)
    for runs in [*by_op.values(), *ctl_by_op.values()]:
        if len({r.digest for r in runs}) != 1:
            problems.append(f"{runs[0].name}: outputs differ between repetitions")
    if len({p.top1 for p in passes if p.top1 is not None}) != 1:
        problems.append("top-1 differs between repetitions")

    walls = {name: [r.wall_s for r in runs] for name, runs in by_op.items()}
    ctl_walls = {name: [r.wall_s for r in runs] for name, runs in ctl_by_op.items()}
    ctl_medians = {name: median(w) for name, w in ctl_walls.items()}
    # An op's ratio is the median over its back-to-back pairs, which share the
    # host's speed of the moment; the loop's ratio weights the ops by the
    # control's time, so it reads as loop time relative to the control's.
    pair_ratios = {name: median([a / c for a, c in zip(walls[name], ctl_walls[name])]) for name in walls}
    control_loop_s = sum(ctl_medians.values())
    values = {
        "setup_s": median(setup_walls),
        "loop_vs_control": sum(pair_ratios[n] * ctl_medians[n] for n in walls) / control_loop_s,
        "peak_rss_mb": max(median([r.rss_mb for r in runs]) for runs in by_op.values()),
        "top1_pct": passes[0].top1,
        "loop_s": sum(median(w) for w in walls.values()),
        "control_loop_s": control_loop_s,
    }
    for name, w in walls.items():
        values[f"{name}_s"] = median(w)
    record = {
        "setup_s": setup_walls,
        "datasets": setup_records,
        "op_walls": walls,
        "control_op_walls": ctl_walls,
        "iterations": [p.to_dict() for p in passes],
        "control_iterations": [p.to_dict() for p in ctl_passes],
    }
    return values, passes + ctl_passes, problems, record


def run_traced(wl: Workload, runner: Runner, run_dir: Path, seed: int):
    import tracer as tracing

    problems: list[str] = []
    startups = [runner.run("startup", [sys.executable, "-c", "import zslsign.cli"], run_dir) for _ in range(STARTUP_REPS)]
    if any(s.rc != 0 for s in startups):
        problems.append(f"import of zslsign.cli failed: {startups[-1].error}")
        return {}, [], problems, {}
    setup_walls, setup_records = run_setup(wl, runner, run_dir, seed, problems)
    if problems:
        return {}, [], problems, {}
    [child] = child_pass(wl, [(runner, run_dir / "u")])

    sys.path.insert(0, str(SRC))
    import zslsign.cli
    import twostream

    tracer = tracing.Tracer()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    capped = runner.cap if soft == resource.RLIM_INFINITY else min(runner.cap, soft)
    resource.setrlimit(resource.RLIMIT_AS, (capped, hard))
    try:
        plain = inprocess_pass(wl, run_dir / "p")
        shutil.rmtree(run_dir / "tdata", ignore_errors=True)
        with tracing.installed(tracer) as missing:
            setup_args = [*wl.setup_args, "--out", str(run_dir / "tdata"), "--seed", str(seed)]
            entry, argv = (zslsign.cli.main, ["synth", *setup_args]) if wl.setup == "synth" else (twostream.main, setup_args)
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer.run("cli.setup", "setup", entry, argv) != 0:
                    problems.append("traced setup failed")
            traced = inprocess_pass(wl, run_dir / "t", tracer)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    passes = [child, plain, traced]
    collect_problems(passes, problems)
    if len({p.digest for p in passes}) != 1:
        problems.append("traced, in-process and child passes wrote different outputs")
    if tree_digest(run_dir / "tdata") != setup_records[0]["tree_sha256"]:
        problems.append("traced setup wrote a different dataset")

    values = layer_metrics(wl, tracer, child, plain, traced, startups)
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    spans_path = WORK / "records" / f"{wl.name}-s{seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.to_dict(), indent=1) + "\n")
    record = {
        "setup_s": setup_walls,
        "datasets": setup_records,
        "startup_s": [s.wall_s for s in startups],
        "passes": {"child": child.to_dict(), "inprocess": plain.to_dict(), "traced": traced.to_dict()},
        "unpatched": missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return values, passes, problems, record


def layer_metrics(wl, tracer, child: LoopPass, plain: LoopPass, traced: LoopPass, startups) -> dict:
    calls, secs = tracer.calls, tracer.seconds
    values = {
        "cli.startup_s": median([s.wall_s for s in startups]),
        "data.csv_bytes_read": tracer.csv_bytes_read,
        "models.train_sae.failed": tracer.failures["models.train_sae"],
        "models.lle_accepted_ratio": (
            calls["models.lle_gradients"] / calls["models.lle_objective"] if calls["models.lle_objective"] else 0.0
        ),
        "cli.ops": len(child.results),
        "cli.ops_failed": sum(r.rc != 0 for r in child.results),
        "trace.plain_loop_s": plain.loop_s,
        "trace.traced_loop_s": traced.loop_s,
        "trace.overhead_s": traced.loop_s - plain.loop_s,
    }
    for module, s in tracer.self_s.items():
        values[f"{module}.self_s"] = s
    for name in calls:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.s"] = secs[name]
    for name in ("train_lle", "sweep", "analyze_correct", "analyze_confusions", "train_eszsl", "train_sae", "eval"):
        values[f"cli.{name}_s"] = child.wall(name) or 0.0
    return values


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, spec: dict, deadline: float) -> dict:
    cap = memory_cap()
    runner = Runner(deadline, cap)
    run_dir = fresh(WORK / f"{wl.name}-s{seed}-t{int(trace)}")
    started = time.perf_counter()
    try:
        if trace:
            values, passes, problems, record = run_traced(wl, runner, run_dir, seed)
        else:
            values, passes, problems, record = run_untraced(wl, runner, run_dir, seed, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wanted = spec["per_layer" if trace else "end_to_end"]
    if trace and values:
        for m in wanted:  # a function this workload never calls has no time and no calls
            values.setdefault(m["name"], 0)
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    op_results = [r for p in passes for r in p.results]
    failed_ops = [r for r in op_results if r.rc != 0]
    result = {
        "correct": not problems,
        "attempted": max(1, len(op_results)),
        "failed": sum(bool(r.problems) for r in op_results),
        "metrics": metrics,
    }
    full = {
        "workload": wl.name,
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == wl.name), ""),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "memory_cap_bytes": cap,
        "wall_s": time.perf_counter() - started,
        "machine": machine_record(),
        "problems": problems,
        "output_sha256": passes[0].digest if passes else None,
        "ops_failed": [r.to_dict() for r in failed_ops],
        "values": values,
        "result": result,
        **record,
    }
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    (WORK / "records" / f"{wl.name}-s{seed}-t{int(trace)}.json").write_text(json.dumps(full, indent=1) + "\n")
    print_summary(full, wanted)
    return result


def print_summary(full: dict, wanted: list) -> None:
    print(f"== {full['workload']} seed={full['seed']} trace={int(full['trace'])}: {full['why']}")
    values = full["values"]
    shown = [(m["name"], m["unit"]) for m in wanted]
    if not full["trace"]:
        shown += [(k, "s") for k in values if k.endswith("_s") and k not in {n for n, _ in shown}]
    for name, unit in shown:
        v = values.get(name)
        print(f"  {name:<44} {'-' if v is None else f'{v:.6g}':>14} {unit}")
    if full.get("datasets"):
        print(f"  manifest sha256 {full['datasets'][0]['manifest_sha256']}")
    if full.get("output_sha256"):
        print(f"  outputs sha256  {full['output_sha256']}")
    for op in full["ops_failed"]:
        print(f"  op failed: {op['name']} exit {op['rc']}: {op['error']}")
    for msg in full["problems"]:
        print(f"  CHECK FAILED: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the zslsign CLI loop.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "zslsign" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no zslsign source tree at {SRC} (run from the root of a source checkout)", file=sys.stderr)
        return 2
    os.environ.update({v: BLAS_THREADS for v in BLAS_VARS})  # before numpy loads in this process
    spec = json.loads(spec_path.read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec, deadline)

    if args.workload == "all":
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        out = results[args.workload]
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
