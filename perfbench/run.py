"""Pipeline benchmark: one workload, one seed, every metric by name and unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload text --seed 1 --seconds 30 --trace 0

Set-up writes CORPORA corpora and their configs, each derived from the
seed, each in a fresh interpreter and each twice, and times that; the two
copies of a corpus must be byte-identical. Then the full ``cme run`` chain
runs in a fresh process per repetition, cycling over the corpora, until
every corpus has run once and --seconds have passed. This is one caller
running batch jobs back to back (a closed loop with one client).

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 follows every untraced chain with a traced one on the same
corpus (perfbench/traced.py) and reports the per-layer metrics, as the
median over traced repetitions.

Every chain is checked: each stage leaves its artifact, report.json holds a
finite macro-F1 per requested tag, suite-A macro-F1 beats 3-class chance,
and report.json is byte-identical for every run of one corpus. The last
line of stdout is the JSON result; the run directory `.perfbench_work/`
keeps `result.json` with the environment and corpus digests."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from metrics import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402

# distinct corpora per run: F1 is averaged and run_s is a median over them
CORPORA = 4
TOTAL_BUDGET_S = 170.0
SUITE_A_TAGS = ("T+D", "T+E", "D+E")
SUITE_B_TAG = "N+T+E"
CHANCE_F1 = 1.0 / 3.0

# stage -> artifact it must leave in the run directory
STAGE_ARTIFACTS = {
    "preprocess": "preprocess/tokens.json",
    "train_we": "models/meta.json",
    "views": "views/meta.json",
    "netembed": "netembed/meta.json",
    "correlate": "correlate/correlations.tsv",
    "compose": "compose/meta.json",
    "classify": "classify/results.json",
    "report": "report/report.json",
}


class Checks:
    """Operations attempted and failed; an operation is a stage or a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def sub_seed(seed: int, index: int) -> int:
    """Seed of the index-th corpus of a run; non-negative for any seed."""
    return int(hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()[:12], 16)


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def timed_process(argv: list[str], env: dict, log: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run a child to completion: (exit code, start, end, peak RSS in MB)."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def blas_info() -> dict:
    """BLAS library and its thread count as numpy sees them in this process."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"), "threads": None}
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def environment(threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "platform": platform.platform(),
    }


def report_checks(checks: Checks, report: dict | None, label: str) -> dict[str, float]:
    """Check one report.json; return its F1 figures keyed T+D, T+E, D+E, NTE and baseline."""
    if not checks.check(report is not None, f"{label}: report.json readable"):
        return {}
    f1 = {}
    suite_a = report.get("suite_a_macro_f1", {})
    for tag in SUITE_A_TAGS:
        f1[tag] = suite_a.get(tag)
    suite_b = report.get("suite_b_macro_f1", {})
    f1["NTE"] = suite_b.get(SUITE_B_TAG)
    f1["baseline"] = suite_b.get(report.get("best_suite_a_tag"))
    for key, value in list(f1.items()):
        if not checks.check(isinstance(value, float) and math.isfinite(value), f"{label}: finite F1 {key}"):
            del f1[key]
        elif key in SUITE_A_TAGS:
            checks.check(value > CHANCE_F1, f"{label}: F1 {key}={value} above chance")
    return f1


def parse_json(raw: bytes) -> dict | None:
    """A JSON object written by a child, or None when it is malformed."""
    try:
        value = json.loads(raw)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def run_dir_of(out: Path) -> Path | None:
    found = sorted(out.glob("run-*"))
    return found[0] if len(found) == 1 else None


class Bench:
    def __init__(self, root: Path, workload: workloads.Workload, seed: int, seconds: float, trace: bool, scale: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.work = root / ".perfbench_work"
        self.threads = len(os.sched_getaffinity(0))
        self.env = child_env(root, self.threads)
        self.checks = Checks()
        self.digests: dict[int, str] = {}
        self.started = time.perf_counter()

    def log(self, name: str) -> Path:
        return self.work / f"{name}.log"

    def setup(self) -> tuple[list[Path], list[float], list[str]]:
        """Write every corpus twice: the copies must match, and setup_s gets 2x the samples."""
        configs, times, digests = [], [], []
        for index in range(CORPORA):
            copies = []
            for copy in range(2):
                directory = self.work / f"corpus{index}-{copy}"
                argv = [
                    sys.executable, str(HERE / "workloads.py"),
                    "--workload", self.workload.name,
                    "--seed", str(sub_seed(self.seed, index)),
                    "--dir", str(directory),
                    "--scale", repr(self.scale),
                ]
                rc, start, end, _ = timed_process(argv, self.env, self.log("setup"), self.time_left())
                if not self.checks.check(rc == 0, f"setup {index} exit {rc}"):
                    raise SystemExit(f"set-up of corpus {index} failed; see {self.log('setup')}")
                times.append(end - start)
                copies.append(workloads.corpus_digest(directory / "corpus"))
            self.checks.check(copies[0] == copies[1], f"corpus {index}: same seed, same bytes")
            shutil.rmtree(self.work / f"corpus{index}-1")
            configs.append(self.work / f"corpus{index}-0" / "config.ini")
            digests.append(copies[0])
        return configs, times, digests

    def chain(self, index: int, config: Path, traced: bool) -> dict:
        """One fresh-process run of the chain, checked; its figures."""
        label = f"corpus {index}{' traced' if traced else ''}"
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            result_file = self.work / "traced.json"
            result_file.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced.py"), "--config", str(config),
                    "--out", str(out), "--result", str(result_file)]
        else:
            argv = [sys.executable, "-m", "cme.cli", "run", "--config", str(config), "--out", str(out)]
        rc, start, end, rss = timed_process(argv, self.env, self.log("chain"), self.time_left())
        figures = {"run_s": end - start, "peak_rss_mb": rss}
        if traced:
            traced_result = parse_json(result_file.read_bytes()) if result_file.exists() else None
            if self.checks.check(traced_result is not None, f"{label}: traced result written"):
                rc = rc or traced_result["rc"]
                figures["traced"] = traced_result
                self.checks.check(traced_result["sigma_ok"], f"{label}: sigma matches eigh")
        self.checks.check(rc == 0, f"{label}: exit {rc}")

        run_dir = run_dir_of(out)
        for stage, artifact in STAGE_ARTIFACTS.items():
            self.checks.check(run_dir is not None and (run_dir / artifact).exists(), f"{label}: stage {stage}")
        report_path = run_dir / "report" / "report.json" if run_dir else None
        report_bytes = report_path.read_bytes() if report_path and report_path.exists() else None
        report = parse_json(report_bytes) if report_bytes else None
        figures["f1"] = report_checks(self.checks, report, label)
        if report_bytes is not None:
            digest = hashlib.sha256(report_bytes).hexdigest()
            if index in self.digests:
                self.checks.check(digest == self.digests[index], f"{label}: report digest repeats")
            else:
                self.digests[index] = digest
        if run_dir is not None:
            figures["artifact_mb"] = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file()) / 1e6
        shutil.rmtree(out, ignore_errors=True)
        return figures

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def time_left(self) -> float:
        """Seconds a child may run before it is killed and counted as failed."""
        return max(1.0, TOTAL_BUDGET_S - self.elapsed())

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        configs, setup_times, digests = self.setup()
        loop_start = time.perf_counter()
        plain, traced = [], []
        rep = 0
        # untraced: every corpus once (the F1 figures average over them), then
        # until the time is up; a corpus that runs again must repeat its report
        min_reps = 1 if self.trace else CORPORA
        while rep < min_reps or time.perf_counter() - loop_start < self.seconds:
            index = rep % CORPORA
            plain.append(self.chain(index, configs[index], traced=False))
            if self.trace:
                traced.append(self.chain(index, configs[index], traced=True))
            rep += 1
            longest = max(f["run_s"] for f in plain + traced)
            if self.elapsed() + longest * (2 if self.trace else 1) > TOTAL_BUDGET_S:
                break
        if self.trace:
            metrics, self_times = self.layer_metrics(plain, traced)
        else:
            metrics, self_times = self.end_to_end(plain, setup_times), {}
        return {
            "env": environment(self.threads),
            "workload": self.workload.name,
            "seed": self.seed,
            "corpus_seeds": [sub_seed(self.seed, i) for i in range(CORPORA)],
            "corpus_digests": digests,
            "corpus_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "repetitions": len(plain),
            "run_s": [f["run_s"] for f in plain],
            "traced_run_s": [f["run_s"] for f in traced],
            "failures": self.checks.failures,
            "metrics": metrics,
            "self_times": self_times,
        }

    def end_to_end(self, plain: list[dict], setup_times: list[float]) -> dict:
        """Medians of the timings; F1 averaged over the distinct corpora."""
        first = [f["f1"] for f in plain[:CORPORA]]

        def mean(values):
            values = list(values)
            return statistics.fmean(values) if values else 0.0

        return {
            "run_s": statistics.median(f["run_s"] for f in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(f["peak_rss_mb"] for f in plain),
            "f1.TD": mean(f["T+D"] for f in first if "T+D" in f),
            "f1.TE": mean(f["T+E"] for f in first if "T+E" in f),
            "f1.DE": mean(f["D+E"] for f in first if "D+E" in f),
            "f1.NTE": mean(f["NTE"] for f in first if "NTE" in f),
            "f1.NTE_ratio": mean(f["NTE"] / f["baseline"] for f in first if f.get("baseline") and "NTE" in f),
            "ok_frac": 1.0 - len(self.checks.failures) / max(1, self.checks.attempted),
        }

    def layer_metrics(self, plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
        """Medians over traced repetitions, and the last one's span table."""
        per_rep = []
        for untraced, t in zip(plain, traced):
            if "traced" not in t:
                continue
            values = dict(t["traced"]["metrics"])
            values["cli.artifact_mb"] = t.get("artifact_mb", 0.0)
            values["trace.overhead_s"] = t["run_s"] - untraced["run_s"]
            values["trace.unattributed_s"] = t["run_s"] - t["traced"]["top_level_s"]
            per_rep.append(values)
        if not per_rep:
            return {}, {}
        medians = {name: statistics.median(v[name] for v in per_rep) for name in PER_LAYER_UNITS}
        return medians, next(t["traced"]["by_name"] for t in reversed(traced) if "traced" in t)


def print_self_times(by_name: dict) -> None:
    rows = sorted(by_name.items(), key=lambda kv: -kv[1]["self_s"])
    print(f"{'span':28s} {'calls':>6s} {'total_s':>9s} {'self_s':>9s}")
    for name, row in rows:
        print(f"{name:28s} {row['calls']:6d} {row['total_s']:9.3f} {row['self_s']:9.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="class-size multiplier (smoke tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cme" / "cli.py").is_file():
        print(f"error: no cme sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2

    bench = Bench(root, workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.scale)
    result = bench.run()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    (bench.work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(result['env'], sort_keys=True)}")
    print(f"workload {result['workload']} seed {result['seed']}: {result['repetitions']} repetitions, "
          f"corpus digest {result['corpus_digest']}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    if result["self_times"]:
        print_self_times(result["self_times"])
    for name, value in result["metrics"].items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    final = {
        "correct": not result["failures"] and bool(result["metrics"]),
        "attempted": bench.checks.attempted,
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
