"""Tests of the benchmark's own code: span arithmetic, metric names,
deterministic workloads, and a reduced-size smoke run of each workload.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(id, start, end, parent=None, name="x"):
    return spans.Span(id=id, name=name, start=start, end=end, parent=parent)


class TestSelfTime:
    def test_nested_spans(self):
        tree = [
            _span(0, 0.0, 10.0),
            _span(1, 1.0, 4.0, parent=0),
            _span(2, 2.0, 3.0, parent=1),
            _span(3, 5.0, 9.0, parent=0),
        ]
        own = spans.self_times(tree)
        assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
        # self times partition the root's interval
        assert sum(own.values()) == pytest.approx(tree[0].duration)

    def test_overlapping_children_count_once(self):
        tree = [_span(0, 0.0, 10.0), _span(1, 1.0, 6.0, parent=0), _span(2, 4.0, 8.0, parent=0)]
        assert spans.self_times(tree)[0] == pytest.approx(3.0)

    def test_child_outside_parent_is_clipped(self):
        tree = [_span(0, 2.0, 5.0), _span(1, 4.0, 7.0, parent=0)]
        assert spans.self_times(tree)[0] == pytest.approx(2.0)

    def test_totals_by_name_sums_calls(self):
        tree = [
            _span(0, 0.0, 4.0, name="stage"),
            _span(1, 0.0, 1.0, parent=0, name="leaf"),
            _span(2, 2.0, 3.0, parent=0, name="leaf"),
        ]
        by_name = spans.totals_by_name(tree)
        assert by_name["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
        assert by_name["stage"]["self_s"] == pytest.approx(2.0)


class TestInstall:
    @pytest.fixture
    def fake_package(self, monkeypatch):
        inner = types.ModuleType("fakepkg.inner")
        outer = types.ModuleType("fakepkg.outer")

        def leaf(x):
            return x + 1

        inner.leaf = leaf
        outer.leaf = leaf  # a "from .inner import leaf" copy
        outer.run = lambda x: outer.leaf(x) * 2
        registry = {"leaf": leaf}
        monkeypatch.setitem(sys.modules, "fakepkg.inner", inner)
        monkeypatch.setitem(sys.modules, "fakepkg.outer", outer)
        return inner, outer, registry

    def test_wraps_every_binding_and_nests(self, fake_package):
        inner, outer, registry = fake_package
        ticks = iter(range(100))
        recorder = spans.Recorder(clock=lambda: float(next(ticks)))
        seen = []
        restore = spans.install(
            recorder,
            [(outer, "run", "outer.run", None), (inner, "leaf", "inner.leaf", lambda a, k, r: seen.append(r))],
            "fakepkg",
            registries=[registry],
        )
        try:
            assert outer.run(1) == 4
            assert registry["leaf"](5) == 6
        finally:
            restore()
        assert [s.name for s in recorder.spans] == ["outer.run", "inner.leaf", "inner.leaf"]
        assert recorder.spans[1].parent == 0
        assert recorder.spans[2].parent is None
        assert seen == [2, 6]
        assert outer.leaf is inner.leaf is registry["leaf"]
        assert not hasattr(inner.leaf, "__wrapped__")


class TestMetricNames:
    def test_names_and_units_are_well_formed(self):
        for table in (END_TO_END_UNITS, PER_LAYER_UNITS):
            for name, unit in table.items():
                assert NAME.fullmatch(name), name
                assert UNIT.fullmatch(unit), (name, unit)
        assert not set(END_TO_END_UNITS) & set(PER_LAYER_UNITS)

    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
        assert {w["name"]: w["why"] for w in spec["workloads"]} == {
            name: w.why for name, w in workloads.WORKLOADS.items()
        }
        setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert all(0 < m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])
        for workload in workloads.WORKLOADS.values():
            assert len(workload.why) <= 200 and "\n" not in workload.why


class TestWorkloads:
    def test_generation_is_deterministic_per_seed(self, tmp_path):
        workload = workloads.WORKLOADS["text"]
        digests = []
        for run, seed in (("a", 3), ("b", 3), ("c", 4)):
            workloads.write_inputs(workload, seed, tmp_path / run, scale=0.15)
            digests.append(workloads.corpus_digest(tmp_path / run / "corpus"))
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]

    def test_shapes_follow_the_workload(self):
        from cme import synth

        for workload in workloads.WORKLOADS.values():
            config = workloads.synth_config(workload, seed=1)
            assert [p.users for p in config.profiles.values()] == list(workload.users)
            dataset = synth.generate(workloads.synth_config(workload, seed=1, scale=0.1))
            assert len(dataset.users) == sum(workloads.scaled_users(workload, 0.1))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace", [("text", 0), ("network", 0), ("imbalanced", 0), ("network", 1)]
)
def test_reduced_size_run_completes(workload, trace, tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, checkout / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(checkout, "--workload", workload, "--seed", "2", "--seconds", "0",
                  "--trace", str(trace), "--scale", "0.15")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["attempted"] >= 8
    assert 0 <= result["failed"] < result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "text", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
