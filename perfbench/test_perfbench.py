"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They run the benchmark end to end from the checkout root, so they take about
a minute and need about 1.2 GB of memory for grid_2d.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Known misses of the seed code: 2-D peak slopes at N=256, j=-1, for
# gamma = 0 and gamma = 1; each pass of grid_2d runs each of them once.
KNOWN_MISSES_PER_PASS = {"grid_2d": 2}


def _bench(workload, trace, seed=0, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines[:-1]


def _assert_named(result, text_lines, declared):
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
        assert any(line.strip().startswith(f"{m['name']} = ")
                   and line.rstrip().endswith(f" {m['unit']}") for line in text_lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_and_correct(workload):
    result, lines = _result(_bench(workload, 0))
    assert result["correct"]
    assert result["attempted"] >= 1
    _assert_named(result, lines, SPEC["end_to_end"])
    assert any(line.strip().startswith("fail_ratio:") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, lines = _result(_bench(workload, 1))
    second, _ = _result(_bench(workload, 1))
    _assert_named(first, lines, SPEC["per_layer"])
    for run in (first, second):  # one pass each
        assert run["correct"]
        assert run["failed"] == KNOWN_MISSES_PER_PASS.get(workload, 0)
    timed = (".s", ".self_s", "trace.pass_s", "trace.traced_pass_s",
             "trace.overhead")
    exact = [m["name"] for m in SPEC["per_layer"]
             if not m["name"].endswith(timed)]
    assert "lpengine.fft.calls" in exact and "oracle.outcome.no" in exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_oracle_digest_pinned_for_seed_0():
    pinned = json.loads((HERE / "reference.json").read_text())["oracle_mix"]["0"]
    result, lines = _result(_bench("oracle_mix", 0))
    assert result["correct"]
    assert f"  digest: {pinned['digest']}" in lines


# Installs the tracer in a child interpreter, as child.py does, so the test
# process keeps its own numpy.fft.
_INSTALL = """
import importlib, sys
sys.path[:0] = [{src!r}, {here!r}]
import tracer, workloads
def resolve(modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner
targets = list(tracer.SPAN_TARGETS)
orig = [resolve(m, a) for m, a, _ in targets]
{extra}
tracer.Tracer().install()
for (m, a, _), fn in zip(targets, orig):
    assert getattr(resolve(m, a), "__wrapped__", None) is not None, (m, a)
    for name, mod in list(sys.modules.items()):
        if name.startswith("powemb") and mod is not None:
            held = [k for k, v in vars(mod).items() if v is fn]
            assert not held, (m, a, name, held)
print("patched", len(orig))
"""


def _install(extra=""):
    code = _INSTALL.format(src=str(ROOT / "src"), here=str(HERE), extra=extra)
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_every_span_target_is_patched_and_rebound():
    proc = _install()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("patched ")


def test_missing_span_target_fails_the_traced_run():
    proc = _install('tracer.SPAN_TARGETS.append(("powemb.lpengine", '
                    '"_no_such_fn", "lpengine.cell_weights"))')
    assert proc.returncode != 0
    assert "powemb.lpengine._no_such_fn" in proc.stderr


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("oracle_mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
