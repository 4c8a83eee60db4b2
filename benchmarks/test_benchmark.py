"""Tests of the benchmark itself.

    python3 -m pytest benchmarks
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import run  # pins BLAS to one thread before numpy is imported

sys.path.insert(0, str(run.SRC))

from spans import Tracer, wrapped_attributes  # noqa: E402
from workloads import WORKLOADS, Runner, Stats, load_golden, mismatches  # noqa: E402

ROOT = run.HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# fewer sequences and machines than the real workloads, same code paths
SMALL = {
    "capacity": WORKLOADS["capacity"],
    "wide_store": dataclasses.replace(WORKLOADS["wide_store"], n_seqs=4, n_machines=1),
    "cued_recall": dataclasses.replace(WORKLOADS["cued_recall"], n_seqs=4, n_machines=1),
    "equivalence": WORKLOADS["equivalence"],
}


def _runner():
    return Runner(deadline=time.monotonic() + 120)


def _unit(wl, state, runner):
    return [wl.run_unit(state, k, runner, Stats()) for k in wl.pass_units]


def test_wrappers_are_restored_even_after_an_error():
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in wrapped_attributes()}
    wl = SMALL["cued_recall"]
    state = wl.setup(0, load_golden(wl.name))
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(counting=True):
            assert any(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())
            _unit(wl, state, _runner())
            raise RuntimeError("leave the block early")
    assert tracer.spans
    for (owner, attr), fn in before.items():
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} not restored"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_equal_untraced(name):
    wl = SMALL[name]
    state = wl.setup(3, load_golden(wl.name))
    runner = _runner()
    untraced = _unit(wl, state, runner)
    tracer = Tracer()
    with tracer.installed(counting=True):
        counted = _unit(wl, state, runner)
    with tracer.installed():
        traced = _unit(wl, state, runner)
    assert untraced == counted == traced
    assert runner.failed == 0


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        assert declared == ours
        assert all(NAME.fullmatch(n) and len(n) <= 64 for n in declared)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_computed_counts_repeat_exactly():
    wl = SMALL["wide_store"]
    first = run.run_traced(wl, 5, 0.1, _runner())
    second = run.run_traced(wl, 5, 0.1, _runner())
    for key in ("sdm.cmm_write_bytes_computed", "sdm.active_locations_mean",
                "sdm.cmm_write_calls", "sdm.cmm_fill_frac"):
        assert first[key] > 0
        assert first[key] == second[key], key
    # today's write materialises the whole M x W outer product
    assert first["sdm.cmm_write_bytes_computed"] >= 256 * 4096 * 8 * first["sdm.cmm_write_calls"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_goldens_match_current_outputs(name):
    assert mismatches(WORKLOADS[name].golden(), load_golden(name)) == []


def test_golden_tolerance_is_applied():
    want = load_golden("cued_recall")
    got = json.loads(json.dumps(want))
    got["approx"]["margins"][0][0] *= 1 + 1e-12
    assert mismatches(got, want) == []
    got["approx"]["margins"][0][0] *= 1 + 1e-6
    assert mismatches(got, want) == ["approx.margins"]
    got = json.loads(json.dumps(want))
    got["exact"]["symbols"][0][0] += 1
    assert mismatches(got, want) == ["exact.symbols"]


def test_timeout_and_raise_count_as_failed():
    runner = Runner(deadline=time.monotonic() + 60, op_timeout=0.05)
    assert runner.call("sleep", time.sleep, 5)[0] is False
    assert runner.call("raise", int, "not a number")[0] is False
    assert runner.call("ok", int, "7")[:2] == (True, 7)
    assert (runner.attempted, runner.failed) == (3, 2)
    late = Runner(deadline=time.monotonic() - 1)
    assert late.call("late", int, "7")[0] is False
    assert (late.attempted, late.failed) == (1, 1)


def test_engine_setup_does_not_import_scipy():
    # setup_s of the engine workloads must not pay for posenc's scipy import
    code = (
        "import sys, time, run; run.main(['--workload', 'wide_store', '--seed', '0',"
        " '--seconds', '1', '--setup-probe', str(time.monotonic())]);"
        " print('scipy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split()[-1] == "False", proc.stderr


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_command_prints_one_result_line():
    proc = _run(ROOT, "--workload", "capacity", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_golden_mismatch_makes_the_command_fail(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    golden = tmp_path / "benchmarks" / "goldens" / "capacity.json"
    data = json.loads(golden.read_text())
    data["exact"]["accuracies"][0] -= 1 / 140
    golden.write_text(json.dumps(data))
    proc = _run(tmp_path, "--workload", "capacity", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    assert "golden" in proc.stderr


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "capacity", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
