"""The tools that decide a change's acceptance numbers: the paired
benchmark comparison (``tools/bench_pairs.py``), the in-process A/B of
the engine loops (``tools/ab_inprocess.py``) and the ``src/`` code-line
count (``tools/src_code_lines.py``). All are imported by path; no
benchmark or timed loop runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_inprocess = _load("ab_inprocess")
bench_pairs = _load("bench_pairs")
src_code_lines = _load("src_code_lines")


def _verdict(better, parent, change, bound=0.25):
    line = bench_pairs.compare("m", better, bound, parent, change)
    return line.split()[-1], line


@pytest.mark.parametrize(
    "better, parent, change, verdict",
    [
        # a lower-is-better metric: twice the time, a spread parent, a gain
        ("lower", [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], "regressed"),
        ("lower", [1.0, 2.0, 3.0, 4.0, 5.0], [3.0, 3.0, 3.0, 3.0, 3.0], "unresolved"),
        ("lower", [1.0, 1.01, 0.99], [0.9, 0.91, 0.9], "ok"),
        # a higher-is-better metric: half the rate, a spread parent, a gain
        ("higher", [100.0, 100.0, 100.0], [50.0, 50.0, 50.0], "regressed"),
        ("higher", [60.0, 100.0, 140.0], [100.0, 100.0, 100.0], "unresolved"),
        ("higher", [100.0, 101.0, 99.0], [110.0, 111.0, 110.0], "ok"),
    ],
)
def test_compare_gives_the_verdict_of_its_medians_and_spreads(better, parent, change, verdict):
    assert _verdict(better, parent, change)[0] == verdict


def test_compare_is_ok_when_every_change_run_beats_every_parent_run_despite_spread():
    # the spread exceeds the bound, but the change reads better in every run
    assert _verdict("lower", [1.0, 2.0, 3.0], [0.5, 0.6, 0.7])[0] == "ok"


def test_compare_counts_a_tie_as_no_win():
    verdict, line = _verdict("lower", [1.0, 2.0, 3.0], [1.0, 1.5, 3.0])
    assert "wins 1/3" in line
    verdict, line = _verdict("higher", [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert "wins 0/3" in line and verdict == "ok"


def test_compare_handles_a_parent_median_of_zero():
    verdict, line = _verdict("lower", [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert verdict == "ok" and "worse +0.000" in line
    verdict, line = _verdict("lower", [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert verdict == "regressed" and "worse +inf" in line
    verdict, line = _verdict("higher", [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert verdict == "ok" and "worse -inf" in line


def test_iqr():
    assert bench_pairs.iqr([3.0]) == 0.0
    assert bench_pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0


def test_code_lines_counts_only_lines_that_hold_code(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "import os\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """A function docstring."""\n'
        "    y = (x +\n"
        "         1)  # a trailing comment\n"
        "\n"
        "    return os.sep * y\n"
    )
    # import, def, the two lines of the assignment, return
    assert src_code_lines.code_lines(module) == 5


def test_ab_loader_imports_each_tree_as_an_independent_package():
    root = _TOOLS.parent
    a = ab_inprocess.load_tree(root, "spikeseq_ab_test_a")
    b = ab_inprocess.load_tree(root, "spikeseq_ab_test_b")
    assert a.__name__ == "spikeseq_ab_test_a.seqmachine"
    assert b.__name__ == "spikeseq_ab_test_b.seqmachine"
    # each copy has modules and classes of its own
    assert a is not b and a.SequenceMachine is not b.SequenceMachine
    assert a.CodeParams is not b.CodeParams
    assert sys.modules["spikeseq_ab_test_a.codes"] is not sys.modules["spikeseq_ab_test_b.codes"]
    ab_inprocess.check_same_machines(a, b)


def test_ab_summary_gives_medians_minima_the_median_ratio_and_wins():
    parent = [0.010, 0.012, 0.011, 0.020]
    change = [0.009, 0.012, 0.0099, 0.010]
    fields = ab_inprocess.summarize("loop", parent, change).split()
    assert fields[0] == "loop"
    # medians and minima in ms
    assert fields[1:5] == ["parent", "median", "11.500", "min"] and fields[5] == "10.000"
    assert fields[6:9] == ["change", "median", "9.950"] and fields[10] == "9.000"
    # per-round ratios 0.9, 1.0, 0.9, 0.5: median 0.9; a tie is no win
    assert fields[11:] == ["ratio", "0.9000", "wins", "3/4"]
