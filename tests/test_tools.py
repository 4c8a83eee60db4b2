"""The two tools that decide a change's acceptance numbers: the paired
benchmark comparison (``tools/bench_pairs.py``) and the ``src/`` code-line
count (``tools/src_code_lines.py``). Both are imported by path; no
benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
