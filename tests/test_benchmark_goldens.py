"""The package reproduces the benchmark's recorded goldens.

Only reads ``benchmarks/``: each workload's golden outputs (recalled
symbols, halt reasons, capacity accuracies, posenc reports, attention
winners) are computed from the package and compared with the recorded
file, exact fields by equality and approximate ones by the benchmark's
tolerance, so a change that moves a result bit fails in tier-1.
"""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("name", ["capacity", "wide_store", "cued_recall", "equivalence"])
def test_outputs_match_the_recorded_golden(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from workloads import WORKLOADS, load_golden, mismatches

    assert mismatches(WORKLOADS[name].golden(), load_golden(name)) == []
