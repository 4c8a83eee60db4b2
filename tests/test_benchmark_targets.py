"""The benchmark tracer replaces package attributes by name; each must exist.

Only reads ``benchmarks/``: a refactor that renames or drops a traced call
site fails here, not only in a traced benchmark run.
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_call_site_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    for owner, attr in spans.wrapped_attributes():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is gone"
