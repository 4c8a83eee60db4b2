"""Record the golden outputs of every workload from the current sources.

    python3 benchmarks/record_goldens.py

Writes ``goldens/<workload>.json``. The goldens of this directory were
recorded from the seed code; re-record only for a change that explains
every difference in its outputs.
"""

import json
import sys

import run  # pins BLAS to one thread before numpy is imported

sys.path.insert(0, str(run.SRC))

from workloads import GOLDEN_DIR, GOLDEN_SEED, WORKLOADS, normalise  # noqa: E402


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        out = {"workload": name, "golden_seed": GOLDEN_SEED, **normalise(wl.golden())}
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(out, separators=(",", ":")) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
