"""Time the engine loops of two checkouts in one process, alternating, and compare them.

    OPENBLAS_NUM_THREADS=1 python3 tools/ab_inprocess.py PARENT CHANGE [--rounds 15]

PARENT and CHANGE are checkouts of this repository. The ``src/spikeseq``
package of each is imported under a name of its own (``spikeseq_parent``
and ``spikeseq_change``), so both live in one process and share its heap,
caches and clock. Before timing, the tool asserts that both trees build
machines with the same threshold and ``input_table``, bit for bit, at
W=512 and W=4096.

Each round calls every loop once per tree, the parent first in even rounds
and the change first in odd ones, and times each call with
``time.perf_counter``, after one untimed call of each. The loops, all on
machines of the default geometry:

- ``recall_w512``: one-chain recall of every prefix of two of 26 stored
  sequences of 16 symbols, at W=512 (``recall_sequence``);
- ``learn_w4096``: ``learn_sequence`` of four sequences of 24 symbols
  into a machine of W=4096;
- ``capacity``: one trial, ``capacity_experiment(n_seeds=1)``;
- ``construct_w512`` and ``construct_w4096``: ``SequenceMachine(n_locations=W)``.

Then one line per loop gives each tree's median and minimum time in ms,
the median of the per-round ratios (change over parent) and the rounds
the change wins (a tie counts for neither). The loops call only
``SequenceMachine``, ``sample_sequences``, ``learn_sequence``,
``recall_sequence`` and ``capacity_experiment``, whose signatures both
trees must share; the check reads the machines' ``threshold`` and
``input_table``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import ModuleType

import numpy as np

_LOOPS = ("recall_w512", "learn_w4096", "capacity", "construct_w512", "construct_w4096")


def load_tree(checkout: Path, name: str) -> ModuleType:
    """``seqmachine`` of the ``src/spikeseq`` package of ``checkout``, imported as ``name``."""
    package_dir = checkout / "src" / "spikeseq"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.seqmachine")


def loops(sm: ModuleType) -> dict:
    """The timed loops of one tree, each a call of no arguments, built once."""
    recall_m = sm.SequenceMachine(n_locations=512, seed=0)
    stored = sm.sample_sequences(np.random.default_rng(0), 26, 16, 26)
    for seq in stored:
        sm.learn_sequence(recall_m, seq)
    cues = [(seq[:k], len(seq) - k) for seq in stored[:2] for k in range(1, len(seq))]
    learn_m = sm.SequenceMachine(n_locations=4096, seed=0)
    learned = sm.sample_sequences(np.random.default_rng(1), 4, 24, 26)

    def recall():
        for cue, steps in cues:
            sm.recall_sequence(recall_m, cue, steps)

    def learn():
        for seq in learned:
            sm.learn_sequence(learn_m, seq)

    return {
        "recall_w512": recall,
        "learn_w4096": learn,
        "capacity": lambda: sm.capacity_experiment(n_seeds=1),
        "construct_w512": lambda: sm.SequenceMachine(n_locations=512, seed=0),
        "construct_w4096": lambda: sm.SequenceMachine(n_locations=4096, seed=0),
    }


def check_same_machines(parent: ModuleType, change: ModuleType) -> None:
    """Assert that both trees build the same threshold and input table at W=512 and 4096."""
    for w in (512, 4096):
        a, b = (sm.SequenceMachine(n_locations=w, seed=0) for sm in (parent, change))
        assert a.threshold.hex() == b.threshold.hex(), f"thresholds differ at W={w}"
        assert a.input_table.tobytes() == b.input_table.tobytes(), f"input tables differ at W={w}"


def summarize(name: str, parent: list[float], change: list[float]) -> str:
    """One report line: each side's median and minimum (ms), the median ratio and the wins."""
    ratio = statistics.median(c / p for p, c in zip(parent, change))
    wins = sum(c < p for p, c in zip(parent, change))
    return (f"{name:16s} parent median {1e3 * statistics.median(parent):9.3f} "
            f"min {1e3 * min(parent):9.3f}  change median {1e3 * statistics.median(change):9.3f} "
            f"min {1e3 * min(change):9.3f}  ratio {ratio:.4f}  wins {wins}/{len(parent)}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args(argv)
    trees = {side: load_tree(getattr(args, side), f"spikeseq_{side}")
             for side in ("parent", "change")}
    check_same_machines(trees["parent"], trees["change"])
    calls = {side: loops(sm) for side, sm in trees.items()}
    for side_calls in calls.values():  # one untimed call each, to warm caches and allocator
        for call in side_calls.values():
            call()
    times: dict = {side: {loop: [] for loop in _LOOPS} for side in trees}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for loop in _LOOPS:
            for side in order:
                t0 = perf_counter()
                calls[side][loop]()
                times[side][loop].append(perf_counter() - t0)
    for loop in _LOOPS:
        print(summarize(loop, times["parent"][loop], times["change"][loop]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
