"""Acceptance criterion 6's transfer protocol, rerun at held-out pretrain seeds.

    python tools/transfer.py [pretrain seed ...]    # default: 1 2 3 4

The protocol and its bounds are imported from tests/test_acceptance.py, which runs it at
pretrain seed 0. Prints the from-scratch accuracies, then for each pretrain seed its
accuracies, margin over scratch, end perplexity and the gate's bounds it misses. It is
evidence for a change to the numerics, not a gate.
"""

import os
import sys

import numpy as np

sys.path[:0] = [os.path.join(os.path.dirname(__file__), "..", d) for d in ("src", "tests")]
from test_acceptance import (MARGIN_FLOOR, MEDIAN_FLOOR, PERPLEXITY_FLOOR,  # noqa: E402
                             desk_pretrain, transfer_accuracies, transfer_sets)


def summary(accs):
    return f"median {np.median(accs):.3f} ({' '.join(f'{a:.3f}' for a in accs)})"


def main(seeds):
    train, sup, test = transfer_sets()
    scratch = transfer_accuracies(sup, test)
    print(f"scratch: {summary(scratch)}", flush=True)
    for seed in seeds:
        arrays, metrics = desk_pretrain(train, seed)
        accs = transfer_accuracies(sup, test, arrays)
        med, ppl = float(np.median(accs)), metrics[-1]["perplexity"]
        margin = med - float(np.median(scratch))
        missed = ", ".join(f"{name} >= {floor}" for name, value, floor in (
            ("median", med, MEDIAN_FLOOR), ("margin", margin, MARGIN_FLOOR),
            ("perplexity", ppl, PERPLEXITY_FLOOR)) if not value >= floor)
        print(f"pretrain seed {seed}: {summary(accs)}, margin {margin:+.3f}, end perplexity "
              f"{ppl:.1f}; {f'misses {missed}' if missed else 'meets all bounds'}", flush=True)


if __name__ == "__main__":
    main([int(seed) for seed in sys.argv[1:]] or [1, 2, 3, 4])
