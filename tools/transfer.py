"""Acceptance criterion 6's transfer protocol, rerun at held-out pretrain seeds.

    python tools/transfer.py [pretrain seed ...]    # default: 1 2 3 4

Each pretrain seed pretrains the desk model for 500 steps on the gate's train set. It
then fine-tunes that model for 300 steps on the gate's support set at fine-tune seeds
0-4 and tests each on the gate's test set, as tests/test_acceptance.py does at pretrain
seed 0. One line per pretrain seed gives the median test accuracy, the five accuracies
and the end codebook perplexity. The from-scratch median, which no pretrain seed
changes, comes last. This is evidence for a change to the numerics, not a gate.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
from m3cs.config import FinetuneConfig, ModelConfig, PretrainConfig  # noqa: E402
from m3cs.data import gen_shapes  # noqa: E402
from m3cs.finetune import finetune_loop  # noqa: E402
from m3cs.pretrain import pretrain_loop  # noqa: E402
from m3cs.rng import make_rng  # noqa: E402

# The protocol below (families, cloud counts, rng streams 50/51/52, 1024 points, the
# pretrain and fine-tune configs and seeds) copies criterion 6 and its `pretrained`
# fixture in tests/test_acceptance.py. Change the two together.
FAMILIES = ("sphere", "cube", "torus", "cylinder")
DESK = ModelConfig()


def fine_tune_summary(sup, test, init_arrays=None):
    """The median and the five test accuracies of fine-tuning at seeds 0-4."""
    accs = [finetune_loop(sup, test, DESK, FinetuneConfig(steps=300), seed=seed,
                          init_arrays=init_arrays)[2] for seed in range(5)]
    return f"median {np.median(accs):.3f} ({' '.join(f'{a:.3f}' for a in accs)})"


def main(seeds):
    train = gen_shapes(FAMILIES, 128, 1024, make_rng(0, 50), "train")
    sup = gen_shapes(FAMILIES, 16, 1024, make_rng(0, 52), "train")
    test = gen_shapes(FAMILIES, 32, 1024, make_rng(0, 51), "test")
    pcfg = PretrainConfig(steps=500, batch_size=16)
    for seed in seeds:
        model, _, _, metrics = pretrain_loop(train, DESK, pcfg, seed=seed)
        arrays = {k: p.data for k, p in model.params().items()}
        print(f"pretrain seed {seed}: {fine_tune_summary(sup, test, arrays)}, "
              f"end perplexity {metrics[-1]['perplexity']:.1f}", flush=True)
    print(f"scratch: {fine_tune_summary(sup, test)}", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3, 4])
    main(parser.parse_args().seeds)
