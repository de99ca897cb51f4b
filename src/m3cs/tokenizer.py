"""Patch-to-token projection (mini-PointNet) and positional embedding of centers."""

from . import autodiff as ad
from .layers import Mlp, Module


class MiniPointNet(Module):
    """Per-point MLP, feature max-pool over the patch, output MLP.

    Max pooling makes the token invariant to any permutation of the patch
    points. Accepts (..., S, 3) and returns (..., c).
    """

    def __init__(self, rng, c):
        self.point_mlp = Mlp(rng, [3, 64, 128])
        self.out_mlp = Mlp(rng, [128, 128, c])

    def __call__(self, patches):
        feat = self.point_mlp(patches)          # (..., S, 128)
        pooled = ad.max_reduce(feat, axis=-2)   # (..., 128)
        return self.out_mlp(pooled)


class PosEmbed(Module):
    """Shared learnable MLP mapping a patch center to a c-dim embedding.

    One instance serves the encoder and every decoder call, so gradients from
    all consumers accumulate into the same parameters.
    """

    def __init__(self, rng, c):
        self.mlp = Mlp(rng, [3, 128, c])

    def __call__(self, centers):
        return self.mlp(centers)
