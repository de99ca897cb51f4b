"""Shared parameterized building blocks: linear layers, MLPs, layer norm with affine."""

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def init_param(rng, shape, std=0.02):
    if std == 0.0:
        return Tensor(np.zeros(shape), requires_grad=True)
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


class Module:
    """Tiny param-registry base: children and Tensors found by attribute walk."""

    def named_tensors(self, prefix=""):
        """Every Tensor reachable by attribute walk, whether it requires grad or not."""
        out = {}
        for name, val in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(val, Tensor):
                out[key] = val
            elif isinstance(val, Module):
                out.update(val.named_tensors(f"{key}."))
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.update(item.named_tensors(f"{key}.{i}."))
        return out

    def params(self):
        """The trainable (requires_grad) tensors of named_tensors()."""
        return {k: t for k, t in self.named_tensors().items() if t.requires_grad}

    def load_params(self, arrays):
        """Copy values into the tensors whose names appear in arrays (shapes must agree)."""
        for key, p in self.named_tensors().items():
            if key in arrays:
                a = np.asarray(arrays[key], dtype=p.data.dtype)
                if a.shape != p.shape:
                    raise ValueError(f"tensor '{key}' has shape {list(a.shape)}, "
                                     f"the model's is {list(p.shape)}")
                p.data = a.copy()
        return self

    def param_count(self):
        return sum(p.size for p in self.params().values())


class Linear(Module):
    def __init__(self, rng, d_in, d_out, std=None):
        # fan-in scaling keeps activations O(1) through stacked layers; a
        # fixed tiny std starves non-residual paths like the tokenizer MLP
        if std is None:
            std = 1.0 / math.sqrt(d_in)
        self.w = init_param(rng, (d_in, d_out), std)
        self.b = init_param(rng, (d_out,), 0.0)

    def __call__(self, x):
        return ad.linear(x, self.w, self.b)


class Mlp(Module):
    """Linear -> GELU -> ... -> Linear over the listed widths."""

    def __init__(self, rng, widths):
        self.layers = [Linear(rng, a, b) for a, b in zip(widths[:-1], widths[1:])]

    def __call__(self, x):
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = ad.gelu(x)
        return x


class LayerNorm(Module):
    def __init__(self, dim):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x):
        return ad.layer_norm(x, self.gamma, self.beta)
