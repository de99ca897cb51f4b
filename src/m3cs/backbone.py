"""Transformer encoder (student/teacher), the siamese decoder, and the shared backbone."""

from . import autodiff as ad
from .autodiff import Tensor
from .layers import LayerNorm, Linear, Module
from .tokenizer import MiniPointNet, PosEmbed


class SelfAttention(Module):
    def __init__(self, rng, c, heads):
        if c % heads != 0:
            raise ValueError(f"width {c} not divisible by {heads} heads")
        self.heads = heads
        self.q = Linear(rng, c, c)
        self.k = Linear(rng, c, c)
        self.v = Linear(rng, c, c)
        self.proj = Linear(rng, c, c)

    def __call__(self, x):
        return self.proj(ad.attention(self.q(x), self.k(x), self.v(x), self.heads))


class Block(Module):
    """Pre-norm self-attention block with a 4x GELU MLP."""

    def __init__(self, rng, c, heads):
        self.ln1 = LayerNorm(c)
        self.attn = SelfAttention(rng, c, heads)
        self.ln2 = LayerNorm(c)
        self.fc1 = Linear(rng, c, 4 * c)
        self.fc2 = Linear(rng, 4 * c, c)

    def __call__(self, x):
        x = ad.add(x, self.attn(self.ln1(x)))
        return ad.add(x, self.fc2(ad.gelu(self.fc1(self.ln2(x)))))


class EncoderStack(Module):
    """Stack of self-attention blocks; returns every block's output."""

    def __init__(self, rng, c, heads, depth):
        self.blocks = [Block(rng, c, heads) for _ in range(depth)]
        self.ln_final = LayerNorm(c)

    def __call__(self, tokens, pos):
        """One hidden state per block, in order; the last one is post-norm.

        Positions are added once at the input.
        """
        x = ad.add(tokens, pos)
        hidden = []
        for block in self.blocks:
            x = block(x)
            hidden.append(x)
        hidden[-1] = self.ln_final(x)
        return hidden


class SiameseDecoder(EncoderStack):
    """The encoder's block stack, one parameter set serving both decoding roles.

    Positional embeddings are re-added at every block input, so masked slots
    keep their location identity throughout decoding.
    """

    def __call__(self, tokens, pos):
        x = tokens
        for block in self.blocks:
            x = block(ad.add(x, pos))
        return self.ln_final(x)


class Backbone(Module):
    """Tokenizer, center embedding and encoder: the modules both models share.

    Sizes below 1 are refused first; subclasses build after this, an order that fixes the rng draws.
    """

    def __init__(self, rng, cfg):
        for key in ("c", "heads", "enc_depth", "dec_depth", "g", "s", "n_points"):
            if getattr(cfg, key) < 1:
                raise ValueError(f"model.{key} must be at least 1, got {getattr(cfg, key)}")
        self.cfg = cfg
        self.tokenizer = MiniPointNet(rng, cfg.c)
        self.pos_embed = PosEmbed(rng, cfg.c)
        self.encoder = EncoderStack(rng, cfg.c, cfg.heads, cfg.enc_depth)

    def embed(self, groups, centers):
        """Raw patches -> (tokens, pos), both (..., G, c)."""
        tokens = self.tokenizer(Tensor(groups))
        pos = self.pos_embed(Tensor(centers))
        return tokens, pos
