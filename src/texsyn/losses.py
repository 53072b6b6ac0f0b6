"""Texture statistics and training losses.

A texture is summarized by Gram matrices of extractor features.  The
centered variant subtracts the layer's scalar mean activation first, which
keeps the statistics bounded under constant activation shifts; the plain
sum-of-products Gram grows without bound under the same shift.

The training objective combines the texture loss (L1 between centered
Grams of output and exemplar) with a diversity term that rewards batch
members for differing from each other, measured as L1 distance between
deep features of each sample and a deranged partner.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

DIVERSITY_TAP = "conv4_2"
TEXTURE_TAPS = ("conv1_1", "conv2_1", "conv3_1", "conv4_1", "conv5_1")


def _flatten_spatial(features: Tensor) -> tuple:
    """Features [N,C,H,W] as [N,C,H*W], plus H*W."""
    if features.data.ndim != 4:
        raise ShapeError(f"gram: expected features [N,C,H,W], got shape {features.shape}")
    n, c, h, w = features.shape
    return ad.reshape(features, (n, c, h * w)), h * w


def gram(features: Tensor) -> Tensor:
    """G[n,i,j] = (1/(H*W)) * sum_k F[n,i,k]*F[n,j,k] over spatial positions k.

    Features [N,C,H,W] give one Gram per sample, [N,C,C].
    """
    flat, positions = _flatten_spatial(features)
    return ad.scale(ad.batch_gram(flat), 1.0 / positions)


def centered_gram(features: Tensor) -> Tensor:
    """Gram of features with each sample's scalar mean activation removed."""
    flat, positions = _flatten_spatial(features)
    return ad.scale(ad.batch_gram(ad.center(flat)), 1.0 / positions)


def texture_loss(target: dict, output_feats: dict) -> Tensor:
    """L1 distance between target and output centered Grams, summed over taps.

    ``target`` maps each tap to an exemplar's centered Gram [C,C].  Features
    are [N,C,H,W]; the L1 distances of the N samples add up.
    """
    missing = [tap for tap in target if tap not in output_feats]
    if missing:
        raise ValueError(f"output features missing taps {missing}")
    total = None
    for tap, goal in target.items():
        out_gram = centered_gram(output_feats[tap])
        goal_t = Tensor(np.broadcast_to(goal, out_gram.shape), dtype=out_gram.dtype)
        term = ad.l1_norm(ad.sub(out_gram, goal_t))
        total = term if total is None else ad.add(total, term)
    if total is None:
        raise ValueError("target has no taps")
    return total


def derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random permutation of 0..n-1 with no fixed point."""
    if n < 2:
        raise ValueError(f"derangement undefined for n={n}; need n >= 2")
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == np.arange(n)):
            return perm


def diversity_loss(features: Tensor, rng: np.random.Generator) -> Tensor:
    """Mean L1 distance between each sample's features and a deranged partner.

    ``features`` is one batch [N,C,H,W]; row i is paired with row sigma[i]
    of a random derangement sigma.  Each distance is divided by the spatial
    size of the tap map, the same divisor the Gram statistics use, so the
    term keeps its weight relative to the texture losses across image sizes.
    """
    if features.data.ndim != 4:
        raise ShapeError(f"diversity loss: expected features [N,C,H,W], got shape {features.shape}")
    n = features.shape[0]
    if n < 2:
        raise ValueError(f"diversity loss needs a batch of >= 2, got {n}")
    sigma = derangement(n, rng)
    distance = ad.l1_norm(ad.sub(features, ad.take_rows(features, sigma)))
    return ad.scale(distance, 1.0 / (n * int(np.prod(features.shape[2:]))))


def total_loss(texture: Tensor, diversity: Tensor, alpha: float, beta: float) -> Tensor:
    """alpha * texture + beta * diversity; beta < 0 rewards diversity."""
    if texture.size != 1 or diversity.size != 1:
        raise ShapeError(
            f"total loss expects scalars, got {texture.shape} and {diversity.shape}"
        )
    return ad.add(ad.scale(texture, alpha), ad.scale(diversity, beta))
