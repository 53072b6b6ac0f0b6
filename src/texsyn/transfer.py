"""Multi-style transfer: encode content, inject style noise maps, decode.

The network is a fully convolutional autoencoder.  Two stride-2
convolutions compress the content image; at the bottleneck, one 1-channel
noise map per style conditions the first decoder convolution ``dec1``.
Selecting a style means sampling that style's map at random while every
other map stays zero; blending styles feeds a weighted sum of freshly
sampled maps.  The decoder mirrors the encoder with nearest-neighbor
upsampling (``ad.upsample_conv2d``), so output size always equals content
size.

``dec1``'s kernel reads the encoder's channels first and the noise maps
after them, as if the two were concatenated.  A convolution is a sum over
input channels, so it splits by kernel block, as the generator's guidance
does: the content block (with the bias) convolves the encoder output once
at batch 1, is repeated over the samples, and is added to the noise
block's convolution of the per-sample noise maps.  That is the
convolution of the concatenation, and model files keep its one kernel.

Training reuses the texture machinery: the same loop and schedule
(``trainer.fit``) and the same batch objective (``trainer.batch_losses``):
style loss is the centered-Gram texture loss of the output against the
style exemplar, diversity is the same deranged feature distance.  A
content term (L1 of deep features against the content image) anchors
structure.  The loss log adds an ``l_content``
column to the texture trainer's columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng as _rng
from . import serialize
from .autodiff import ShapeError, Tensor
from .extractor import Extractor, build_extractor, extract
from .generator import SelectionUnit, weighted_selection
from .losses import TEXTURE_TAPS, total_loss
from .optim import Adam
from .serialize import LOSS_COLUMNS, LossLog, ParamSet
from .trainer import LoopConfig, batch_losses, fit, precompute_targets, schedule_texture

LOG_COLUMNS = LOSS_COLUMNS + ("l_content",)


@dataclass(frozen=True)
class TransferNetConfig:
    styles: int  # M_s
    enc_widths: tuple = (16, 32)  # each entry is one stride-2 stage
    dec_widths: tuple = (32, 16, 16)  # bottleneck conv, then one per upsample
    noise_channels: int = 1  # per style, at the bottleneck grid

    def __post_init__(self):
        if self.styles < 1:
            raise ValueError(f"need at least one style, got {self.styles}")
        if len(self.dec_widths) != len(self.enc_widths) + 1:
            raise ValueError(
                "decoder needs one bottleneck conv plus one conv per encoder stage: "
                f"{len(self.enc_widths)} stages need {len(self.enc_widths) + 1} widths"
            )
        if self.noise_channels < 1:
            raise ValueError("noise_channels must be >= 1")
        if any(v < 1 for v in self.enc_widths + self.dec_widths):
            raise ValueError(
                f"enc_widths and dec_widths must be >= 1, "
                f"got {self.enc_widths} and {self.dec_widths}"
            )

    @property
    def stride(self) -> int:
        return 2 ** len(self.enc_widths)


def _param_shapes(config: TransferNetConfig) -> dict:
    shapes = {}
    in_ch = 3
    for i, width in enumerate(config.enc_widths, start=1):
        shapes[f"enc{i}.kernel"] = (width, in_ch, 3, 3)
        shapes[f"enc{i}.bias"] = (width,)
        in_ch = width
    in_ch += config.styles * config.noise_channels
    for i, width in enumerate(config.dec_widths, start=1):
        shapes[f"dec{i}.kernel"] = (width, in_ch, 3, 3)
        shapes[f"dec{i}.bias"] = (width,)
        in_ch = width
    shapes["rgb.kernel"] = (3, in_ch, 3, 3)
    shapes["rgb.bias"] = (3,)
    return shapes


def init_transfer_params(config: TransferNetConfig, seed: int) -> ParamSet:
    return ParamSet.init(config, _param_shapes(config), _rng.stream(seed, "transfer-init"))


def sample_noise_maps(
    config: TransferNetConfig, spatial: tuple, weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw weight * uniform[-1,1] maps for selected styles, zeros elsewhere.

    Returns [M_s * noise_channels, h, w] float32.  Styles are visited in
    index order and unselected styles consume no randomness, so a single
    (k, 1.0) selection reproduces the one-hot draw stream exactly.
    """
    h, w = spatial
    ch = config.noise_channels
    maps = np.zeros((config.styles * ch, h, w), dtype=np.float32)
    for i, weight in enumerate(weights):
        if weight != 0.0:
            draw = rng.uniform(-1.0, 1.0, size=(ch, h, w))
            maps[i * ch : (i + 1) * ch] = (weight * draw).astype(np.float32)
    return maps


def transfer(
    params: ParamSet,
    content: Tensor,
    selection: SelectionUnit,
    rng: np.random.Generator,
    samples: int | None = None,
) -> Tensor:
    """Stylize content under the selection's weights; same spatial size out.

    Differentiable in params.  The selection's noise maps join the encoder
    output at the bottleneck.  By default one image [3,H,W] comes out;
    with ``samples=n`` the content is encoded and its ``dec1`` block
    convolved once, that map repeated n times, and n noise-map sets drawn
    from ``rng`` in turn give [n,3,H,W].
    """
    c = params.config
    t = params.tensors
    if selection.weights.shape != (c.styles,):
        raise ShapeError(
            f"selection has shape {selection.weights.shape}, "
            f"expected ({c.styles},) for a model of {c.styles} styles"
        )
    if content.data.ndim != 3 or content.shape[0] != 3:
        raise ShapeError(f"content must be [3,H,W], got shape {content.shape}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    h, w = content.shape[1], content.shape[2]
    s = c.stride
    if h % s or w % s:
        raise ShapeError(f"content size {h}x{w} not divisible by encoder stride {s}")
    batch = 1 if samples is None else samples
    noise = np.stack(
        [sample_noise_maps(c, (h // s, w // s), selection.weights, rng) for _ in range(batch)]
    )
    x = ad.reshape(content, (1,) + content.shape)
    for i in range(1, len(c.enc_widths) + 1):
        x = ad.leaky_relu(ad.conv2d(x, t[f"enc{i}.kernel"], t[f"enc{i}.bias"], stride=2, pad=1))
    kernel, cx = t["dec1.kernel"], c.enc_widths[-1]
    y = ad.conv2d(x, ad.slice_channels(kernel, 0, cx), t["dec1.bias"], pad=1)
    z = ad.conv2d(Tensor(noise, dtype=x.dtype), ad.slice_channels(kernel, cx, kernel.shape[1]), pad=1)
    x = ad.leaky_relu(ad.add(ad.repeat_batch(y, batch), z))
    for i in range(2, len(c.dec_widths) + 1):
        x = ad.leaky_relu(ad.upsample_conv2d(x, t[f"dec{i}.kernel"], t[f"dec{i}.bias"]))
    x = ad.tanh(ad.conv2d(x, t["rgb.kernel"], t["rgb.bias"], pad=1))
    return ad.reshape(x, (3, h, w)) if samples is None else x


def interpolate_styles(
    params: ParamSet, content: Tensor, pairs: list, rng: np.random.Generator
) -> Tensor:
    """Blend styles by feeding a weighted sum of their noise maps."""
    selection = weighted_selection(params.config.styles, pairs, "style")
    return transfer(params, content, selection, rng)


def content_distance(out_feat: Tensor, ref_feat: Tensor) -> Tensor:
    """L1 distance of two [N,C,H,W] feature batches over the element count:
    the mean of the N per-sample distances."""
    return ad.scale(ad.l1_norm(ad.sub(out_feat, ref_feat)), 1.0 / out_feat.size)


@dataclass
class TransferConfig(LoopConfig):
    content_weight: float = 1.0
    style_taps: tuple = TEXTURE_TAPS


def train_transfer(
    styles: list,
    contents: list,
    config: TransferConfig,
    net_config: TransferNetConfig | None = None,
    extractor: Extractor | None = None,
    log_every: int = 0,
) -> tuple:
    """Train the transfer network; returns (params, LossLog of LOG_COLUMNS)."""
    if not styles or not contents:
        raise ValueError("need at least one style and one content image")
    m = len(styles)
    if net_config is None:
        net_config = TransferNetConfig(styles=m)
    if net_config.styles != m:
        raise ValueError(f"config expects {net_config.styles} styles, got {m}")
    if extractor is None:
        extractor = build_extractor()

    targets = precompute_targets(extractor, styles, taps=config.style_taps)
    params = init_transfer_params(net_config, config.seed)
    dtype = params.tensors["rgb.kernel"].dtype  # contents take the weights' width
    content_arrays = [
        (c.data if isinstance(c, Tensor) else np.asarray(c)).astype(dtype) for c in contents
    ]
    optimizer = Adam(params.parameters(), lr=config.lr)
    noise_rng = _rng.stream(config.seed, "transfer-noise")
    derangement_rng = _rng.stream(config.seed, "derangement")
    content_rng = _rng.stream(config.seed, "transfer-content")

    deep = config.diversity_tap
    taps = tuple(config.style_taps)
    if deep not in taps:
        taps = taps + (deep,)

    # the contents are constant, so their features are extracted once per run
    content_feats = [extract(extractor, Tensor(arr[None]), [deep])[deep] for arr in content_arrays]

    def step(style_id):
        k = int(content_rng.integers(len(content_arrays)))
        content, content_feat = Tensor(content_arrays[k]), content_feats[k]
        selection = weighted_selection(m, [(style_id, 1.0)], "style")
        l_style, l_diversity, maps = batch_losses(
            config, extractor, targets[style_id - 1],
            lambda n: transfer(params, content, selection, noise_rng, samples=n), taps, derangement_rng,
        )
        l_content = content_distance(maps, ad.repeat_batch(content_feat, config.batch_size))
        loss = ad.add(
            total_loss(l_style, l_diversity, config.alpha, config.beta),
            ad.scale(l_content, config.content_weight),
        )
        optimizer.step(ad.backward(loss, optimizer.params))
        return float(l_style.data), float(l_diversity.data), float(loss.data), float(l_content.data)

    log = fit(config, m, schedule_texture, step, LossLog(LOG_COLUMNS), log_every)
    return params, log


# ---------------------------------------------------------------------------
# model files

_CONFIG_KEY = "transfer.config"


def save_transfer_model(params: ParamSet, path: str) -> None:
    c = params.config
    header = np.array(
        [c.styles, c.noise_channels, len(c.enc_widths), *c.enc_widths, *c.dec_widths],
        dtype=np.float32,
    )
    serialize.save_params(path, params, _CONFIG_KEY, header)


def _layout(arr: np.ndarray) -> tuple:
    header = serialize.header_ints(arr, _CONFIG_KEY, 3)
    styles, noise_channels, n_enc = header[0], header[1], header[2]
    config = TransferNetConfig(
        styles=styles,
        enc_widths=tuple(header[3 : 3 + n_enc]),
        dec_widths=tuple(header[3 + n_enc :]),
        noise_channels=noise_channels,
    )
    return config, _param_shapes(config)


def load_transfer_model(path: str) -> ParamSet:
    """A checked model file; its tensors take no gradient, so forward passes build no graph."""
    return ParamSet.of(*serialize.load_checked(path, _layout, _CONFIG_KEY), requires_grad=False)
