"""Fixed multi-scale feature extractor used by all losses.

Five stages of 3x3 convolutions with ReLU, average-pooled between stages,
mirroring a classic deep recognition topology at desk-scale widths.  The
weights are random but deterministic in a seed, and frozen: features act
as fixed multi-scale projections whose Gram statistics the losses compare.
Activations are tapped after named ReLUs, e.g. "conv4_2" is the second
convolution of stage 4.

Images enter in [-1, 1].  Spatial size must be divisible by 2**(stages-1)
so every pooling halving lands on an even size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import autodiff as ad
from . import rng as _rng
from . import serialize
from .autodiff import ShapeError, Tensor


@dataclass(frozen=True)
class ExtractorConfig:
    stage_channels: tuple = (8, 16, 32, 64, 64)
    convs_per_stage: tuple = (1, 1, 1, 2, 1)
    seed: int = 0
    weight_file: str | None = None

    def __post_init__(self):
        if len(self.stage_channels) != len(self.convs_per_stage):
            raise ValueError(
                f"{len(self.stage_channels)} stage widths but "
                f"{len(self.convs_per_stage)} conv counts"
            )
        if any(v < 1 for v in self.stage_channels + self.convs_per_stage):
            raise ValueError(
                f"stage_channels and convs_per_stage must be >= 1, got "
                f"{self.stage_channels} and {self.convs_per_stage}"
            )

    @property
    def stages(self) -> int:
        return len(self.stage_channels)

    @property
    def size_divisor(self) -> int:
        return 2 ** (self.stages - 1)

    def locate_tap(self, name: str) -> tuple:
        """Map 'conv{s}_{i}' to zero-based (stage, conv) indices."""
        try:
            body = name.removeprefix("conv")
            stage_s, idx_s = body.split("_")
            stage, idx = int(stage_s) - 1, int(idx_s) - 1
        except (ValueError, AttributeError):
            raise ValueError(f"malformed tap name {name!r}") from None
        if not (0 <= stage < self.stages) or not (
            0 <= idx < self.convs_per_stage[stage]
        ):
            raise ValueError(f"tap {name!r} does not resolve to a layer")
        return stage, idx


@dataclass
class Extractor:
    """Frozen weights plus the config that shaped them."""

    config: ExtractorConfig
    weights: dict = field(repr=False)  # name -> float32 ndarray

    def signature(self) -> bytes:
        """Digest of all weights, for frozen-ness assertions."""
        import hashlib

        h = hashlib.sha256()
        for name in sorted(self.weights):
            h.update(name.encode())
            h.update(self.weights[name].tobytes())
        return h.digest()


def _layer_names(config: ExtractorConfig):
    for stage in range(config.stages):
        for idx in range(config.convs_per_stage[stage]):
            yield stage, idx, f"conv{stage + 1}_{idx + 1}"


def _expected_shapes(config: ExtractorConfig) -> dict:
    shapes = {}
    in_ch = 3
    for stage, idx, name in _layer_names(config):
        out_ch = config.stage_channels[stage]
        shapes[f"{name}.kernel"] = (out_ch, in_ch, 3, 3)
        shapes[f"{name}.bias"] = (out_ch,)
        in_ch = out_ch
    return shapes


def build_extractor(config: ExtractorConfig = ExtractorConfig()) -> Extractor:
    """Construct the extractor, seeding weights or loading them from file."""
    expected = _expected_shapes(config)
    if config.weight_file is not None:
        _, weights = serialize.load_checked(config.weight_file, lambda _: (config, expected))
    else:
        params = serialize.ParamSet.init(config, expected, _rng.stream(config.seed, "extractor-weights"))
        weights = {name: t.data for name, t in params.tensors.items()}
    return Extractor(config=config, weights=weights)


def extract(extractor: Extractor, image: Tensor, taps) -> dict:
    """Run the extractor on images [N,3,H,W]; returns {tap name: [N,C,h,w] Tensor}.

    Differentiable with respect to the images; the weights never receive
    gradients.  Stages past the deepest requested tap are skipped.  A tap
    named twice or naming no layer raises ValueError.
    """
    config = extractor.config
    wanted = {}
    for tap in taps:
        if tap in wanted:
            raise ValueError(f"duplicate tap {tap!r}")
        wanted[tap] = config.locate_tap(tap)

    if image.data.ndim != 4 or image.shape[1] != 3:
        raise ShapeError(f"extract: expected images [N,3,H,W], got shape {image.shape}")
    x = image
    h, w = x.shape[2], x.shape[3]
    div = config.size_divisor
    if h % div or w % div:
        raise ShapeError(
            f"extract: spatial size {h}x{w} not divisible by {div}"
        )

    last_stage = max(stage for stage, _ in wanted.values())
    dtype = image.dtype
    out: dict[str, Tensor] = {}
    remaining = set(wanted)
    for stage, idx, name in _layer_names(config):
        if stage > last_stage or not remaining:
            break
        if idx == 0 and stage > 0:
            x = ad.avg_pool2(x)
        kernel = Tensor(extractor.weights[f"{name}.kernel"], dtype=dtype)
        bias = Tensor(extractor.weights[f"{name}.bias"], dtype=dtype)
        x = ad.relu(ad.conv2d(x, kernel, bias, pad=1))
        if name in remaining:
            out[name] = x
            remaining.discard(name)
    return {tap: out[tap] for tap in taps}
