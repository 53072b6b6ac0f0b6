"""Two-stream synthesis network.

The generator stream turns a noise vector crossed with a selection
embedding into 1x1 seed maps, expands them with a transposed convolution,
then repeatedly upsamples and convolves up to the output resolution.  The
selector stream projects the same embedding into a coarse spatial map and
refines it once per scale; each scale's convolution reads its guidance
map beside the upsampled generator maps, telling every scale which
texture is wanted.

Each upsample-then-convolve is one ``ad.upsample_conv2d`` at the source
resolution.  A generator scale's kernel is split by input channel: its
first part convolves the generator maps, and its guidance part convolves
the guidance maps.  One selection shared by the batch has its guidance
convolved once, at batch 1, and repeated over the batch; one selection
per noise row runs the embedding, the selector stream and the guidance
convolution at one row per image.

Texture ids are 1-based everywhere: the one-hot selection for texture k
has bit k set, counting from 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng as _rng
from . import serialize
from .autodiff import ShapeError, Tensor
from .serialize import ParamSet


@dataclass(frozen=True)
class SynthesisConfig:
    textures: int  # M, how many exemplars one network holds
    embed_dim: int = 8  # d
    noise_dim: int = 5  # n
    base_size: int = 4  # spatial size of the seed expansion
    scales: int = 3  # upsampling doublings; output = base_size * 2**scales
    widths: tuple = (32, 32, 24, 16)  # channels at base + each scale
    guidance_channels: int = 8

    def __post_init__(self):
        if self.textures < 1:
            raise ValueError(f"need at least one texture, got {self.textures}")
        if self.embed_dim < 1 or self.noise_dim < 1:
            raise ValueError("embed_dim and noise_dim must be >= 1")
        if min(self.base_size, self.guidance_channels, *self.widths) < 1:
            raise ValueError(
                f"base_size, guidance_channels and widths must be >= 1, got {self.base_size}, "
                f"{self.guidance_channels} and {self.widths}"
            )
        if len(self.widths) != self.scales + 1:
            raise ValueError(
                f"{self.scales} scales need {self.scales + 1} widths, "
                f"got {len(self.widths)}"
            )

    @property
    def output_size(self) -> int:
        return self.base_size * 2**self.scales


@dataclass
class SelectionUnit:
    """Finite nonnegative per-texture weights; one-hot during training.

    Weights (M,) are one selection; weights [R, M] are R selections, one
    per row, which ``generate`` takes with R = 1 or one row per noise row.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim not in (1, 2) or (w.ndim == 2 and w.shape[0] == 0):
            raise ShapeError(f"selection must be (M,) or [R, M] with R >= 1, got shape {w.shape}")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError(f"selection weights must be finite and nonnegative, got {w.tolist()}")
        self.weights = w


def one_hot(config: SynthesisConfig, texture_id: int) -> SelectionUnit:
    return weighted_selection(config.textures, [(texture_id, 1.0)])


def weighted_selection(count: int, pairs: list, what: str = "texture") -> SelectionUnit:
    """Weights from (id, weight) pairs over ids 1..count; unlisted ids get 0."""
    w = np.zeros(count)
    seen = set()
    for k, weight in pairs:
        if not 1 <= k <= count:
            raise ValueError(f"{what} id {k} out of range 1..{count}")
        if k in seen:
            raise ValueError(f"{what} id {k} listed twice")
        seen.add(k)
        w[k - 1] = weight
    return SelectionUnit(w)


def _param_shapes(config: SynthesisConfig) -> dict:
    c = config
    seed_channels = c.noise_dim * c.embed_dim
    gc = c.guidance_channels
    shapes = {
        "embedding": (c.textures, c.embed_dim),
        "seed.kernel": (seed_channels, c.widths[0], c.base_size, c.base_size),
        "selector.proj": (c.embed_dim, gc * c.base_size * c.base_size),
        "selector.proj_bias": (gc * c.base_size * c.base_size,),
    }
    for s in range(1, c.scales + 1):
        shapes[f"scale{s}.kernel"] = (c.widths[s], c.widths[s - 1] + gc, 3, 3)
        shapes[f"scale{s}.bias"] = (c.widths[s],)
        shapes[f"selector.scale{s}.kernel"] = (gc, gc, 3, 3)
        shapes[f"selector.scale{s}.bias"] = (gc,)
    shapes["rgb.kernel"] = (3, c.widths[c.scales], 3, 3)
    shapes["rgb.bias"] = (3,)
    return shapes


def init_params(config: SynthesisConfig, seed: int) -> ParamSet:
    """``ParamSet.init`` kernels and biases, sigma 0.1 embedding."""
    stds = {"embedding": 0.1, "selector.proj": np.sqrt(1.0 / config.embed_dim)}
    return ParamSet.init(config, _param_shapes(config), _rng.stream(seed, "generator-init"), stds)


def embed(params: ParamSet, selection: SelectionUnit) -> Tensor:
    """Project the selection onto the embedding rows: e = selection @ E,
    (d,) for one selection (M,) and [R, d] for selection rows [R, M]."""
    m = params.config.textures
    w = selection.weights
    if w.shape[-1:] != (m,):
        raise ShapeError(f"selection has shape {w.shape}, expected ({m},) or (R, {m})")
    e_mat = params.tensors["embedding"]
    e = ad.matmul(Tensor(w.reshape(-1, m), dtype=e_mat.dtype), e_mat)
    return ad.reshape(e, (params.config.embed_dim,)) if w.ndim == 1 else e


def seed_maps(noise: Tensor, embedding: Tensor) -> Tensor:
    """Outer products of noise [N,n] (or one vector (n,)) and the embedding
    (d,), or [1,d], or of each noise row and its own embedding row [N,d], as
    N batches of n*d separate 1x1 maps: [N, n*d, 1, 1].

    Either way entry (i, a·d + b) is the one rounded product
    noise[i, a]·e[i, b], so a row's maps do not depend on the rows beside it.
    """
    n, d = noise.shape[-1], embedding.shape[-1]
    batch = noise.size // n
    if embedding.size == d:
        out = ad.matmul(ad.reshape(noise, (batch * n, 1)), ad.reshape(embedding, (1, d)))
    else:
        # flat entry (i·n + a)·d + b takes noise entry i·n + a and embedding entry i·d + b
        flat = np.arange(batch * n * d)
        out = ad.mul(
            ad.take_rows(ad.reshape(noise, (batch * n,)), flat // d),
            ad.take_rows(ad.reshape(embedding, (batch * d,)), flat // (n * d) * d + flat % d),
        )
    return ad.reshape(out, (batch, n * d, 1, 1))


def selector_guidance(params: ParamSet, embedding: Tensor) -> list:
    """One guidance map [R,gc,s,s] per scale, sized to match the generator
    there, for embedding rows [R,d]; one embedding (d,) gives R = 1."""
    c = params.config
    t = params.tensors
    rows = embedding.size // c.embed_dim
    x = ad.matmul(ad.reshape(embedding, (rows, c.embed_dim)), t["selector.proj"])
    bias = ad.reshape(t["selector.proj_bias"], (1,) + t["selector.proj_bias"].shape)
    x = ad.add(x, bias if rows == 1 else ad.repeat_batch(bias, rows))
    x = ad.leaky_relu(ad.reshape(x, (rows, c.guidance_channels, c.base_size, c.base_size)))
    maps = []
    for s in range(1, c.scales + 1):
        x = ad.leaky_relu(
            ad.upsample_conv2d(x, t[f"selector.scale{s}.kernel"], t[f"selector.scale{s}.bias"])
        )
        maps.append(x)
    return maps


def generate(
    params: ParamSet,
    selection: SelectionUnit,
    noise,
    use_selector: bool = True,
) -> Tensor:
    """Synthesize images in [-1,1]; pure in all arguments.

    One noise vector (noise_dim,) gives one image [3,S,S]; a batch of
    noise [N,noise_dim] gives [N,3,S,S].  A selection (M,) or [1, M] is
    shared by every row: the embedding and the selector stream run once
    per call and are repeated over the batch.  A selection [N, M] gives
    row i its own selection row, and they run at N rows.  Either way row i
    equals the single call with row i's noise and selection, bit for bit in
    float32 wherever BLAS's matrix-matrix and matrix-vector products agree
    (at the default sizes they do).  With ``use_selector`` off (an ablation) the guidance term is
    dropped, as if the guidance maps were zeros: the generator stream
    receives no texture information beyond the seed maps, and the selector
    weights get no gradient.
    """
    c = params.config
    t = params.tensors
    if not isinstance(noise, Tensor):
        noise = Tensor(np.asarray(noise), dtype=t["embedding"].dtype)
    single = noise.data.ndim == 1
    if noise.shape[-1:] != (c.noise_dim,) or noise.data.ndim > 2 or noise.size == 0:
        raise ShapeError(
            f"noise has shape {noise.shape}, expected ({c.noise_dim},) or (N, {c.noise_dim})"
        )
    batch = noise.size // c.noise_dim
    rows = selection.weights.shape[0] if selection.weights.ndim == 2 else 1
    if rows not in (1, batch):
        raise ShapeError(f"selection has {rows} rows for {batch} noise rows; expected 1 or {batch}")
    e = embed(params, selection)
    x = ad.full_conv2d(seed_maps(noise, e), t["seed.kernel"])
    x = ad.leaky_relu(x)
    guidance = selector_guidance(params, e) if use_selector else None
    for s in range(1, c.scales + 1):
        kernel, cx = t[f"scale{s}.kernel"], c.widths[s - 1]
        y = ad.upsample_conv2d(x, ad.slice_channels(kernel, 0, cx), t[f"scale{s}.bias"])
        if guidance:
            g = ad.conv2d(guidance[s - 1], ad.slice_channels(kernel, cx, kernel.shape[1]), pad=1)
            y = ad.add(y, ad.repeat_batch(g, batch) if rows == 1 else g)
        x = ad.leaky_relu(y)
    x = ad.tanh(ad.conv2d(x, t["rgb.kernel"], t["rgb.bias"], pad=1))
    return ad.reshape(x, (3, c.output_size, c.output_size)) if single else x


def sample_noise(config: SynthesisConfig, gen: np.random.Generator) -> np.ndarray:
    """Noise vectors are uniform in [-1, 1]."""
    return gen.uniform(-1.0, 1.0, size=config.noise_dim)


# ---------------------------------------------------------------------------
# model files: config header + weight tensors in the shared binary format

_CONFIG_KEY = "synthesis.config"


def _config_array(config: SynthesisConfig) -> np.ndarray:
    return np.array(
        [
            config.textures,
            config.embed_dim,
            config.noise_dim,
            config.base_size,
            config.scales,
            config.guidance_channels,
            *config.widths,
        ],
        dtype=np.float32,
    )


def _layout(arr: np.ndarray) -> tuple:
    vals = serialize.header_ints(arr, _CONFIG_KEY, 7)
    config = SynthesisConfig(
        textures=vals[0],
        embed_dim=vals[1],
        noise_dim=vals[2],
        base_size=vals[3],
        scales=vals[4],
        guidance_channels=vals[5],
        widths=tuple(vals[6:]),
    )
    return config, _param_shapes(config)


def save_model(params: ParamSet, path: str) -> None:
    serialize.save_params(path, params, _CONFIG_KEY, _config_array(params.config))


def load_model(path: str) -> ParamSet:
    """A checked model file; its tensors take no gradient, so forward passes build no graph."""
    return ParamSet.of(*serialize.load_checked(path, _layout, _CONFIG_KEY), requires_grad=False)
