"""Plain-text run configuration: ``section.key = value`` lines.

One file configures a whole run.  Every key is registered with a parser
and a one-line description; unknown keys are rejected so a typo can never
silently fall back to a default.  A ``synthesis``, ``extractor``,
``train`` or ``transfer`` key takes its default from the config-class
field of the same name; only ``paths`` keys hold their defaults here.
``#`` starts a comment, blank lines are ignored, and later assignments
override earlier ones.  Command-line ``--set section.key=value``
overrides go through the same parser.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .extractor import ExtractorConfig
from .generator import SynthesisConfig
from .trainer import TrainConfig
from .transfer import TransferConfig, TransferNetConfig


class ConfigError(ValueError):
    """A config file or override could not be parsed or validated."""


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected true/false, got {text!r}")


def _str(text: str) -> str:
    return text


def _opt_str(text: str):
    return None if text.lower() in ("", "none") else text


def _opt_int(text: str):
    return None if text.lower() in ("", "none", "auto") else _int(text)


def _ints(text: str) -> tuple:
    if not text.strip():
        raise ConfigError("expected a comma-separated list of integers")
    return tuple(_int(part.strip()) for part in text.split(","))


def _strs(text: str) -> tuple:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    return parts


@dataclass(frozen=True)
class Setting:
    parse: object  # str -> typed value
    default: object
    doc: str


def _fmt_default(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


# A key of these sections names a field of the section's config classes,
# and that field's default is the key's default.
_FIELD_DEFAULTS = {
    f"{section}.{f.name}": f.default
    for section, classes in (
        ("synthesis", (SynthesisConfig,)),
        ("extractor", (ExtractorConfig,)),
        ("train", (TrainConfig,)),
        ("transfer", (TransferConfig, TransferNetConfig)),
    )
    for cls in classes
    for f in fields(cls)
}

_FIELD_KEYS = {
    "synthesis.embed_dim": (_int, "texture embedding width"),
    "synthesis.noise_dim": (_int, "noise vector length"),
    "synthesis.base_size": (_int, "spatial size of the seed maps"),
    "synthesis.scales": (_int, "number of 2x upsampling stages"),
    "synthesis.widths": (_ints, "channel widths: seed stage then one per scale"),
    "synthesis.guidance_channels": (_int, "selector guidance channels injected at each scale"),
    "extractor.stage_channels": (_ints, "feature channels per extractor stage"),
    "extractor.convs_per_stage": (_ints, "conv layers in each extractor stage"),
    "extractor.seed": (_int, "seed for the frozen random extractor weights"),
    "extractor.weight_file": (_opt_str, "load extractor weights from this file instead of seeding"),
    "train.K": (_int, "iterations per curriculum phase"),
    "train.iterations": (_opt_int, "total iterations; 'auto' = 3 * textures * K"),
    "train.batch_size": (_int, "samples per iteration (diversity pairs)"),
    "train.lr": (_float, "Adam learning rate"),
    "train.alpha": (_float, "texture-loss coefficient"),
    "train.beta": (_float, "diversity-loss coefficient (negative rewards variety)"),
    "train.texture_taps": (_strs, "taps entering the texture loss"),
    "train.diversity_tap": (_str, "tap entering the diversity loss"),
    "train.mode": (_str, "schedule: 'incremental' or 'random'"),
    "train.use_selector": (_bool, "feed selector guidance maps (false = ablation)"),
    "train.checkpoint_every": (_int, "checkpoint interval; 0 disables"),
    "train.checkpoint_dir": (_opt_str, "directory for checkpoints"),
    "transfer.K": (_int, "iterations per style phase"),
    "transfer.iterations": (_opt_int, "total iterations; 'auto' = 3 * styles * K"),
    "transfer.batch_size": (_int, "stylizations per iteration"),
    "transfer.lr": (_float, "Adam learning rate"),
    "transfer.alpha": (_float, "style-loss coefficient"),
    "transfer.beta": (_float, "diversity-loss coefficient"),
    "transfer.content_weight": (_float, "content-loss coefficient"),
    "transfer.style_taps": (_strs, "taps entering the style loss"),
    "transfer.diversity_tap": (_str, "tap for diversity and content losses"),
    "transfer.mode": (_str, "schedule: 'incremental' or 'random'"),
    "transfer.enc_widths": (_ints, "encoder widths, one per stride-2 stage"),
    "transfer.dec_widths": (_ints, "decoder widths: bottleneck conv then one per upsample"),
    "transfer.noise_channels": (_int, "noise maps injected per style"),
}

REGISTRY: dict = {
    **{key: Setting(parse, _FIELD_DEFAULTS[key], doc) for key, (parse, doc) in _FIELD_KEYS.items()},
    "paths.exemplars": Setting(_strs, (), "texture exemplar PNGs, one per texture id"),
    "paths.contents": Setting(_strs, (), "content PNGs for style transfer"),
    "paths.output_dir": Setting(_str, ".", "directory for generated images"),
    "paths.model": Setting(_str, "synthesis.model", "synthesis model file"),
    "paths.transfer_model": Setting(_str, "transfer.model", "transfer model file"),
    "paths.log": Setting(_str, "loss_log.csv", "loss-log CSV file"),
}


@dataclass
class RunConfig:
    """Fully-resolved settings: every registered key has a typed value."""

    values: dict

    def get(self, key: str):
        if key not in REGISTRY:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def set(self, key: str, text: str) -> None:
        if key not in REGISTRY:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            self.values[key] = REGISTRY[key].parse(text.strip())
        except ConfigError as e:
            raise ConfigError(f"{key}: {e}") from None


def default_config() -> RunConfig:
    return RunConfig(values={key: s.default for key, s in REGISTRY.items()})


def parse_config(text: str, source: str = "config") -> RunConfig:
    config = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source} line {lineno}: expected 'section.key = value', got {raw.strip()!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            config.set(key, value)
        except ConfigError as e:
            raise ConfigError(f"{source} line {lineno}: {e}") from None
    return config


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8: byte {e.start} does not decode") from None
    return parse_config(text, source=path)


def apply_overrides(config: RunConfig, overrides: list) -> None:
    """Apply ``section.key=value`` strings from the command line."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected section.key=value")
        key, value = item.split("=", 1)
        config.set(key.strip(), value)


def document_defaults() -> str:
    """Every key with its default and meaning, as config-file text."""
    lines = []
    section = None
    for key in REGISTRY:
        head = key.split(".", 1)[0]
        if head != section:
            if section is not None:
                lines.append("")
            section = head
        s = REGISTRY[key]
        lines.append(f"{key} = {_fmt_default(s.default)}  # {s.doc}")
    return "\n".join(lines) + "\n"


def _build(cls, config: RunConfig, section: str, **given):
    """An instance of ``cls`` whose other fields come from ``section.<field>`` keys."""
    names = [f.name for f in fields(cls) if f.name not in given]
    return cls(**given, **{name: config.get(f"{section}.{name}") for name in names})


def synthesis_config(config: RunConfig, textures: int) -> SynthesisConfig:
    return _build(SynthesisConfig, config, "synthesis", textures=textures)


def extractor_config(config: RunConfig) -> ExtractorConfig:
    return _build(ExtractorConfig, config, "extractor")


def train_config(config: RunConfig, seed: int) -> TrainConfig:
    return _build(TrainConfig, config, "train", seed=seed)


def transfer_config(config: RunConfig, seed: int) -> TransferConfig:
    return _build(TransferConfig, config, "transfer", seed=seed)


def transfer_net_config(config: RunConfig, styles: int) -> TransferNetConfig:
    return _build(TransferNetConfig, config, "transfer", styles=styles)
