"""Config parsing: typed values, typo safety, override precedence."""

import dataclasses
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texsyn.config import (
    REGISTRY,
    ConfigError,
    RunConfig,
    apply_overrides,
    default_config,
    document_defaults,
    extractor_config,
    load_config,
    parse_config,
    synthesis_config,
    train_config,
    transfer_config,
    transfer_net_config,
)
from texsyn.extractor import ExtractorConfig
from texsyn.generator import SynthesisConfig
from texsyn.trainer import TrainConfig
from texsyn.transfer import TransferConfig, TransferNetConfig


def test_defaults_cover_every_key():
    config = default_config()
    assert set(config.values) == set(REGISTRY)
    assert config.get("train.K") == 100
    assert config.get("synthesis.widths") == (32, 32, 24, 16)
    assert config.get("train.iterations") is None
    assert config.get("paths.exemplars") == ()


def test_parse_basic_assignments():
    config = parse_config(
        """
        # a comment
        train.K = 7
        train.lr = 0.01   # inline comment
        synthesis.widths = 8, 8, 4
        train.use_selector = false
        paths.exemplars = a.png, b.png
        train.iterations = auto
        extractor.weight_file = none
        """
    )
    assert config.get("train.K") == 7
    assert config.get("train.lr") == 0.01
    assert config.get("synthesis.widths") == (8, 8, 4)
    assert config.get("train.use_selector") is False
    assert config.get("paths.exemplars") == ("a.png", "b.png")
    assert config.get("train.iterations") is None
    assert config.get("extractor.weight_file") is None


def test_later_assignment_wins():
    config = parse_config("train.K = 1\ntrain.K = 2\n")
    assert config.get("train.K") == 2


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError, match=r"line 2.*train\.kk"):
        parse_config("train.K = 1\ntrain.kk = 2\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("train.K 1\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match=r"line 1.*train\.K.*integer"):
        parse_config("train.K = soon\n")
    with pytest.raises(ConfigError, match="true/false"):
        parse_config("train.use_selector = maybe\n")
    with pytest.raises(ConfigError, match="number"):
        parse_config("train.lr = fast\n")


def test_overrides_parse_and_reject_unknown():
    config = default_config()
    apply_overrides(config, ["train.K=9", "synthesis.scales = 2"])
    assert config.get("train.K") == 9
    assert config.get("synthesis.scales") == 2
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(config, ["nope.key=1"])
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_overrides(config, ["train.K"])


def test_get_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        default_config().get("train.kk")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/definitely/not/here.cfg")


def test_load_config_non_utf8_names_the_file(tmp_path):
    p = tmp_path / "latin1.cfg"
    p.write_bytes("train.K = 3  # caf\xe9\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=re.escape(str(p)) + ".*UTF-8"):
        load_config(str(p))


# config text: lines that assign arbitrary values to registered keys, mixed
# with arbitrary lines
CONFIG_TEXT = st.lists(
    st.one_of(
        st.text(),
        st.builds("{} = {}".format, st.sampled_from(sorted(REGISTRY)), st.text()),
    )
).map("\n".join)


def parses_or_config_error(read) -> None:
    try:
        assert isinstance(read(), RunConfig)
    except ConfigError:
        pass


@given(CONFIG_TEXT)
@settings(max_examples=300, deadline=None)
def test_parse_config_returns_a_config_or_raises_config_error(text):
    parses_or_config_error(lambda: parse_config(text))


@given(st.one_of(st.binary(), CONFIG_TEXT.map(str.encode)))
@settings(max_examples=300, deadline=None)
def test_load_config_returns_a_config_or_raises_config_error(data):
    with tempfile.TemporaryDirectory() as directory:
        path = f"{directory}/run.cfg"
        with open(path, "wb") as f:
            f.write(data)
        parses_or_config_error(lambda: load_config(path))


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("train.K = 11\npaths.output_dir = out\n")
    config = load_config(str(p))
    assert config.get("train.K") == 11
    assert config.get("paths.output_dir") == "out"


def test_documented_defaults_parse_back():
    text = document_defaults()
    config = parse_config(text)
    assert config.values == default_config().values
    for key in REGISTRY:
        assert key in text


def test_builders_produce_configured_objects():
    config = parse_config(
        """
        synthesis.scales = 2
        synthesis.widths = 12, 12, 8
        synthesis.guidance_channels = 4
        extractor.stage_channels = 4, 8
        extractor.convs_per_stage = 1, 1
        train.K = 5
        train.beta = 0
        train.batch_size = 1
        transfer.enc_widths = 8
        transfer.dec_widths = 8, 8
        transfer.content_weight = 2.5
        """
    )
    synth = synthesis_config(config, textures=2)
    assert synth.textures == 2 and synth.widths == (12, 12, 8)
    ext = extractor_config(config)
    assert ext.stage_channels == (4, 8)
    tc = train_config(config, seed=3)
    assert tc.seed == 3 and tc.K == 5 and tc.beta == 0.0
    xc = transfer_config(config, seed=4)
    assert xc.seed == 4 and xc.content_weight == 2.5
    nc = transfer_net_config(config, styles=2)
    assert nc.styles == 2 and nc.enc_widths == (8,) and nc.dec_widths == (8, 8)


@pytest.mark.parametrize(
    "key",
    [
        "run.seed",
        "synthesis.textures",
        "extractor.taps",
        "train.diversity_normalize",
        "transfer.diversity_normalize",
    ],
)
def test_keys_nothing_reads_are_unknown(key):
    # --seed sets the seed; the texture count comes from the exemplars or
    # the model file; each loss names the taps it extracts; diversity
    # distances are always divided by the tap's spatial size
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(f"{key} = 2\n")


def test_registry_defaults_match_config_dataclasses():
    # every key outside paths.* reads its default from the field of the
    # same name in its section's config class, so a config object built
    # without a run config gets the same values as one built from defaults
    sections = {
        "synthesis": [SynthesisConfig],
        "extractor": [ExtractorConfig],
        "train": [TrainConfig],
        "transfer": [TransferConfig, TransferNetConfig],
    }
    backed = 0
    for section, classes in sections.items():
        for cls in classes:
            for f in dataclasses.fields(cls):
                key = f"{section}.{f.name}"
                if key in REGISTRY:
                    assert f.default is not dataclasses.MISSING, key
                    assert REGISTRY[key].default == f.default, key
                    backed += 1
    keys = [k for k in REGISTRY if not k.startswith("paths.")]
    assert backed == len(keys)
