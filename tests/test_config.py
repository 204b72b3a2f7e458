import pytest

from flowvos.config import (ConfigError, RunConfig, default_config_text,
                            make_config, parse_config_file)


class TestParsing:
    def test_file_with_comments_and_blanks(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# a comment\n\nseed = 5\nfusion.mode = concat\n"
                     "learner.damping = 1e-3\nflow.prescale = true\n")
        cfg = make_config(parse_config_file(p))
        assert cfg.seed == 5
        assert cfg.fusion_mode == "concat"
        assert cfg.learner_damping == 1e-3
        assert cfg.flow_prescale is True

    def test_unknown_key_in_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\nlerner.mode = gauss_newton\n")
        with pytest.raises(ConfigError, match="unknown config key 'lerner.mode'"):
            parse_config_file(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed 1\n")
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_config_file(p)

    def test_overrides_win(self, tmp_path):
        cfg = make_config({"seed": "1", "train.epochs": "3"},
                          {"train.epochs": "9"})
        assert cfg.train_epochs == 9

    def test_defaults(self):
        cfg = make_config({"seed": "0"})
        assert cfg.fusion_mode == "attention"
        assert cfg.learner_cg_iters == 3
        assert cfg.learner_damping == 1e-2
        assert cfg.learner_update_every == 4
        assert cfg.flow_max_displacement == 20.0
        assert cfg.decoder_l1_source == "flow"

    def test_default_text_covers_schema(self):
        text = default_config_text()
        for key in ("fusion.mode", "learner.cg_iters", "train.lr",
                    "decoder.l1_source", "flow.prescale"):
            assert f"\n{key} = " in text


class TestValidation:
    def test_seed_required(self):
        with pytest.raises(ConfigError, match="requires a seed"):
            make_config({})

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="flow.prescale"):
            make_config({"seed": "1", "flow.prescale": "maybe"})

    def test_bad_fusion_mode(self):
        with pytest.raises(ConfigError, match="fusion.mode"):
            make_config({"seed": "1", "fusion.mode": "blend"})

    def test_bad_l1_source(self):
        with pytest.raises(ConfigError, match="l1_source"):
            make_config({"seed": "1", "decoder.l1_source": "both"})

    def test_crop_multiple_of_16(self):
        with pytest.raises(ConfigError, match="multiple of 16"):
            make_config({"seed": "1", "train.crop": "50"})

    def test_buffer_decay_range(self):
        with pytest.raises(ConfigError, match="buffer_decay"):
            make_config({"seed": "1", "learner.buffer_decay": "0"})

    def test_max_displacement_positive(self):
        with pytest.raises(ConfigError, match="max_displacement"):
            make_config({"seed": "1", "flow.max_displacement": "-2"})
