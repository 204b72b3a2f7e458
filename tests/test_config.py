import dataclasses

import pytest

from flowvos.config import (ConfigError, RunConfig, default_config_text,
                            make_config, parse_config_file)


class TestParsing:
    def test_file_with_comments_and_blanks(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# a comment\n\nseed = 5\n"
                     "learner.damping = 1e-3\ntrain.crop = 32\n")
        cfg = make_config(parse_config_file(p))
        assert cfg.seed == 5
        assert cfg.learner_damping == 1e-3
        assert cfg.train_crop == 32

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
        assert cfg.learner_cg_iters == 3
        assert cfg.learner_damping == 1e-2
        assert cfg.learner_update_every == 4
        assert cfg.flow_max_displacement == 20.0

    def test_default_text_covers_schema(self):
        text = default_config_text()
        for key in ("learner.cg_iters", "train.lr",
                    "learner.buffer_capacity", "flow.max_displacement"):
            assert f"\n{key} = " in text


class TestValidation:
    def test_seed_required(self):
        with pytest.raises(ConfigError, match="requires a seed"):
            make_config({})

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="learner.cg_iters"):
            make_config({"seed": "1", "learner.cg_iters": "three"})

    def test_crop_multiple_of_16(self):
        with pytest.raises(ConfigError, match="multiple of 16"):
            make_config({"seed": "1", "train.crop": "50"})

    def test_buffer_decay_range(self):
        with pytest.raises(ConfigError, match="buffer_decay"):
            make_config({"seed": "1", "learner.buffer_decay": "0"})

    def test_max_displacement_positive(self):
        with pytest.raises(ConfigError, match="max_displacement"):
            make_config({"seed": "1", "flow.max_displacement": "-2"})

    def test_replace_is_checked(self):
        cfg = RunConfig(seed=1)
        with pytest.raises(ConfigError, match="learner.update_every"):
            dataclasses.replace(cfg, learner_update_every=0)

    @pytest.mark.parametrize("key, value", [
        ("learner.damping", "inf"), ("train.lr", "-inf"), ("flow.max_displacement", "inf")])
    def test_infinite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            make_config({"seed": "1", key: value})

    def test_interval_ends(self):
        assert make_config({"seed": "0", "learner.update_conf": "1.0",
                            "learner.buffer_decay": "1", "learner.damping": "0",
                            "learner.buffer_capacity": "2",
                            "train.aug_copies": "0"}).learner_update_conf == 1.0
        with pytest.raises(ConfigError, match="learner.buffer_decay"):
            make_config({"seed": "0", "learner.buffer_decay": "1.5"})
