"""Line-oriented key=value run configuration with typed defaults.

Every tunable of the learner, fusion, decoder, training loop and flow
handling lives here under a dotted key; ``seed`` is mandatory and has no
default.  Files may contain blank lines and ``#`` comments; unknown keys are
rejected.  Command-line overrides win over file values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .fusion import MODES


class ConfigError(Exception):
    pass


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# key -> (type converter, default, documentation); None default = required
SCHEMA = {
    "seed": (int, None, "master RNG seed (required)"),
    "fusion.mode": (str, "attention", "none | concat | attention"),
    "flow.prescale": (_bool, False,
                      "apply the cone transform to (u, v, sqrt(2) m) instead of (u, v, m)"),
    "flow.max_displacement": (float, 20.0,
                              "nominal max displacement used to normalize embedded flow"),
    "decoder.l1_source": (str, "flow",
                          "pyramid level-1 passthrough branch: flow | image"),
    "learner.outer_iters_init": (int, 5, "outer iterations on the annotated frame"),
    "learner.outer_iters_update": (int, 2, "outer iterations per online update"),
    "learner.cg_iters": (int, 3,
                         "preconditioned conjugate-gradient iterations per outer step"),
    "learner.damping": (float, 1e-2, "Levenberg damping mu"),
    "learner.reg_lambda": (float, 1e-2, "L2 penalty on the target-model filters"),
    "learner.update_every": (int, 4, "re-optimize every Nth frame"),
    "learner.update_conf": (float, 0.85,
                            "also re-optimize when mean mask confidence exceeds this"),
    "learner.buffer_capacity": (int, 8, "memory buffer capacity"),
    "learner.buffer_decay": (float, 0.9, "per-frame geometric sample-weight decay"),
    "learner.pinned_weight": (float, 2.0, "sample weight of the pinned first frame"),
    "train.epochs": (int, 3, "offline training epochs"),
    "train.lr": (float, 1e-3, "Adam learning rate"),
    "train.crop": (int, 64, "training crop size (multiple of 16)"),
    "train.aug_copies": (int, 2, "augmented copies of the reference frame"),
    "train.samples_per_seq": (int, 1, "training samples drawn per sequence per epoch"),
}


@dataclass
class RunConfig:
    seed: int
    fusion_mode: str = "attention"
    flow_prescale: bool = False
    flow_max_displacement: float = 20.0
    decoder_l1_source: str = "flow"
    learner_outer_iters_init: int = 5
    learner_outer_iters_update: int = 2
    learner_cg_iters: int = 3
    learner_damping: float = 1e-2
    learner_reg_lambda: float = 1e-2
    learner_update_every: int = 4
    learner_update_conf: float = 0.85
    learner_buffer_capacity: int = 8
    learner_buffer_decay: float = 0.9
    learner_pinned_weight: float = 2.0
    train_epochs: int = 3
    train_lr: float = 1e-3
    train_crop: int = 64
    train_aug_copies: int = 2
    train_samples_per_seq: int = 1


def _field_name(key: str) -> str:
    return key.replace(".", "_")


_FIELD_NAMES = {f.name for f in fields(RunConfig)}
assert all(_field_name(k) in _FIELD_NAMES for k in SCHEMA)


def parse_config_file(path) -> dict:
    """Raw key -> string mapping from a config file."""
    out = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in SCHEMA:
                raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
            out[key] = val
    return out


def make_config(values: Optional[dict] = None,
                overrides: Optional[dict] = None) -> RunConfig:
    """Typed config from raw string mappings; ``overrides`` wins."""
    merged = dict(values or {})
    merged.update(overrides or {})
    kwargs = {}
    for key, raw in merged.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        conv = SCHEMA[key][0]
        try:
            kwargs[_field_name(key)] = conv(raw) if isinstance(raw, str) else raw
        except ValueError as e:
            raise ConfigError(f"config key {key}: {e}") from None
    if "seed" not in kwargs:
        raise ConfigError("config requires a seed (key 'seed' or --seed)")
    cfg = RunConfig(**kwargs)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.fusion_mode not in MODES:
        raise ConfigError(f"fusion.mode must be one of {MODES}, got {cfg.fusion_mode!r}")
    if cfg.decoder_l1_source not in ("flow", "image"):
        raise ConfigError(
            f"decoder.l1_source must be flow or image, got {cfg.decoder_l1_source!r}")
    if cfg.train_crop % 16 != 0:
        raise ConfigError(f"train.crop must be a multiple of 16, got {cfg.train_crop}")
    if cfg.flow_max_displacement <= 0:
        raise ConfigError("flow.max_displacement must be positive")
    if not 0.0 < cfg.learner_buffer_decay <= 1.0:
        raise ConfigError("learner.buffer_decay must be in (0, 1]")


def default_config_text() -> str:
    """A documented config file with every key at its default."""
    lines = ["# flowvos run configuration; flags override file values"]
    for key, (_, default, doc) in SCHEMA.items():
        shown = "REQUIRED" if default is None else str(default).lower() \
            if isinstance(default, bool) else str(default)
        lines.append(f"# {doc}")
        lines.append(f"{key} = {shown}")
    return "\n".join(lines) + "\n"
