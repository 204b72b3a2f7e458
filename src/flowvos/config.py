"""Line-oriented key=value run configuration with typed defaults.

``RunConfig`` declares every setting of the learner, training loop and flow
handling once: each field carries its default, a one-line doc and its valid
interval, such as ``[1, inf)``.  The fusion mode is not a setting: it
belongs to the model, set by ``train --mode`` and carried by its checkpoint.
The dotted key replaces the first ``_`` of the field name with ``.``
(``learner.cg_iters`` is ``learner_cg_iters``), and the field's type parses
the key's string value.  ``seed`` is mandatory and has no default.

Constructing a ``RunConfig`` in any way, ``make_config``, a direct call or
``dataclasses.replace``, checks every value and raises ``ConfigError``
naming the key of the first one out of range; an interval rejects nan and
an open ``inf`` end rejects inf.  Files may contain blank lines and ``#``
comments; unknown keys are rejected.  Command-line overrides win over file
values.
"""

from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from .data_io import key_value_lines


class ConfigError(Exception):
    pass


def _setting(doc: str, valid, default=MISSING):
    return field(default=default, metadata={"doc": doc, "valid": valid})


def _key(f) -> str:
    return f.name.replace("_", ".", 1)


def _within(value, interval: str) -> bool:
    """Whether value lies in an interval written like "[0, 1]" or "(0, inf)"."""
    lo, hi = (float(s) for s in interval[1:-1].split(","))
    above = value > lo if interval[0] == "(" else value >= lo
    below = value < hi if interval[-1] == ")" else value <= hi
    return above and below


@dataclass
class RunConfig:
    seed: int = _setting("master RNG seed (required)", "[0, inf)")
    flow_max_displacement: float = _setting(
        "nominal max displacement used to normalize embedded flow", "(0, inf)", 20.0)
    learner_outer_iters_init: int = _setting(
        "outer iterations on the annotated frame", "[1, inf)", 5)
    learner_outer_iters_update: int = _setting(
        "outer iterations per online update", "[1, inf)", 2)
    learner_cg_iters: int = _setting(
        "preconditioned conjugate-gradient iterations per outer step", "[1, inf)", 3)
    learner_damping: float = _setting("Levenberg damping mu", "[0, inf)", 1e-2)
    learner_reg_lambda: float = _setting(
        "L2 penalty on the target-model filters", "[0, inf)", 1e-2)
    learner_update_every: int = _setting("re-optimize every Nth frame", "[1, inf)", 4)
    learner_update_conf: float = _setting(
        "also re-optimize when mean mask confidence exceeds this", "[0, 1]", 0.85)
    learner_buffer_capacity: int = _setting(
        "memory buffer capacity", "[2, inf)", 8)   # the pinned frame and one more
    learner_buffer_decay: float = _setting(
        "per-frame geometric sample-weight decay", "(0, 1]", 0.9)
    learner_pinned_weight: float = _setting(
        "sample weight of the pinned first frame", "(0, inf)", 2.0)
    train_epochs: int = _setting("offline training epochs", "[1, inf)", 3)
    train_lr: float = _setting("Adam learning rate", "(0, inf)", 1e-3)
    train_crop: int = _setting("training crop size (multiple of 16)", "[16, inf)", 64)
    train_aug_copies: int = _setting(
        "augmented copies of the reference frame", "[0, inf)", 2)
    train_samples_per_seq: int = _setting(
        "training samples drawn per sequence per epoch", "[1, inf)", 1)

    def __post_init__(self):
        for f in fields(self):
            value, valid = getattr(self, f.name), f.metadata["valid"]
            if not _within(value, valid):
                raise ConfigError(f"{_key(f)} must be in {valid}, got {value}")
        if self.train_crop % 16 != 0:
            raise ConfigError(
                f"train.crop must be a multiple of 16, got {self.train_crop}")


_FIELDS = {_key(f): f for f in fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Raw key -> string mapping from a config file."""
    out = {}
    for ln, key, val in key_value_lines(path, ConfigError):
        if key not in _FIELDS:
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
        f = _FIELDS.get(key)
        if f is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[f.name] = f.type(raw) if isinstance(raw, str) else raw
        except ValueError as e:
            raise ConfigError(f"config key {key}: {e}") from None
    if "seed" not in kwargs:
        raise ConfigError("config requires a seed (key 'seed' or --seed)")
    return RunConfig(**kwargs)


def default_config_text() -> str:
    """A documented config file with every key at its default."""
    lines = ["# flowvos run configuration; flags override file values"]
    for key, f in _FIELDS.items():
        lines.append(f"# {f.metadata['doc']}")
        lines.append(f"{key} = {'REQUIRED' if f.default is MISSING else f.default}")
    return "\n".join(lines) + "\n"
