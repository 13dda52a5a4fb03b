"""Training configuration and its flat ``key = value`` file format.

Every key is a TrainConfig field, in field order (relation sub-fields are
exposed flat, e.g. ``lambda_a`` or ``use_rows``).  Unknown keys and malformed
values are errors that name the offending line.  Budgets accept 0 as
"no budget" (full enumeration).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Tuple

from .models import GeneratorSpec
from .relations import RelationConfig, _derive_seed

DISCRIMINATOR_MODES = (
    "online_updating_freezing",
    "online_always_updating",
    "online_no_discriminator",
    "pretrained_frozen",
    "pretrained_updating",
)
GAN_MODES = ("vanilla", "least_squares")


@dataclass
class TrainConfig:
    epochs: int = 100
    lr0: float = 2e-4
    batch_size: int = 1
    lambda_crd: float = 25.0          # 25 unpaired preset; 2.5 for paired tasks
    lambda_per: float = 1.0
    relation: RelationConfig = field(default_factory=RelationConfig)
    patch: Tuple[int, int] = (8, 8)
    teacher_eval_interval: int = 10
    gan_mode: str = "least_squares"
    seed: int = 0
    discriminator_mode: str = "online_updating_freezing"

    # desk-scale model and data knobs
    image_size: int = 32
    base_width: int = 32
    width_factor: float = 0.25
    num_res_blocks: int = 3
    disc_layers: int = 3
    disc_base_width: int = 32
    train_count: int = 100
    val_count: int = 8
    distill_from_live: bool = False
    extractor_seed: int = 1234
    sample_every: int = 0             # epochs between sample grids; 0 = last only

    def validate(self) -> "TrainConfig":
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.teacher_eval_interval < 1:
            raise ValueError(f"teacher_eval_interval must be >= 1, got {self.teacher_eval_interval}")
        for name in ("lr0", "lambda_crd", "lambda_per"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.gan_mode not in GAN_MODES:
            raise ValueError(f"gan_mode must be one of {GAN_MODES}, got {self.gan_mode!r}")
        if self.discriminator_mode not in DISCRIMINATOR_MODES:
            raise ValueError(
                f"discriminator_mode must be one of {DISCRIMINATOR_MODES}, got {self.discriminator_mode!r}")
        if len(self.patch) != 2 or any(p < 1 for p in self.patch):
            raise ValueError(f"patch must be two positive ints, got {self.patch}")
        for name in ("image_size", "base_width", "num_res_blocks", "disc_layers",
                     "disc_base_width", "train_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.batch_size > self.train_count:
            raise ValueError(f"batch_size {self.batch_size} exceeds train_count "
                             f"{self.train_count}: an epoch would hold no whole batch")
        if self.val_count < 2:
            raise ValueError(f"val_count must be >= 2 (a Frechet distance needs 2 images), "
                             f"got {self.val_count}")
        for name in ("seed", "extractor_seed", "sample_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        GeneratorSpec(self.base_width, self.width_factor, self.num_res_blocks).widths()
        size, (n, m) = self.image_size, self.patch
        if size % 4 != 0:
            raise ValueError(f"image_size must be a multiple of 4 (the generator "
                             f"downsamples twice), got {size}")
        if size % n != 0 or size % m != 0 or (size // n) * (size // m) < 2:
            raise ValueError(f"image_size {size} does not split into >= 2 whole {n}x{m} patches")
        return self


def parse_patch(text: str) -> Tuple[int, int]:
    """Patch dims from "n", "n,m" or "nxm": the ``patch`` key and ``crdgan slice --patch``."""
    parts = text.replace("x", ",").split(",")
    try:
        n, m = (int(parts[0]),) * 2 if len(parts) == 1 else map(int, parts)
    except ValueError:
        raise ValueError(f"bad patch spec {text!r}") from None
    return n, m


def _keys(cls) -> dict:
    """key -> (field name, kind) for each config field of cls, in field order.  A value
    parses by the type of its field's default, except ``patch`` (:func:`parse_patch`)
    and the ``*_budget`` fields (0 is None); RelationConfig's seed is ``relation_seed``."""
    table = {}
    for f in dataclasses.fields(cls):
        if f.name != "relation":
            kind = parse_patch if f.name == "patch" else \
                "budget" if f.name.endswith("_budget") else type(f.default)
            key = "relation_seed" if cls is RelationConfig and f.name == "seed" else f.name
            table[key] = (f.name, kind)
    return table


_CONFIG_KEYS = _keys(TrainConfig)
_RELATION_KEYS = _keys(RelationConfig)


class ConfigError(ValueError):
    pass


def _budget(value: int):
    """A tuple budget as RelationConfig holds it: 0 (no budget) is None, full enumeration."""
    return None if value == 0 else value


def _parse_value(key: str, kind, raw: str, lineno: int):
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "budget":
            return _budget(int(raw))
        return kind(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: bad value {raw!r} for key {key!r}") from None


def parse_config(path) -> TrainConfig:
    """Read a flat config file; missing keys keep their documented defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    relation_values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        raw = raw.split("#", 1)[0].strip()
        table, dest = (_CONFIG_KEYS, values) if key in _CONFIG_KEYS \
            else (_RELATION_KEYS, relation_values)
        if key not in table:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name, kind = table[key]
        dest[name] = _parse_value(key, kind, raw, lineno)
    try:
        relation = RelationConfig(**relation_values)
        cfg = TrainConfig(relation=relation, **values)
        return cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def write_config(cfg: TrainConfig, path) -> None:
    """Round-trippable dump of a TrainConfig in the flat file format."""
    lines = []
    for table, owner in ((_CONFIG_KEYS, cfg), (_RELATION_KEYS, cfg.relation)):
        for key, (name, kind) in table.items():
            v = getattr(owner, name)
            if kind is parse_patch:
                v = f"{v[0]},{v[1]}"
            elif kind == "budget" and v is None:
                v = 0
            lines.append(f"{key} = {v}")
    Path(path).write_text("\n".join(lines) + "\n")


def relation_for_step(cfg: TrainConfig, step: int) -> RelationConfig:
    """Per-step relation config: fresh tuple samples, same everything else."""
    return dataclasses.replace(cfg.relation, seed=_derive_seed(cfg.relation.seed, cfg.seed, step))
