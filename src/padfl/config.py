"""Run configuration: flat key=value files plus CLI overrides.

`_assign` is the one `key = value` rule, for config lines and `--set`
items alike. `validate` is the home of every config bound; `runner.run`
and `report.account` call it first, through `RunConfig.finalize`, so a
bad config fails before any file is written or any training starts.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from .errors import ConfigurationError

METHODS = ("Pa3dFL", "FedAvgMinWidth", "PWidthNested", "LocalOnly", "Pa3dFL_NoHNAgg")

# Thread-pool sizes BLAS/OpenMP read once, when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_workers() -> int:
    """One worker process per usable CPU when the environment pins BLAS to
    one thread, else 1: unpinned BLAS threads in several processes
    oversubscribe the CPUs."""
    if any(os.environ.get(v) != "1" for v in BLAS_THREAD_VARS):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class RunConfig:
    method: str = "Pa3dFL"
    seed: int = 0
    out_dir: str = "run"

    # data
    dataset: str = "synth"            # synth | idx
    synth_classes: int = 4
    synth_per_class: int = 500
    synth_shape: tuple = (1, 28, 28)
    synth_separation: float = 2.5
    idx_images: str = ""
    idx_labels: str = ""
    partition: str = "dirichlet"      # dirichlet | k_of_K
    dirichlet_alpha: float = 1.0
    classes_per_client: int = 2

    # protocol
    clients: int = 20
    per_round: int = 10
    rounds: int = 200
    batch: int = 50
    epochs: int = 5
    lr: float = 0.05
    lr_decay: float = 0.998
    hn_lr: float = -1.0               # -1 means "use lr"
    min_width: Fraction = Fraction(1, 16)
    capacity: str = "hetero"          # hetero | ideal
    patience_frac: float = 0.2
    alpha_grid: int = 11
    workers: int = field(default_factory=default_workers)

    # model
    conv_channels: tuple = (16, 16)
    conv_kernel: int = 3
    fc_dims: tuple = ()

    # hyper-network
    hn_embed: int = 64
    hn_hidden: int = 64
    hn_depth: int = 3

    def finalize(self):
        """This config validated, with `hn_lr = -1` resolved to `lr` in a
        copy; a finalized config finalizes to itself."""
        return validate(replace(self, hn_lr=self.lr) if self.hn_lr == -1 else self)


def parse_value(text, default):
    """`text` as the type of the key's default; a tuple holds ints."""
    if isinstance(default, tuple):
        return tuple(int(part) for part in text.split(",")) if text else ()
    if isinstance(default, (Fraction, int, float)):
        return type(default)(text)
    return text


def _assign(cfg, item, where):
    """Set one `key = value` item on `cfg`; errors are prefixed with `where`."""
    if "=" not in item:
        raise ConfigurationError(f"{where}{item!r} is not key=value")
    key, text = (part.strip() for part in item.split("=", 1))
    if key not in {f.name for f in fields(RunConfig)}:
        raise ConfigurationError(f"{where}unknown key {key!r}")
    try:
        setattr(cfg, key, parse_value(text, getattr(RunConfig(), key)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"{where}bad value for {key}: {exc}") from exc


def parse_config(text) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            _assign(cfg, line, f"line {lineno}: ")
    return cfg


def load_config(path, overrides=()) -> RunConfig:
    """The config file, as UTF-8, then `--set` overrides, taken verbatim
    (no comments). Parses only: `runner.run` and `report.account` validate."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: byte {exc.start}: not UTF-8") from None
    for item in overrides:
        _assign(cfg, item, f"override {item!r}: ")
    return cfg


def validate(cfg: RunConfig):
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value}")
    if cfg.method not in METHODS:
        raise ConfigurationError(f"method must be one of {METHODS}, got {cfg.method!r}")
    if cfg.dataset not in ("synth", "idx"):
        raise ConfigurationError(f"dataset must be synth or idx, got {cfg.dataset!r}")
    if cfg.dataset == "idx" and not (cfg.idx_images and cfg.idx_labels):
        raise ConfigurationError("idx dataset needs idx_images and idx_labels paths")
    if cfg.partition not in ("dirichlet", "k_of_K"):
        raise ConfigurationError(f"partition must be dirichlet or k_of_K, got {cfg.partition!r}")
    if cfg.capacity not in ("hetero", "ideal"):
        raise ConfigurationError(f"capacity must be hetero or ideal, got {cfg.capacity!r}")
    if cfg.seed < 0:
        raise ConfigurationError("seed must be >= 0")
    if cfg.clients < 1:
        raise ConfigurationError("clients must be >= 1")
    if not 1 <= cfg.per_round <= cfg.clients:
        raise ConfigurationError(f"per_round must be in [1, {cfg.clients}]")
    if cfg.rounds < 0:
        raise ConfigurationError("rounds must be >= 0")
    if cfg.batch < 1 or cfg.epochs < 1:
        raise ConfigurationError("batch and epochs must be >= 1")
    if not 0 < cfg.lr or not 0 < cfg.lr_decay <= 1:
        raise ConfigurationError("lr must be > 0 and lr_decay in (0, 1]")
    if cfg.hn_lr <= 0:
        raise ConfigurationError(f"hn_lr must be > 0, or -1 to use lr; got {cfg.hn_lr}")
    if Fraction(cfg.min_width).numerator != 1:
        raise ConfigurationError(f"min_width must be 1/n for an integer n, got {cfg.min_width}")
    if cfg.patience_frac < 0:
        raise ConfigurationError("patience_frac must be >= 0")
    if cfg.alpha_grid < 2:
        raise ConfigurationError("alpha_grid must be >= 2")
    if cfg.workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if cfg.dirichlet_alpha <= 0:
        raise ConfigurationError("dirichlet_alpha must be > 0")
    if cfg.synth_classes < 2 or cfg.synth_per_class < 1:
        raise ConfigurationError("synth dataset needs >= 2 classes and >= 1 per class")
    if len(cfg.synth_shape) != 3 or any(d < 1 for d in cfg.synth_shape):
        raise ConfigurationError("synth_shape must be C,H,W of positive ints")
    if cfg.dataset == "synth" and cfg.synth_classes > (dim := math.prod(cfg.synth_shape)):
        raise ConfigurationError(f"synth_classes must be <= {dim}, the C*H*W of synth_shape")
    if not cfg.conv_channels and not cfg.fc_dims:
        raise ConfigurationError("model needs at least one conv or fc layer")
    n = Fraction(cfg.min_width).denominator  # every width m/n keeps whole channels
    for key in ("conv_channels", "fc_dims"):
        if any(d < 1 for d in getattr(cfg, key)):
            raise ConfigurationError(f"{key} must hold ints >= 1, got {getattr(cfg, key)}")
        if any(d % n for d in getattr(cfg, key)):
            raise ConfigurationError(f"{key} must hold multiples of {n} at min_width 1/{n}, "
                                     f"got {getattr(cfg, key)}")
    if cfg.conv_kernel < 1 or cfg.conv_kernel % 2 == 0:
        raise ConfigurationError("conv_kernel must be odd and >= 1")
    if cfg.hn_embed < 1 or cfg.hn_hidden < 1 or cfg.hn_depth < 0:
        raise ConfigurationError("hyper-network dims must be positive, depth >= 0")
    return cfg

