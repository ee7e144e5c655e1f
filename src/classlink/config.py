"""Run configuration: one YAML document driving every pipeline stage.

A :class:`RunConfig` is the single source of truth for a run.  Each key is
declared once, as a field carrying its default, its coercer and the first
stage whose digest covers it; fields run in pipeline order, and
:data:`STAGE_KEYS` follows that order.  Stages are keyed by digests over
the subset of fields they depend on (cumulative, so a seed change
invalidates everything downstream while an evaluation-only tweak leaves
checkpoints valid).  The output directory is deliberately excluded from
digests — moving artifacts does not make them stale.

This module is a leaf of the package: it imports no pipeline layer, so the
CLI can read and check a config without loading scipy.  It therefore also
holds the small names that validation shares with the layers, which import
them from here: the backbone's :data:`MODES` and :class:`TrainConfig`, the
heuristics' :data:`STRUCTURAL` and :class:`GammaDecayConfig`, and the
evaluation's :func:`parse_metric`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .errors import ConfigurationError
from .rand import is_seed

LABEL_SOURCES = ("true", "kmeans", "louvain", "mono")
MODES = ("ncn", "ncnc", "backbone_only")
STRUCTURAL = ("cn", "aa", "ra", "katz")
"""Structural scorer names, each also a base that ``hc`` can layer on."""
SCORERS = ("model", *STRUCTURAL, "hc")
EVAL_SPLITS = ("test", "valid")


# ---------------------------------------------------------------------------
# Layer settings shared with validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Backbone hyperparameters; ``seed`` drives init and negative sampling."""

    dim: int = 64
    hidden: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    epochs: int = 200
    patience: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1 or self.hidden < 1:
            raise ConfigurationError("dim and hidden must be >= 1")
        if not 0 < self.lr < math.inf:  # NaN fails both comparisons
            raise ConfigurationError(
                f"learning rate must be positive and finite, got {self.lr}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {self.patience}")
        if not is_seed(self.seed):
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )


@dataclass(frozen=True)
class GammaDecayConfig:
    """Truncated-Katz parameters: decay ``gamma``, scale ``eta``, horizon."""

    gamma: float = 0.05
    eta: float = 1.0
    max_length: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.eta < math.inf:  # NaN fails both comparisons
            raise ConfigurationError(f"eta must be positive and finite, got {self.eta}")
        if self.max_length < 1:
            raise ConfigurationError(
                f"max_length must be >= 1, got {self.max_length}"
            )


def parse_metric(spec: str) -> tuple[str, int | None]:
    """Parse a metric spec: ``mrr`` or ``hr@<K>``."""
    spec = spec.strip().lower()
    if spec == "mrr":
        return "mrr", None
    if spec.startswith("hr@"):
        try:
            k = int(spec[3:])
        except ValueError as exc:
            raise ConfigurationError(f"bad metric spec '{spec}'") from exc
        if k < 1:
            raise ConfigurationError(f"K must be >= 1 in '{spec}'")
        return "hr", k
    raise ConfigurationError(f"unknown metric '{spec}' (expected mrr or hr@K)")


# ---------------------------------------------------------------------------
# Coercion (YAML is friendly but loosely typed)
# ---------------------------------------------------------------------------


def _fail(key: str, value, expected: str) -> ConfigurationError:
    return ConfigurationError(f"config key '{key}' expects {expected}, got {value!r}")


def _as_int(key: str, value) -> int:
    if isinstance(value, bool):
        raise _fail(key, value, "an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            as_float = float(value)
        except ValueError as exc:
            raise _fail(key, value, "an integer") from exc
        if as_float.is_integer():
            return int(as_float)
    raise _fail(key, value, "an integer")


def _as_float(key: str, value) -> float:
    if isinstance(value, bool):
        raise _fail(key, value, "a real number")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError as exc:
            raise _fail(key, value, "a real number") from exc
    raise _fail(key, value, "a real number")


def _as_str(key: str, value) -> str:
    if isinstance(value, str):
        return value
    raise _fail(key, value, "a string")


def _as_bool(key: str, value) -> bool:
    if isinstance(value, bool):
        return value
    raise _fail(key, value, "a boolean")


def _as_label_source(key: str, value) -> str:
    # YAML parses a bare `true` as a boolean; that spelling means the
    # ground-truth label source here.
    if value is True:
        return "true"
    if isinstance(value, str):
        return value.lower()
    raise _fail(key, value, f"one of {LABEL_SOURCES}")


def _as_ratios(key: str, value) -> tuple[float, float, float]:
    if isinstance(value, (list, tuple)) and len(value) == 3:
        return tuple(_as_float(key, v) for v in value)  # type: ignore[return-value]
    raise _fail(key, value, "a list of three reals")


def _as_int_tuple(key: str, value) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(_as_int(key, v) for v in value)
    raise _fail(key, value, "a list of integers")


def _as_lower(key: str, value) -> str:
    return _as_str(key, value).lower()


def _optional(coerce):
    """``coerce`` that also lets ``None`` (an unset optional key) through."""
    return lambda key, value: None if value is None else coerce(key, value)


def _key(default, coerce, stage: str | None):
    """A config key: its default, its coercer, and the first pipeline stage
    whose digest covers it (``None``: no digest does)."""
    return field(default=default, metadata={"coerce": coerce, "stage": stage})


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for the whole pipeline (flat key/value document)."""

    # input/output paths
    edges: str = _key("", _as_str, "ingest")
    features: str | None = _key(None, _optional(_as_str), "ingest")
    labels: str | None = _key(None, _optional(_as_str), "ingest")
    out: str = _key("artifacts", _as_str, None)
    # split
    seed: int = _key(0, _as_int, "split")
    ratios: tuple[float, float, float] = _key((0.85, 0.05, 0.10), _as_ratios, "split")
    negatives: int = _key(500, _as_int, "split")
    # label source (exactly one; k/k_grid only meaningful for kmeans)
    label_source: str = _key("true", _as_label_source, "cluster")
    k: int | None = _key(None, _optional(_as_int), "cluster")
    k_grid: tuple[int, ...] | None = _key(None, _optional(_as_int_tuple), "cluster")
    normalize_rows: bool = _key(False, _as_bool, "cluster")
    max_iters: int = _key(100, _as_int, "cluster")
    # backbone training
    mode: str = _key("ncn", _as_lower, "train")
    dim: int = _key(TrainConfig.dim, _as_int, "train")
    hidden: int = _key(TrainConfig.hidden, _as_int, "train")
    lr: float = _key(TrainConfig.lr, _as_float, "train")
    momentum: float = _key(TrainConfig.momentum, _as_float, "train")
    epochs: int = _key(TrainConfig.epochs, _as_int, "train")
    patience: int = _key(TrainConfig.patience, _as_int, "train")
    # evaluation
    metric: str = _key("mrr", _as_lower, "evaluate")
    scorer: str = _key("model", _as_lower, "evaluate")
    hc_base: str = _key("cn", _as_lower, "evaluate")
    gamma: float = _key(GammaDecayConfig.gamma, _as_float, "evaluate")
    katz_length: int = _key(GammaDecayConfig.max_length, _as_int, "evaluate")
    eval_split: str = _key("test", _as_lower, "evaluate")
    per_edge_negatives: int | None = _key(None, _optional(_as_int), "evaluate")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_mapping(
        cls, mapping: dict | None, overrides: dict | None = None
    ) -> "RunConfig":
        """Build from a parsed config document plus CLI-flag overrides.

        Keys may use ``-`` or ``_`` interchangeably; unknown keys are
        rejected so typos never silently fall back to defaults.
        """
        merged: dict = {}
        for source in (mapping or {}), (overrides or {}):
            for key, value in source.items():
                merged[str(key).replace("-", "_")] = value
        coercers = {f.name: f.metadata["coerce"] for f in fields(cls)}
        unknown = sorted(set(merged) - set(coercers))
        if unknown:
            raise ConfigurationError(
                f"unknown config key(s): {', '.join(unknown)}"
            )
        return cls(**{key: coercers[key](key, value) for key, value in merged.items()})

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def to_mapping(self) -> dict:
        """Canonical JSON-ready mapping (tuples become lists)."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def katz_config(self) -> GammaDecayConfig:
        return GammaDecayConfig(gamma=self.gamma, max_length=self.katz_length)

    @property
    def reads_prior(self) -> bool:
        """Whether the scorer looks up the class prior, and so needs labels:
        ``hc`` does, and so does a model outside ``backbone_only``."""
        return self.scorer == "hc" or (
            self.scorer == "model" and self.mode != "backbone_only"
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self, *, check_paths: bool = False) -> None:
        """Check invariants; raises :class:`ConfigurationError` on the first
        violation.  ``check_paths`` additionally requires the referenced input
        files to exist (used by commands that read them).
        """
        if not self.edges:
            raise ConfigurationError("config needs an 'edges' path")
        if check_paths:
            for name in ("edges", "features", "labels"):
                value = getattr(self, name)
                if value is not None and value != "" and not Path(value).exists():
                    raise ConfigurationError(f"{name} file not found: {value}")

        if type(self.seed) is not int or self.seed < 0:  # bool is not a seed
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")
        # written so that a NaN ratio fails both checks
        if len(self.ratios) != 3 or any(not r > 0 for r in self.ratios):
            raise ConfigurationError(
                f"ratios must be three positive reals, got {self.ratios}"
            )
        if not abs(sum(self.ratios) - 1.0) <= 1e-9:
            raise ConfigurationError(f"ratios must sum to 1, got {sum(self.ratios)!r}")
        if self.negatives < 1:
            raise ConfigurationError("negatives must be >= 1")

        if self.label_source not in LABEL_SOURCES:
            raise ConfigurationError(
                f"label source must be one of {LABEL_SOURCES}, got "
                f"{self.label_source!r}"
            )
        if self.label_source == "kmeans":
            if (self.k is None) == (self.k_grid is None):
                raise ConfigurationError(
                    "kmeans labels need exactly one of 'k' or 'k_grid'"
                )
            if self.k is not None and self.k < 1:
                raise ConfigurationError(f"k must be >= 1, got {self.k}")
            if self.k_grid is not None:
                if len(self.k_grid) < 3:
                    raise ConfigurationError(
                        "k_grid needs at least 3 candidates for the elbow rule"
                    )
                if any(k < 1 for k in self.k_grid):
                    raise ConfigurationError(f"k_grid values must be >= 1: {self.k_grid}")
        elif self.k is not None or self.k_grid is not None:
            raise ConfigurationError(
                "'k'/'k_grid' only apply when label_source is 'kmeans'"
            )
        if self.label_source == "true" and self.labels is None and self.reads_prior:
            raise ConfigurationError(
                "label source 'true' needs a labels file (or use a pseudo-label source)"
            )
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")

        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode '{self.mode}' (expected {MODES})")
        self.train_config()  # reuses the training-hyperparameter checks

        parse_metric(self.metric)
        if self.scorer not in SCORERS:
            raise ConfigurationError(
                f"scorer must be one of {SCORERS}, got {self.scorer!r}"
            )
        if self.hc_base not in STRUCTURAL:
            raise ConfigurationError(
                f"hc_base must be one of {STRUCTURAL}, got {self.hc_base!r}"
            )
        self.katz_config()  # reuses the decay checks
        if self.eval_split not in EVAL_SPLITS:
            raise ConfigurationError(
                f"eval_split must be one of {EVAL_SPLITS}, got {self.eval_split!r}"
            )
        if self.per_edge_negatives is not None and self.per_edge_negatives < 1:
            raise ConfigurationError("per_edge_negatives must be >= 1")


def load_config_file(path: str | Path) -> dict:
    """Parse a YAML config document into a plain mapping."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: invalid YAML ({exc})") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: config must be a key/value mapping")
    return data


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def _stage_keys() -> dict[str, tuple[str, ...]]:
    keys: tuple[str, ...] = ()
    out: dict[str, tuple[str, ...]] = {}
    for stage in ("ingest", "split", "cluster", "train", "evaluate"):
        keys += tuple(f.name for f in fields(RunConfig) if f.metadata["stage"] == stage)
        out[stage] = keys
        if stage == "cluster":  # the prior and its heatmap count the labels
            out["prior"] = out["heatmap"] = keys
    return out


STAGE_KEYS: dict[str, tuple[str, ...]] = _stage_keys()


def _digest_of(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_digest(cfg: RunConfig) -> str:
    """Digest of the full configuration (output dir excluded)."""
    mapping = cfg.to_mapping()
    mapping.pop("out")
    return _digest_of(mapping)


def stage_digest(cfg: RunConfig, stage: str) -> str:
    """Digest over the config keys a pipeline stage depends on.

    Key sets are cumulative along the pipeline, so changing an upstream
    value (e.g. the seed) changes every downstream stage digest, while an
    evaluation-only change leaves train artifacts valid.
    """
    if stage not in STAGE_KEYS:
        raise ConfigurationError(f"unknown pipeline stage '{stage}'")
    mapping = cfg.to_mapping()
    return _digest_of({key: mapping[key] for key in STAGE_KEYS[stage]})
