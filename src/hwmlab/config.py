"""Flat key=value experiment configs with typed validation.

The format is one ``key = value`` pair per line, ``#`` comments, no nesting.
Each key's type is its field's annotation in :class:`ExperimentConfig`; a
``tuple[item, ...]`` key reads a comma list.  Unknown keys are rejected so
that typos fail loudly.  Every derived artifact embeds the config hash for
provenance.
"""

from __future__ import annotations

import cmath
import hashlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "config_hash", "DEFAULT_TEXT"]

EXPERIMENTS = ("evolve", "spectrum", "stability", "zdbo", "validate", "bench")
DATA = ("blaschke", "constant", "random_rational", "file")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "validate"
    d: int = 2
    k: int = 1
    N: int = 64
    N_out: int = 4096
    datum: str = "blaschke"
    blaschke_degree: int = 1
    blaschke_zeros: tuple[complex, ...] = ()  # explicit zeros override the seeded draw
    blaschke_phase: float = 0.0
    velocity: float = 0.0
    conjugate_random: bool = False   # conjugate by a seeded random unitary
    constant_axis: tuple[float, ...] = (0.0, 0.0, 1.0)
    twists: int = 1
    file: str = ""
    t0: float = 0.0
    t1: float = 10.0
    samples: int = 50
    rank_tol: float = 1e-8
    tail_tol: float = 1e-12
    stability_times: tuple[float, ...] = (0.5, 1.0, 2.0)
    stability_n_max: int = 1024
    stability_tol: float = 1e-6
    zdbo_times: tuple[float, ...] = (0.30, 0.40, 0.45, 0.50, 0.525, 0.55, 0.60)
    zdbo_cutoffs: tuple[int, ...] = (256, 512, 1024)
    zdbo_checkpoint: int = 1024
    bench_degrees: tuple[int, ...] = (1, 2, 4)
    dt: float = 1e-3
    seed: int = 42
    out: str = "out"

    def validate(self) -> "ExperimentConfig":
        # NaN passes every bound check below, since it compares false
        for f in fields(self):
            value = getattr(self, f.name)
            numbers = value if isinstance(value, tuple) else (value,)
            if not all(cmath.isfinite(x) for x in numbers if isinstance(x, (float, complex))):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.datum not in DATA:
            raise ConfigError(f"datum must be one of {DATA}, got {self.datum!r}")
        if not 1 <= self.k <= self.d - 1:
            raise ConfigError(f"need 1 <= k <= d-1, got (d, k) = ({self.d}, {self.k})")
        if self.N < 1 or self.N_out < 1:
            raise ConfigError("N and N_out must be positive")
        if not 0.0 < self.rank_tol < 1.0:
            raise ConfigError(f"rank_tol must be in (0, 1), got {self.rank_tol}")
        for key in ("tail_tol", "stability_tol"):
            if getattr(self, key) <= 0.0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        if not any(self.constant_axis):
            raise ConfigError(f"constant_axis must be a nonzero vector, got {self.constant_axis}")
        if abs(self.velocity) >= 1.0:
            raise ConfigError(f"|velocity| must be < 1, got {self.velocity}")
        if self.datum == "file" and not self.file:
            raise ConfigError("datum = file requires a file path")
        if self.samples < 1:
            raise ConfigError("samples must be positive")
        if self.dt <= 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.stability_n_max < 1 or self.zdbo_checkpoint < 1:
            raise ConfigError("stability_n_max and zdbo_checkpoint must be positive")
        for key in ("stability_times", "zdbo_times", "zdbo_cutoffs", "bench_degrees"):
            if not getattr(self, key):
                raise ConfigError(f"{key} must list at least one value")
        for key, low in (("twists", 0), ("blaschke_degree", 0), ("bench_degrees", 0), ("zdbo_cutoffs", 1)):
            value = getattr(self, key)
            if min(value if isinstance(value, tuple) else (value,)) < low:
                raise ConfigError(f"{key} must be at least {low}, got {value}")
        for zero in self.blaschke_zeros:
            if abs(zero) >= 1.0:
                raise ConfigError(f"Blaschke zero {zero} is not inside the unit disk")
        return self


_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


def _parse_bool(s: str) -> bool:
    if s.lower() not in _BOOLS:
        raise ValueError(f"expected one of {'/'.join(_BOOLS)} in any case, got {s!r}")
    return _BOOLS[s.lower()]


def _parser(annotation):
    """Parser of one stripped value: a scalar type, or a comma list of one for tuple[item, ...]."""
    if annotation is bool:
        return _parse_bool
    if get_origin(annotation) is tuple:
        item = get_args(annotation)[0]
        return lambda s: tuple(item(x.strip()) for x in s.split(",") if x.strip())
    return annotation


_PARSERS = {key: _parser(annotation) for key, annotation in get_type_hints(ExperimentConfig).items()}


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse flat key=value text; unknown keys and bad values raise ConfigError."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](rhs.strip())
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in _PARSERS:
                raise ConfigError(f"unknown override {key!r}")
            values[key] = val
    return ExperimentConfig(**values).validate()


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    return parse_config(Path(path).read_text(), overrides=overrides)


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable short hash of the experiment parameters (output paths excluded)."""
    canonical = ";".join(
        f"{f.name}={getattr(cfg, f.name)!r}"
        for f in sorted(fields(cfg), key=lambda f: f.name)
        if f.name != "out"
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# every key at its default, a tuple as a comma list
DEFAULT_TEXT = "# hwmlab experiment configuration (flat key = value)\n" + "".join(
    f"{f.name} = {', '.join(map(str, f.default)) if isinstance(f.default, tuple) else f.default}\n"
    for f in fields(ExperimentConfig)
)
