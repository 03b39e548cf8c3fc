"""Experiment configuration: flat dotted key/value files plus CLI overrides.

File format, one assignment per line::

    # full-line comments and blank lines are ignored
    mode = simulate
    cost.kind = quartic
    dither.amplitudes = 0.02
    init.xi = 0, y0, 2*y0

Keys are dotted section paths; values are scalars, comma-separated lists, or
bare words. ``--set key=value`` overrides replace file values. Initial
washout entries accept the token ``y0`` (the measured cost at t = 0) with an
optional numeric factor, because a sensible washout seed depends on the
unknown cost.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .cost import CostFunction, parse_cost, quadratic_cost, quartic_cost, shifted_quartic_cost
from .dynamics import EscParams
from .signals import DitherConfig, new_dither

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config_text",
    "load_config",
    "apply_overrides",
    "bundled_config_path",
    "bundled_config_names",
]

MODES = ("simulate", "average", "compare", "quadratic", "converge", "lyapunov", "plot")

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")


class ConfigError(ValueError):
    """Configuration problem; carries the offending field or file position."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat key/value format; raises ConfigError with line/column."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno, 1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            col = raw.index(key[0]) + 1 if key else 1
            raise ConfigError(f"malformed key {key!r}", lineno, col)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno, raw.index("=") + 2)
        values[key] = value
    return values


def bundled_config_names() -> list[str]:
    root = resources.files("esc_lab").joinpath("configs")
    return sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))


def bundled_config_path(name: str) -> Path:
    path = resources.files("esc_lab").joinpath("configs", f"{name}.cfg")
    if not path.is_file():
        raise FileNotFoundError(f"no bundled config named {name!r}")
    with resources.as_file(path) as concrete:
        return Path(concrete)


def load_config(path_or_name: str) -> dict[str, str]:
    """Read a config file; bare names fall back to the bundled catalog."""
    p = Path(path_or_name)
    if not p.exists():
        name = path_or_name.removesuffix(".cfg")
        if _KEY_RE.match(name) and "." not in name:
            try:
                p = bundled_config_path(name)
            except FileNotFoundError:
                raise ConfigError(
                    f"config {path_or_name!r} not found (no such file, and no bundled "
                    f"config named {name!r}; bundled: {', '.join(bundled_config_names())})"
                ) from None
        else:
            raise ConfigError(f"config file {path_or_name!r} not found")
    return parse_config_text(p.read_text())


def apply_overrides(values: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply ``key=value`` strings on top of file values (command line wins)."""
    out = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"malformed override key {key!r}")
        if not value:
            raise ConfigError(f"empty value in override for {key!r}")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# Typed access
# ---------------------------------------------------------------------------

def _split_list(value: str) -> list[str]:
    return [piece.strip() for piece in value.split(",") if piece.strip()]


@dataclass
class ExperimentConfig:
    """Typed view over a raw key/value mapping; accessors name the field on error."""

    values: dict[str, str]

    def has(self, key: str) -> bool:
        return key in self.values

    def raw(self, key: str, default: Optional[str] = None) -> str:
        if key in self.values:
            return self.values[key]
        if default is None:
            raise ConfigError(f"missing required field {key!r}")
        return default

    def string(self, key: str, default: Optional[str] = None, choices=None) -> str:
        value = self.raw(key, default)
        if choices is not None and value not in choices:
            raise ConfigError(f"field {key!r} must be one of {sorted(choices)}, got {value!r}")
        return value

    def number(self, key: str, default: Optional[float] = None) -> float:
        raw = self.raw(key, None if default is None else repr(default))
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"field {key!r} must be a number, got {raw!r}") from None

    def integer(self, key: str, default: Optional[int] = None) -> int:
        raw = self.raw(key, None if default is None else repr(default))
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"field {key!r} must be an integer, got {raw!r}") from None

    def number_list(self, key: str, default: Optional[str] = None) -> np.ndarray:
        raw = self.raw(key, default)
        try:
            values = np.array([float(x) for x in _split_list(raw)])
        except ValueError:
            raise ConfigError(f"field {key!r} must be a comma-separated list of numbers") from None
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"field {key!r} entries must be finite, got {raw!r}")
        return values

    def string_list(self, key: str, default: Optional[str] = None) -> list[str]:
        return _split_list(self.raw(key, default))

    # -- domain builders ----------------------------------------------------

    def mode(self, override: Optional[str] = None) -> str:
        if override is not None:
            return override
        return self.string("mode", choices=MODES)

    def cost(self) -> CostFunction:
        kind = self.string("cost.kind", choices=("quadratic", "quartic", "shifted_quartic", "expr"))
        try:
            if kind == "quadratic":
                h = self.number_list("cost.h")
                j_opt = self.number("cost.j_opt", 0.0)
                if not np.isfinite(j_opt):
                    raise ConfigError(f"field 'cost.j_opt' must be finite, got {j_opt!r}")
                star = self.number_list("cost.theta_star") if self.has("cost.theta_star") else None
                return quadratic_cost(h if h.size > 1 else float(h[0]), j_opt, star)
            if kind == "quartic":
                return quartic_cost()
            if kind == "shifted_quartic":
                return shifted_quartic_cost(self.number_list("cost.theta_star"))
            n = self.integer("cost.n", 1)
            if n < 1:
                raise ConfigError(f"field 'cost.n' must be at least 1, got {n}")
            return parse_cost(self.raw("cost.expr"), n)
        except ConfigError:
            raise
        except ValueError as exc:
            where = "field 'cost.expr'" if kind == "expr" else "cost specification"
            raise ConfigError(f"invalid {where}: {exc}") from exc

    def dither(self) -> DitherConfig:
        try:
            return new_dither(
                self.number_list("dither.amplitudes"),
                self.number_list("dither.rates", "1"),
                self.number("dither.omega"),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"invalid dither: {exc}") from exc

    def gains(self) -> EscParams:
        try:
            return EscParams(
                k=self.number("gains.k"),
                epsilon=self.number("gains.epsilon"),
                omega_l=self.number_list("gains.omega_l"),
                omega_xi=self.number("gains.omega_xi"),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"invalid gains: {exc}") from exc

    def initial_washouts(self, y0: float) -> list[tuple[str, float]]:
        """Initial washout entries; ``y0`` substitutes the measured cost at t=0."""
        entries = self.string_list("init.xi", "0")
        out = []
        for entry in entries:
            m = re.fullmatch(r"(?:([-+0-9.eE]+)\s*\*\s*)?y0", entry)
            try:
                if m:
                    factor = float(m.group(1)) if m.group(1) else 1.0
                    label, xi0 = entry.replace("*", "").replace(" ", ""), factor * y0
                else:
                    label, xi0 = entry, float(entry)
            except ValueError:
                raise ConfigError(
                    f"field 'init.xi' entries must be numbers or '<factor>*y0', got {entry!r}"
                ) from None
            if not np.isfinite(xi0):
                raise ConfigError(f"field 'init.xi' entry {entry!r} must be finite, got {xi0!r}")
            out.append((label, xi0))
        return out
