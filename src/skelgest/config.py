"""Layered key-value configuration shared by every CLI command.

Resolution order (later wins): built-in defaults, then a plain-text config
file (``--config`` flag or the ``SKELGEST_CONFIG`` environment variable),
then explicit command-line flags.  Keys are dot-namespaced by the module
they configure (``dataset.root``, ``preprocess.window``, ``train.epochs``);
each key has exactly one mirroring flag (usually its leaf name, e.g.
``--epochs``).  Unknown keys are rejected with the offending line number,
and each command echoes its fully resolved configuration into its output
directory so artifacts are self-describing.

File syntax: one ``key = value`` pair per line; ``#`` starts a comment;
blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .ingest import DEFAULT_FOLD_BOUNDARIES
from .pipeline import RunConfig, config_to_settings
from .skeleton import DEFAULT_JOINT_MAP


class ConfigError(ValueError):
    """Unknown key, malformed value, or an unusable combination of settings."""


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean (true/false), got {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_optional_int(text: str):
    if text.strip().lower() in ("", "none"):
        return None
    return _parse_int(text)


def _parse_optional_str(text: str):
    stripped = text.strip()
    return None if stripped.lower() in ("", "none") else stripped


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")
    return tuple(_parse_int(p) for p in parts)


def _parse_int_pair(text: str) -> tuple[int, int]:
    values = _parse_int_list(text)
    if len(values) != 2:
        raise ConfigError(f"expected exactly two integers 'a,b', got {text!r}")
    return values  # type: ignore[return-value]


def _parse_window(text: str) -> tuple[int, ...]:
    values = _parse_int_list(text)
    if len(values) not in (1, 2):
        raise ConfigError(
            f"window takes one length or 'short,long' for routing, got {text!r}"
        )
    if len(values) == 2 and values[0] >= values[1]:
        raise ConfigError(
            f"window pair must be increasing, got {values[0]},{values[1]}"
        )
    if any(v < 1 for v in values):
        raise ConfigError(f"window lengths must be >= 1, got {text!r}")
    return values


def _parse_method(text: str) -> int:
    value = _parse_int(text)
    if not 1 <= value <= 5:
        raise ConfigError(f"method must be 1..5, got {value}")
    return value


def _parse_choice(*choices: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        lowered = text.strip().lower()
        if lowered not in choices:
            raise ConfigError(f"expected one of {'/'.join(choices)}, got {text!r}")
        return lowered

    return parse


@dataclass(frozen=True)
class ConfigKey:
    """One registered setting: its flag, parser, default, and help text."""

    name: str
    flag: str
    parse: Callable[[str], object]
    default: object
    help: str

    @property
    def dest(self) -> str:
        """argparse attribute name for this key's flag."""
        return self.flag.lstrip("-").replace("-", "_")


def _key(name, flag, parse, default, help_text) -> tuple[str, ConfigKey]:
    return name, ConfigKey(name=name, flag=flag, parse=parse, default=default,
                           help=help_text)


# The keys that describe a run, with the library's own defaults, so that the
# CLI and `RunConfig` cannot disagree.
RUN_DEFAULTS: dict[str, object] = config_to_settings(RunConfig())


def _run_key(name, flag, parse, help_text) -> tuple[str, ConfigKey]:
    return _key(name, flag, parse, RUN_DEFAULTS[name], help_text)


REGISTRY: dict[str, ConfigKey] = dict(
    [
        _key("dataset.root", "--dataset", _parse_optional_str, None,
             "dataset directory to load"),
        _key("dataset.manifest", "--manifest", _parse_optional_str, None,
             "manifest path inside the dataset directory (default manifest.csv)"),
        _key("output.dir", "--out", _parse_str, "skelgest_out", "output directory"),
        _run_key("model.protocol", "--protocol",
                 _parse_choice("multiclass", "binary", "multiclass-binary"),
                 "evaluation protocol: multiclass or binary (one-vs-rest)"),
        _run_key("model.net", "--net", _parse_choice("lstm", "tcn"),
                 "network architecture"),
        _run_key("preprocess.method", "--method", _parse_method,
                 "normalization method 1..5"),
        _run_key("preprocess.window", "--frames", _parse_window,
                 "window length in frames, or 'short,long' for length routing"),
        _run_key("preprocess.stride", "--stride", _parse_int,
                 "window stride in frames"),
        _run_key("preprocess.route_threshold", "--route-threshold",
                 _parse_optional_int,
                 "frame-count threshold for length routing (default: short window)"),
        _run_key("preprocess.smooth", "--smooth", _parse_bool,
                 "apply quadratic smoothing before windowing"),
        _run_key("preprocess.savgol.m", "--savgol-m", _parse_int,
                 "smoothing filter width (odd)"),
        _run_key("preprocess.savgol.order", "--savgol-order", _parse_int,
                 "smoothing polynomial order"),
        _run_key("preprocess.include_confidence", "--include-confidence",
                 _parse_bool,
                 "append per-joint confidence columns to the feature windows"),
        _run_key("model.lstm_hidden", "--lstm-hidden", _parse_int,
                 "LSTM hidden state size"),
        _run_key("model.tcn_channels", "--tcn-channels", _parse_int,
                 "convolution channels per level"),
        _run_key("model.tcn_kernel", "--tcn-kernel", _parse_int,
                 "convolution kernel size"),
        _run_key("model.tcn_dilations", "--tcn-dilations", _parse_int_list,
                 "comma-separated dilation per level"),
        _run_key("train.optimizer", "--optimizer", _parse_choice("adam", "sgd"),
                 "parameter update rule"),
        _run_key("train.learning_rate", "--learning-rate", _parse_float,
                 "optimizer step size"),
        _run_key("train.epochs", "--epochs", _parse_int, "training epochs"),
        _run_key("train.batch_size", "--batch-size", _parse_int,
                 "training batch size"),
        _run_key("train.clip_norm", "--clip-norm", _parse_float,
                 "gradient L2-norm ceiling"),
        _run_key("train.rebalance", "--rebalance", _parse_bool,
                 "upsample positives for one-vs-rest training"),
        _key("folds.boundaries", "--fold-boundaries", _parse_int_pair,
             DEFAULT_FOLD_BOUNDARIES,
             "patient-id boundaries 'b1,b2' for the 3-fold split"),
        _key("run.seed", "--seed", _parse_optional_int, None,
             "RNG seed; required by any command that draws random numbers"),
        _key("synth.patients", "--patients", _parse_int, 6,
             "number of synthetic patients"),
        _key("synth.noise_sigma", "--noise-sigma", _parse_float, 0.015,
             "synthetic jitter std dev in world units"),
        _key("synth.camera_offset_range", "--camera-offset-range",
             _parse_float, 0.4,
             "synthetic per-patient camera shift range in world units"),
        _key("synth.frames_static", "--frames-static", _parse_int_pair, (40, 56),
             "synthetic frame-count range 'lo,hi' for static gestures"),
        _key("synth.frames_dynamic", "--frames-dynamic", _parse_int_pair, (48, 72),
             "synthetic frame-count range 'lo,hi' for dynamic gestures"),
        _key("joints.chin_index", "--chin-index", _parse_int,
             DEFAULT_JOINT_MAP.chin_index,
             "column index of the chin joint"),
        _key("gradcheck.tolerance", "--tolerance", _parse_float, 1e-6,
             "gradient-check pass threshold"),
    ]
)

if len({key.dest for key in REGISTRY.values()}) != len(REGISTRY):
    raise AssertionError("flag collision in config registry")


def default_config() -> dict[str, object]:
    return {key.name: key.default for key in REGISTRY.values()}


def parse_value(name: str, text: str) -> object:
    """Parse one value by its registered key; unknown keys are errors."""
    if name not in REGISTRY:
        raise ConfigError(f"unknown config key {name!r}")
    try:
        return REGISTRY[name].parse(text)
    except ConfigError as exc:
        raise ConfigError(f"config key {name!r}: {exc}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse a key-value config file body; errors carry line numbers."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        name, _, value = line.partition("=")
        name = name.strip()
        try:
            values[name] = parse_value(name, value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
    return values


def load_config_file(path: str | Path) -> dict[str, object]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))


def given_settings(
    file_path: str | Path | None, overrides: dict[str, object]
) -> dict[str, object]:
    """File values, then non-None overrides; keys that neither sets are absent."""
    given = {} if file_path is None else load_config_file(file_path)
    for name, value in overrides.items():
        if name not in REGISTRY:
            raise ConfigError(f"unknown config key {name!r}")
        if value is not None:
            given[name] = value
    return given


def resolve(
    file_path: str | Path | None, overrides: dict[str, object]
) -> dict[str, object]:
    """Defaults, then file values, then non-None overrides."""
    return {**default_config(), **given_settings(file_path, overrides)}


def format_value(value: object) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def render_config(values: dict[str, object]) -> str:
    """Deterministic 'key = value' text that parses back to the same values."""
    lines = [
        f"{name} = {format_value(values[name])}"
        for name in sorted(values)
        if name in REGISTRY
    ]
    return "\n".join(lines) + "\n"
