"""Run settings, and the layered key-value configuration of every CLI command.

`RunConfig`, whose fields are the keys of its one JSON form
(`config_to_dict`), which the digest hashes and the indexes record;
`REGISTRY`, whose run rows name their place in that form, so that the
settings mappings are loops over it; and `read_index`.

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

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

from .ingest import DEFAULT_FOLD_BOUNDARIES, DataError
from .neuralnet import HeadKind, LstmSpec, TcnSpec, TrainConfig
from .preprocess import NormMethod, SavgolSpec, WindowSpec, feature_dim
from .skeleton import (
    ALL_GESTURE_IDS, DEFAULT_JOINT_MAP, DYNAMIC_GESTURE_IDS, N_JOINTS, STATIC_GESTURE_IDS,
    GestureLabel, JointIndexMap,
)


class Protocol(Enum):
    """How the gesture set is carved into trainable models, as `models`,
    `head` and `keys_for` describe them to every reader."""

    MULTICLASS = "multiclass"
    MULTICLASS_BINARY = "multiclass-binary"

    @property
    def models(self) -> dict[str, tuple[str, ...]]:
        """Each model's key and the gesture ids that it outputs, in job
        order: ``static`` and ``dynamic``, or each gesture id as ``(gid,)``."""
        if self is Protocol.MULTICLASS:
            return {"static": STATIC_GESTURE_IDS, "dynamic": DYNAMIC_GESTURE_IDS}
        return {gid: (gid,) for gid in ALL_GESTURE_IDS}

    @property
    def head(self) -> HeadKind:
        return HeadKind.SOFTMAX if self is Protocol.MULTICLASS else HeadKind.SIGMOID

    def keys_for(self, label: GestureLabel) -> tuple[str, ...]:
        """The models that score a performance of ``label``: the model of its
        kind, or all 29 one-vs-rest models."""
        if self is Protocol.MULTICLASS:
            return (label.kind.value,)
        return ALL_GESTURE_IDS


class NetKind(Enum):
    LSTM = LstmSpec.kind
    TCN = TcnSpec.kind


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a training/evaluation run besides the data.
    Its fields are the keys of its one JSON form (`config_to_dict`)."""

    protocol: Protocol = Protocol.MULTICLASS
    net: NetKind = NetKind.LSTM
    method: NormMethod = NormMethod.M3
    window: int = 32
    stride: int = 1
    savgol: SavgolSpec | None = field(default_factory=SavgolSpec)
    include_confidence: bool = False
    long_window: int | None = None
    route_threshold: int | None = None
    lstm_hidden: int = LstmSpec.hidden_dim
    tcn_channels: int = TcnSpec.channels
    tcn_kernel: int = TcnSpec.kernel
    tcn_dilations: tuple[int, ...] = TcnSpec.dilations
    train: TrainConfig = field(default_factory=TrainConfig)
    rebalance: bool = False
    seed: int = 0

    def __post_init__(self):
        WindowSpec(self.window, self.stride)  # a ValueError for a length or stride below 1
        if self.long_window is not None and self.long_window <= self.window:
            raise ValueError(
                f"long_window ({self.long_window}) must exceed the base window "
                f"({self.window})"
            )
        if self.route_threshold is not None and self.long_window is None:
            raise ValueError("route_threshold is only meaningful with long_window set")
        if self.route_threshold is not None and self.route_threshold < 1:
            raise ValueError(f"route_threshold must be >= 1, got {self.route_threshold}")

    @property
    def feature_dim(self) -> int:
        return feature_dim(self.method, self.include_confidence)

    def arch_spec(self, n_classes: int):
        d = self.feature_dim
        if self.net is NetKind.LSTM:
            return LstmSpec(input_dim=d, hidden_dim=self.lstm_hidden, n_classes=n_classes)
        return TcnSpec(
            input_dim=d,
            channels=self.tcn_channels,
            kernel=self.tcn_kernel,
            dilations=self.tcn_dilations,
            n_classes=n_classes,
        )

    def routes(self) -> dict[str, WindowSpec]:
        """Each route's window, by route name: ``main``, or ``short`` and
        ``long`` with length routing."""
        window = WindowSpec(self.window, self.stride)
        if self.long_window is None:
            return {"main": window}
        return {"short": window, "long": WindowSpec(self.long_window, self.stride)}

    @property
    def router_threshold(self) -> int | None:
        """The largest raw frame count (before smoothing or windowing) that
        takes the ``short`` route; None without length routing."""
        if self.long_window is None:
            return None
        return self.window if self.route_threshold is None else self.route_threshold

    def report_header(self) -> dict[str, object]:
        """The fields of an `EvaluationReport` that name this run."""
        return {"protocol": self.protocol.value, "arch": self.net.value,
                "method": int(self.method), "window": self.window}


def _to_json(value: object) -> object:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return asdict(value) if is_dataclass(value) else value


def _from_json(default: object, value: object) -> object:
    """``value`` read back as the type of the field default ``default``."""
    if isinstance(default, Enum):
        return type(default)(value)
    if isinstance(default, tuple):
        return tuple(value)
    return replace(default, **value) if is_dataclass(default) and value is not None else value


def config_to_dict(config: RunConfig) -> dict:
    """The run's one JSON form, which `config_digest` hashes and indexes
    record: each field of `RunConfig` by its name."""
    d = {f.name: _to_json(getattr(config, f.name)) for f in fields(RunConfig)}
    del d["train"]["shuffle_seed"]  # derived per model from the run seed
    return d


def config_from_dict(d: dict) -> RunConfig:
    """Inverse of `config_to_dict`; absent keys take the values of
    `RunConfig()`.  A key that `config_to_dict` does not write is a
    ValueError, so no recorded setting is silently dropped, and so is a value
    of the wrong type (an enum's JSON type is its default's; see also
    `_check_values`) or a network that no model can have."""
    base = RunConfig()
    defaults = config_to_dict(base)
    unknown = [k for k in d if k not in defaults] + [
        f"{block}.{k}" for block, default in defaults.items() if isinstance(default, dict)
        for k in d.get(block) or () if k not in default
    ]
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    for name in [k for k in d if isinstance(getattr(base, k), Enum)]:
        if type(d[name]) is not type(defaults[name]):  # an enum would look 3.0 up as 3
            raise ValueError(f"mistyped config value {name!r}: {d[name]!r}")
    config = RunConfig(**{f.name: _from_json(getattr(base, f.name), d[f.name])
                          for f in fields(RunConfig) if f.name in d})
    _check_values(config)
    config.arch_spec(1)  # a ValueError for a network that no model can have
    return config


def _check_values(config: RunConfig) -> None:
    """A ValueError unless each run setting is exactly what its registry
    parser gives back from the setting's own text, so that ``"32"`` or
    ``32.0`` for a count and ``1`` for a flag are refused, and unless each
    other training value has its default's type."""
    settings = {**config_to_settings(config), "run.seed": config.seed}
    for name, value in settings.items():
        try:
            parsed = REGISTRY[name].parse(format_value(value))
            ok = type(parsed) is type(value) and parsed == value
        except ConfigError:
            ok = False
        if not ok:
            raise ValueError(f"mistyped config value {REGISTRY[name].path or 'seed'!r}: "
                             f"{value!r}")
    defaults = asdict(TrainConfig())
    for name, value in asdict(config.train).items():
        if type(value) is not type(defaults[name]):
            raise ValueError(f"mistyped config value {'train.' + name!r}: {value!r}")


def config_digest(config: RunConfig) -> str:
    """Short stable hash of the run configuration, stamped into checkpoints."""
    blob = json.dumps(config_to_dict(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _at(d: dict, path: str) -> object:
    """The value at dotted ``path`` in nested dicts."""
    for part in path.split("."):
        d = d[part]
    return d


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


def _parse_fold_boundaries(text: str) -> tuple[int, int]:
    b1, b2 = _parse_int_pair(text)
    if not b1 < b2:
        raise ConfigError(f"fold boundaries must be strictly increasing, got {b1},{b2}")
    return b1, b2


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


def _parse_chin_index(text: str) -> int:
    try:
        return JointIndexMap(_parse_int(text)).chin_index
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    """One registered setting: its flag, parser, default, and help text; a key
    that describes a run also has its ``path`` in `config_to_dict` form."""

    name: str
    flag: str
    parse: Callable[[str], object]
    default: object
    help: str
    path: str | None = None

    @property
    def dest(self) -> str:
        """argparse attribute name for this key's flag."""
        return self.flag.lstrip("-").replace("-", "_")


def _key(name, flag, parse, default, help_text, path=None) -> tuple[str, ConfigKey]:
    return name, ConfigKey(name, flag, parse, default, help_text, path)


def _run_key(name, path, flag, parse, help_text) -> tuple[str, ConfigKey]:
    """A key that describes a run; its default is filled in from `RunConfig()`."""
    return _key(name, flag, parse, None, help_text, path)


REGISTRY: dict[str, ConfigKey] = dict(
    [
        _key("dataset.root", "--dataset", _parse_optional_str, None,
             "dataset directory to load"),
        _key("dataset.manifest", "--manifest", _parse_optional_str, None,
             "manifest path inside the dataset directory (default manifest.csv)"),
        _key("output.dir", "--out", _parse_str, "skelgest_out", "output directory"),
        _run_key("model.protocol", "protocol", "--protocol",
                 _parse_choice("multiclass", "binary", "multiclass-binary"),
                 "evaluation protocol: multiclass or binary (one-vs-rest)"),
        _run_key("model.net", "net", "--net", _parse_choice("lstm", "tcn"),
                 "network architecture"),
        _run_key("preprocess.method", "method", "--method", _parse_method,
                 "normalization method 1..5"),
        _run_key("preprocess.window", "window", "--frames", _parse_window,
                 "window length in frames, or 'short,long' for length routing"),
        _run_key("preprocess.stride", "stride", "--stride", _parse_int,
                 "window stride in frames"),
        _run_key("preprocess.route_threshold", "route_threshold", "--route-threshold",
                 _parse_optional_int,
                 "frame-count threshold for length routing (default: short window)"),
        _run_key("preprocess.smooth", "savgol", "--smooth", _parse_bool,
                 "apply quadratic smoothing before windowing"),
        _run_key("preprocess.savgol.m", "savgol.m", "--savgol-m", _parse_int,
                 "smoothing filter width (odd)"),
        _run_key("preprocess.savgol.order", "savgol.order", "--savgol-order", _parse_int,
                 "smoothing polynomial order"),
        _run_key("preprocess.include_confidence", "include_confidence",
                 "--include-confidence", _parse_bool,
                 "append per-joint confidence columns to the feature windows"),
        _run_key("model.lstm_hidden", "lstm_hidden", "--lstm-hidden", _parse_int,
                 "LSTM hidden state size"),
        _run_key("model.tcn_channels", "tcn_channels", "--tcn-channels", _parse_int,
                 "convolution channels per level"),
        _run_key("model.tcn_kernel", "tcn_kernel", "--tcn-kernel", _parse_int,
                 "convolution kernel size"),
        _run_key("model.tcn_dilations", "tcn_dilations", "--tcn-dilations",
                 _parse_int_list, "comma-separated dilation per level"),
        _run_key("train.optimizer", "train.optimizer", "--optimizer",
                 _parse_choice("adam", "sgd"), "parameter update rule"),
        _run_key("train.learning_rate", "train.learning_rate", "--learning-rate",
                 _parse_float, "optimizer step size"),
        _run_key("train.epochs", "train.epochs", "--epochs", _parse_int,
                 "training epochs"),
        _run_key("train.batch_size", "train.batch_size", "--batch-size", _parse_int,
                 "training batch size"),
        _run_key("train.clip_norm", "train.clip_norm", "--clip-norm", _parse_float,
                 "gradient L2-norm ceiling"),
        _run_key("train.rebalance", "rebalance", "--rebalance", _parse_bool,
                 "upsample positives for one-vs-rest training"),
        _key("folds.boundaries", "--fold-boundaries", _parse_fold_boundaries,
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
        _key("joints.chin_index", "--chin-index", _parse_chin_index,
             DEFAULT_JOINT_MAP.chin_index,
             "column index of the chin joint"),
        _key("gradcheck.tolerance", "--tolerance", _parse_float, 1e-6,
             "gradient-check pass threshold"),
    ]
)

if len({key.dest for key in REGISTRY.values()}) != len(REGISTRY):
    raise AssertionError("flag collision in config registry")

_PROTOCOL_ALIASES = {"binary": Protocol.MULTICLASS_BINARY.value}


def config_to_settings(config: RunConfig) -> dict[str, object]:
    """The registry settings that describe ``config``, all but its seed;
    without smoothing, the smoothing width and order are the defaults."""
    savgol = config.savgol
    d = {**config_to_dict(config), "savgol": asdict(savgol or SavgolSpec())}
    settings = {}
    for name, key in REGISTRY.items():
        if key.path is not None:
            value = _at(d, key.path)
            settings[name] = tuple(value) if isinstance(value, list) else value
    long_window = () if d["long_window"] is None else (d["long_window"],)
    settings["preprocess.window"] = (d["window"], *long_window)
    settings["preprocess.smooth"] = savgol is not None
    return settings


def config_from_settings(settings: dict, seed: int) -> RunConfig:
    """The run that registry settings (``preprocess.window``,
    ``train.epochs``, ...) describe; `config_to_settings` is its inverse."""
    d: dict = {"seed": seed}
    for name, key in REGISTRY.items():
        if key.path is not None and name != "preprocess.smooth":
            block, _, leaf = key.path.rpartition(".")
            (d.setdefault(block, {}) if block else d)[leaf] = settings[name]
    window = settings["preprocess.window"]
    d["window"], d["long_window"] = window[0], window[1] if len(window) == 2 else None
    if not settings["preprocess.smooth"]:
        d["savgol"] = None
    d["protocol"] = _PROTOCOL_ALIASES.get(d["protocol"], d["protocol"])
    return config_from_dict(d)


# The keys that describe a run, with the library's own defaults, so that the
# CLI and `RunConfig` cannot disagree.
RUN_DEFAULTS: dict[str, object] = config_to_settings(RunConfig())
REGISTRY.update(
    (name, replace(REGISTRY[name], default=value)) for name, value in RUN_DEFAULTS.items()
)


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


# ---------------------------------------------------------------------------
# Index files: ``modelset.json`` and ``run_manifest.json``


def _fold_boundaries(value: object) -> str | None:
    if not (isinstance(value, list) and len(value) == 2
            and all(type(b) is int for b in value)):
        return "is not a list of two integers"
    return None if value[0] < value[1] else "is not strictly increasing"


def _string(value: object) -> str | None:
    return None if isinstance(value, str) else "is not a string"


def _string_or_null(value: object) -> str | None:
    return None if value is None or isinstance(value, str) else "is not a string or null"


def _joint_index(value: object) -> str | None:
    ok = type(value) is int and 0 <= value < N_JOINTS
    return None if ok else f"is not an integer in [0, {N_JOINTS})"


def _model_entries(value: object) -> str | None:
    if not isinstance(value, list):
        return "is not a list"
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            return f"entry {i} is not an object"
        if name := next((f for f in ("file", "route", "key")
                         if not isinstance(entry.get(f), str)), None):
            return f"entry {i} has no string {name!r} field"
    return None


# What an index field must hold wherever it is present, as a check that
# returns the problem or None.  `config` is checked by `config_from_dict`.
_INDEX_FIELD_CHECKS: dict[str, Callable[[object], str | None]] = {
    "models": _model_entries,
    "fold_boundaries": _fold_boundaries,
    "dataset.root": _string,
    "dataset.manifest": _string_or_null,
    "dataset.checksum": _string,
    "chin_index": _joint_index,
}


def read_index(path: Path, fmt: str, fields: Sequence[str]) -> tuple[dict, RunConfig]:
    """A ``modelset.json`` or ``run_manifest.json`` index of format ``fmt``
    and the run config that it records.  Each of ``fields`` must be present
    (``dataset.checksum`` names a field of ``dataset``), and every field of
    `_INDEX_FIELD_CHECKS` that is present must be of its type.  A missing
    file, bad JSON, another format, a missing or mistyped field or a config
    that no run has is a `DataError` that names the file."""
    try:
        index = json.loads(path.read_text())
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: not a readable JSON index ({exc})") from None
    found = index.get("format") if isinstance(index, dict) else None
    if found != fmt:
        raise DataError(f"{path} is not a {fmt} index (format {found!r})")
    required = ("config", *fields)
    for name in (*required, *_INDEX_FIELD_CHECKS):
        try:
            value = _at(index, name)
        except (KeyError, TypeError):  # absent, or under a value that is no object
            if name in required:
                raise DataError(f"{path}: no {name!r} field") from None
            continue
        if (check := _INDEX_FIELD_CHECKS.get(name)) and (problem := check(value)):
            raise DataError(f"{path}: {name!r} {problem}")
    try:
        config = config_from_dict(index["config"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad 'config' ({exc!r})") from None
    # Indexes written before the chin index was recorded used the default chin.
    index.setdefault("chin_index", DEFAULT_JOINT_MAP.chin_index)
    return index, config


def write_index(path: Path, fmt: str, config: RunConfig, **fields: object) -> Path:
    """Write an index of format ``fmt`` that records ``config`` and ``fields``
    for `read_index`; returns ``path``."""
    index = {"format": fmt, "version": 1, "config": config_to_dict(config), **fields}
    path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return path
