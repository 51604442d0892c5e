"""The run-settings table: `RunConfig`, its four mappings and the registry.

The registry's run rows are the one table of run settings; these tests make
a row without a test value fail, and check that each row's value reaches
the recorded JSON form, the digest and every mapping.
"""

import dataclasses
import functools
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skelgest
from skelgest import pipeline
from skelgest.config import (
    REGISTRY,
    NetKind,
    Protocol,
    RunConfig,
    config_digest,
    config_from_dict,
    config_from_settings,
    config_to_dict,
    config_to_settings,
    format_value,
    parse_value,
)
from skelgest.ingest import SynthConfig, generate_synthetic
from skelgest.neuralnet import HeadKind
from skelgest.preprocess import NormMethod
from skelgest.skeleton import ALL_GESTURE_IDS, GestureLabel

# One value per run key of the registry, each other than `RunConfig()`'s.
OTHER_VALUES = {
    "model.protocol": "multiclass-binary",
    "model.net": "tcn",
    "preprocess.method": 5,
    "preprocess.window": (24, 48),
    "preprocess.stride": 2,
    "preprocess.route_threshold": 30,
    "preprocess.smooth": False,
    "preprocess.savgol.m": 7,
    "preprocess.savgol.order": 3,
    "preprocess.include_confidence": True,
    "model.lstm_hidden": 17,
    "model.tcn_channels": 12,
    "model.tcn_kernel": 2,
    "model.tcn_dilations": (1, 3),
    "train.optimizer": "sgd",
    "train.learning_rate": 0.05,
    "train.epochs": 3,
    "train.batch_size": 16,
    "train.clip_norm": 2.5,
    "train.rebalance": True,
}
# Settings that a value needs besides the defaults.
PREREQUISITES = {"preprocess.route_threshold": {"preprocess.window": (32, 64)}}

RUN_KEYS = {name: key for name, key in REGISTRY.items() if key.path is not None}
DEFAULTS = {name: key.default for name, key in RUN_KEYS.items()}


def _at(d, path):
    return functools.reduce(lambda node, part: node[part], path.split("."), d)


def test_every_run_key_has_a_test_value():
    assert set(OTHER_VALUES) == set(RUN_KEYS)
    for name, value in OTHER_VALUES.items():
        assert value != DEFAULTS[name], name
        assert parse_value(name, format_value(value)) == value, name


def test_registry_defaults_are_the_library_defaults():
    assert DEFAULTS == config_to_settings(RunConfig())
    assert list(DEFAULTS) == list(config_to_settings(RunConfig()))


def test_every_field_is_a_recorded_key_with_a_registry_row():
    """`RunConfig`'s fields are the keys of its JSON form, so a new field is
    recorded and hashed as it is; and each is the first segment of a run
    row's path, but the seed (``run.seed``) and the long window (the second
    value of ``preprocess.window``)."""
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert list(config_to_dict(RunConfig())) == names
    heads = {key.path.split(".")[0] for key in RUN_KEYS.values()}
    assert set(names) - heads == {"seed", "long_window"}


def test_default_digest_is_unchanged():
    assert config_digest(RunConfig()) == "603726d53a522f77"


@pytest.mark.parametrize("name", OTHER_VALUES)
def test_each_value_reaches_every_mapping(name):
    base = {**DEFAULTS, **PREREQUISITES.get(name, {})}
    settings = {**base, name: OTHER_VALUES[name]}
    config = config_from_settings(settings, 9)
    before = config_to_dict(config_from_settings(base, 9))
    after = config_to_dict(config)

    path = RUN_KEYS[name].path
    assert _at(after, path) != _at(before, path)
    assert config_digest(config) != config_digest(config_from_settings(base, 9))
    assert config_from_dict(after) == config
    assert config_to_settings(config) == settings
    assert config_to_settings(config_from_dict(after)) == settings


@pytest.mark.parametrize(
    "d,key",
    [({"lstm_hiden": 64}, "'lstm_hiden'"),
     ({"train": {"epoch": 3}}, "'train.epoch'"),
     ({"train": {"shuffle_seed": 1}}, "'train.shuffle_seed'"),
     ({"savgol": {"m": 5, "order": 2, "mm": 7}}, "'savgol.mm'")],
)
def test_dict_with_an_unknown_key_is_rejected(d, key):
    with pytest.raises(ValueError, match=key):
        config_from_dict(d)


@pytest.mark.parametrize(
    "d,message",
    [({"method": 3.0}, "'method': 3.0"), ({"method": True}, "'method': True"),
     ({"method": "3"}, "'method': '3'"), ({"protocol": 1}, "'protocol': 1"),
     ({"net": ["lstm"]}, "'net': ['lstm']")],
    ids=["method-float", "method-bool", "method-string", "protocol-int", "net-list"],
)
def test_a_recorded_enum_value_of_another_json_type_is_rejected(d, message):
    with pytest.raises(ValueError, match=re.escape(f"mistyped config value {message}")):
        config_from_dict(d)


def test_a_recorded_enum_value_of_its_json_type_is_read():
    assert config_from_dict({"protocol": "multiclass-binary", "net": "tcn", "method": 5}) == \
        RunConfig(protocol=Protocol.MULTICLASS_BINARY, net=NetKind.TCN, method=NormMethod.M5)


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_a_protocol_describes_its_models(protocol):
    """Every gesture id is output by one model; a performance is scored by
    each softmax model that outputs its id, or by every sigmoid model."""
    models = protocol.models
    assert sorted(gid for ids in models.values() for gid in ids) == sorted(ALL_GESTURE_IDS)
    for gid in ALL_GESTURE_IDS:
        want = [key for key, ids in models.items()
                if protocol.head is HeadKind.SIGMOID or gid in ids]
        assert list(protocol.keys_for(GestureLabel(gid))) == want


def test_config_does_not_import_the_pipeline():
    code = "import sys, skelgest.config; print('skelgest.pipeline' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(skelgest.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# The names that the benchmark (perfbench/run.py and tracing.install) imports
# or replaces, by module.
BENCHMARK_NAMES = {
    "skelgest.neuralnet": (
        "HeadKind", "LstmSpec", "TcnSpec", "init_parameters", "lstm", "tcn",
    ),
    "skelgest.neuralnet.train": (
        "batch_loss_and_grad", "clip_gradient", "adam_update", "fit",
    ),
    "skelgest.neuralnet.lstm": ("forward", "loss_and_grad"),
    "skelgest.neuralnet.tcn": ("forward", "loss_and_grad"),
    "skelgest.preprocess": (
        "smooth_series", "normalize_window", "NormMethod", "feature_dim",
    ),
    "skelgest.ingest": ("assign_folds", "load_dataset"),
    "skelgest.metrics": ("average_static_dynamic",),
    "skelgest.pipeline": (
        "config_from_dict", "cross_validate", "evaluate_multiclass", "evaluate_binary",
        "oracle_factory", "train_protocol", "preprocess_sequence", "stack_windows",
        "fit", "forward", "load_checkpoint", "save_checkpoint",
    ),
    "skelgest.cli": (
        "generate_synthetic", "write_dataset", "load_dataset", "cross_validate",
        "load_model_set", "save_model_set", "write_report_files", "train_protocol",
        "evaluate_multiclass", "evaluate_binary",
    ),
}


@pytest.mark.parametrize("module", BENCHMARK_NAMES)
def test_benchmark_names_resolve(module):
    imported = importlib.import_module(module)
    missing = [name for name in BENCHMARK_NAMES[module] if not hasattr(imported, name)]
    assert not missing


def test_featurization_looks_up_preprocess_sequence_in_the_pipeline(monkeypatch):
    calls = []
    original = pipeline.preprocess_sequence

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "preprocess_sequence", counted)
    ds = generate_synthetic(SynthConfig(n_patients=1, seed=0))
    pipeline.train_protocol(ds.sequences, RunConfig(), ds.joint_map,
                            factory=pipeline.oracle_factory)
    assert len(calls) == len(ds.sequences)
