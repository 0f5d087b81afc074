"""Config validation, binary checkpoint round-trips, CSV and SVG output."""

import dataclasses
import hashlib
import json
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from klora.checkpoint import (
    BadMagicError,
    CheckpointError,
    ChecksumError,
    UnsupportedVersionError,
    install_records,
    load_checkpoint,
    save_checkpoint,
)
from klora.choices import SettingError
from klora.config import (
    ATTENTION_DEFAULTS,
    ConfigError,
    DEFAULTS,
    SETTINGS,
    apply_defaults,
    dataset_from,
    load_config,
    trainer_config_from,
)
from klora.datasets import TASK_KEYS, TaskKind, high_rank_regression
from klora.kernels import KINDS, KernelKind
from klora.model import Adam, RunTrace, TrainerConfig, build_model, fine_tune
from klora.reports import read_csv, write_csv
from klora.svgplot import emit_heatmap_svg, render_heatmap_svg


# every range and parser case of TestConfig, with its SettingError's message
SETTING_ERRORS = [
    ("rank", 0, "rank must be >= 1, got 0"),
    ("pieces", 0, "pieces must be >= 1, got 0"),
    ("factor_std", 0.0, "factor_std must be positive, got 0.0"),
    ("smoothing_beta1", 1.5, "smoothing_beta1 must lie in [0, 1], got 1.5"),
    ("smoothing_beta2", float("nan"), "smoothing_beta2 must be finite, got nan"),
    ("seed", -1, "seed must be nonnegative, got -1"),
    ("epochs", -1, "epochs must be nonnegative, got -1"),
    ("lr", float("nan"), "lr must be finite, got nan"),
    ("kernel_kind", "polynomial",
     "unknown kernel 'polynomial' (known: linear, p-linear, sigmoid, rbf, mix-k)"),
    ("budget_ratio", 1.5, "budget_ratio must lie in [0, 1], got 1.5"),
    ("adam_beta1", 1.0, "adam_beta1 must lie in [0, 1), got 1.0"),
    ("adam_beta1", -0.1, "adam_beta1 must lie in [0, 1), got -0.1"),
    ("adam_beta2", 1.5, "adam_beta2 must lie in [0, 1), got 1.5"),
    ("adam_beta2", 1.0, "adam_beta2 must lie in [0, 1), got 1.0"),
    ("adam_eps", -1.0, "adam_eps must be positive, got -1.0"),
    ("adam_eps", 0.0, "adam_eps must be positive, got 0.0"),
    ("adam_eps", float("nan"), "adam_eps must be finite, got nan"),
]
# the Adam argument of each setting it takes
ADAM_ARGUMENTS = {"lr": "lr", "adam_beta1": "beta1", "adam_beta2": "beta2", "adam_eps": "eps"}


class TestConfig:
    def test_minimal_config_gets_documented_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"layer_dims": [8, 8]}}))
        cfg = load_config(path)
        assert cfg["kernel"]["kind"] == "mix-k"
        assert cfg["kernel"]["pieces"] == 2
        assert cfg["sparsity"]["smoothing_beta1"] == 0.85
        assert cfg["sparsity"]["smoothing_beta2"] == 0.85
        assert cfg["sparsity"]["schedule"] == "cubic"
        assert cfg["sparsity"]["budget_ratio"] == 0.3
        assert cfg["sparsity"]["sparsify_mode"] == "soft"
        assert cfg["model"]["layer_dims"] == [8, 8]

    def test_budget_ratio_range_error_names_key(self):
        with pytest.raises(ConfigError, match="sparsity.budget_ratio"):
            apply_defaults({"sparsity": {"budget_ratio": 1.5}})

    @pytest.mark.parametrize("key, value", [
        ("adam_beta1", 1.0), ("adam_beta1", -0.1), ("adam_beta2", 1.5), ("adam_beta2", 1.0),
        ("adam_eps", -1.0), ("adam_eps", 0.0), ("adam_eps", float("nan")),
    ])
    def test_adam_setting_out_of_range_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"value out of range for 'train.{key}'"):
            apply_defaults({"train": {key: value}})

    def test_adam_settings_at_the_edges_accepted(self):
        cfg = apply_defaults({"train": {"adam_beta1": 0.0, "adam_beta2": 0.0, "adam_eps": 1e-300}})
        assert cfg["train"]["adam_eps"] == 1e-300

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigError, match="unknown key 'train.momentum'"):
            apply_defaults({"train": {"momentum": 0.9}})
        with pytest.raises(ConfigError, match="unknown key '<root>.extra'"):
            apply_defaults({"extra": 1})

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="kernel.kind"):
            apply_defaults({"kernel": {"kind": "polynomial"}})

    def test_malformed_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
            load_config(path)

    def test_roundtrip_save_load_structurally_equal(self, tmp_path):
        cfg = apply_defaults({"model": {"layer_dims": [8, 8], "rank": 3}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert load_config(path) == cfg

    def test_defaulting_is_idempotent(self):
        once = apply_defaults({"train": {"lr": 0.5}})
        assert apply_defaults(once) == once

    def test_a_null_section_takes_its_defaults(self):
        assert apply_defaults({"model": None}) == apply_defaults({})

    def test_the_checked_document_shares_nothing_with_its_input_or_the_defaults(self):
        raw = {"model": {"layer_dims": [8, 8]}, "train": {"task": {"samples": 32}},
               "experiments": [{"type": "schedule"}]}
        inputs = json.loads(json.dumps([raw, DEFAULTS]))
        for cfg in (apply_defaults(raw), apply_defaults({})):
            cfg["model"]["layer_dims"].append(8)
            cfg["train"]["task"]["samples"] = 16
            cfg["experiments"].append({"type": "train"})
            cfg["experiments"][0]["type"] = "train"
        assert [raw, DEFAULTS] == inputs

    def test_trainer_config_translation(self):
        cfg = apply_defaults(
            {"kernel": {"kind": "linear"}, "sparsity": {"budget_ratio": 1.0}}
        )
        tc = trainer_config_from(cfg)
        assert tc.kernel_kind is KernelKind.LINEAR
        assert tc.budget_ratio == 1.0

    def test_dataset_from_uses_model_dims(self):
        cfg = apply_defaults({"model": {"layer_dims": [8, 8]}, "train": {"task": {"samples": 32}}})
        ds = dataset_from(cfg)
        assert ds.x.shape == (32, 8)
        assert len(ds.base_weights) == 1

    def test_config_driven_attention_block(self):
        cfg = apply_defaults(
            {
                "model": {"layer_dims": [8, 8, 8],
                           "attention": {"position": 0, "tokens": 2}},
                "train": {"task": {"samples": 16}, "epochs": 1, "steps_per_epoch": 2,
                           "batch_size": 8},
            }
        )
        ds = dataset_from(cfg)
        assert ds.attention is not None and len(ds.attention["weights"]) == 4
        from klora.model import Trainer, build_model

        model = build_model(ds, trainer_config_from(cfg))
        assert len(model.adapted_layers()) == 2 + 4
        Trainer(model, trainer_config_from(cfg), ds).fine_tune()

    def test_attention_tokens_must_divide_width(self):
        cfg_raw = {
            "model": {"layer_dims": [8, 9, 8], "attention": {"position": 0, "tokens": 2}},
        }
        with pytest.raises(ConfigError, match="attention.tokens"):
            dataset_from(apply_defaults(cfg_raw))

    def test_defaults_documented_in_one_place(self):
        assert set(DEFAULTS) == {"model", "kernel", "sparsity", "train", "experiments"}

    def test_document_defaults_are_the_trainer_defaults(self):
        got, want = trainer_config_from(apply_defaults({})), TrainerConfig()
        for f in dataclasses.fields(TrainerConfig):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert (a, type(a)) == (b, type(b)), f.name

    @pytest.mark.parametrize("name, value", [
        ("rank", 0), ("pieces", 0), ("factor_std", 0.0), ("smoothing_beta1", 1.5),
        ("smoothing_beta2", float("nan")), ("seed", -1), ("epochs", -1), ("lr", float("nan")),
        ("kernel_kind", "polynomial"), ("budget_ratio", 1.5),
    ])
    def test_trainer_setting_error_names_its_field(self, name, value):
        with pytest.raises(SettingError, match=name if name != "kernel_kind" else "kernel") as err:
            TrainerConfig(**{name: value})
        assert err.value.name == name

    def test_every_setting_is_a_trainer_field(self):
        fields = {f.name for f in dataclasses.fields(TrainerConfig)}
        assert sorted(SETTINGS.values()) == sorted(fields)

    @pytest.mark.parametrize("name, value, message", SETTING_ERRORS)
    def test_setting_error_name_and_message(self, name, value, message):
        with pytest.raises(SettingError) as err:
            TrainerConfig(**{name: value})
        assert (err.value.name, str(err.value)) == (name, message)
        key = next(k for k, field_name in SETTINGS.items() if field_name == name)
        with pytest.raises(ConfigError) as err:
            apply_defaults({key.split(".")[0]: {key.split(".")[1]: value}})
        assert str(err.value) == f"value out of range for '{key}': {message}"
        if name in ADAM_ARGUMENTS:
            with pytest.raises(SettingError) as err:
                Adam([], **{"lr": 0.0, ADAM_ARGUMENTS[name]: value})
            assert (err.value.name, str(err.value)) == (name, message)

    def test_trace_config_rebuilds_the_run(self, tmp_path):
        cfg = apply_defaults({
            "model": {"layer_dims": [8, 8, 8], "rank": 2},
            "kernel": {"kind": "P-Linear"},
            "sparsity": {"schedule": "linear", "alloc_period": "per-step",
                         "importance_metric": "magnitude", "smoothing_beta1": 0.7},
            "train": {"epochs": 2, "steps_per_epoch": 3, "batch_size": 8, "seed": 4,
                      "task": {"samples": 16}},
        })
        dataset, trainer_cfg = dataset_from(cfg), trainer_config_from(cfg)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(fine_tune(trainer_cfg, dataset).to_dict()))
        trace = RunTrace.from_dict(json.loads(path.read_text()))
        rebuilt = TrainerConfig(**trace.config)
        assert rebuilt == trainer_cfg
        again = fine_tune(rebuilt, dataset)
        assert {**again.to_dict(), "duration_s": 0} == {**trace.to_dict(), "duration_s": 0}

    @pytest.mark.parametrize("attention", [None, {}])
    def test_null_and_empty_attention_mean_no_block(self, attention):
        ds = dataset_from(apply_defaults({"model": {"attention": attention},
                                          "train": {"task": {"samples": 8}}}))
        assert ds.attention is None

    def test_attention_keys_default(self):
        ds = dataset_from(apply_defaults({"model": {"layer_dims": [8, 12, 8],
                                                    "attention": {"tokens": 3}},
                                          "train": {"task": {"samples": 8}}}))
        assert (ds.attention["position"], ds.attention["tokens"]) == (0, 3)
        ds = dataset_from(apply_defaults({"model": {"layer_dims": [8, 12, 8],
                                                    "attention": {"position": 1}},
                                          "train": {"task": {"samples": 8}}}))
        assert (ds.attention["position"], ds.attention["tokens"]) == (1, 2)


def _readme_section(title):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n")[1].split("\n## ")[0]


def test_readme_configuration_table_lists_every_key():
    rows = re.findall(r"^\| `([a-z_0-9.-]+)` \|", _readme_section("Configuration"), re.M)
    keys = [f"{section}.{key}" for section, values in DEFAULTS.items()
            if isinstance(values, dict) for key in values]
    keys += [f"model.attention.{key}" for key in ATTENTION_DEFAULTS]
    task_rows = [row for row in rows if "." not in row]
    assert sorted(set(rows) - set(task_rows)) == sorted(keys)
    assert len(rows) - len(task_rows) == len(keys)
    assert task_rows == [kind.value for kind in TaskKind]


def test_each_trainer_setting_has_one_readme_row_showing_its_default():
    rows = re.findall(r"^\| `([a-z_0-9.]+)` \| [^|]+ \| `([^`]*)` \|",
                      _readme_section("Configuration"), re.M)
    documented = [(SETTINGS[key], default) for key, default in rows if key in SETTINGS]
    defaults = [(name, value if isinstance(value, str) else json.dumps(value))
                for name, value in TrainerConfig().to_dict().items()]
    assert sorted(documented) == sorted(defaults)


@pytest.mark.parametrize("kind", list(TaskKind))
def test_readme_lists_each_task_kinds_keys(kind):
    row = re.search(rf"^\| `{kind.value}` \| (.*) \|$", _readme_section("Configuration"), re.M)
    assert row is not None
    assert re.findall(r"`([a-z_]+)`", row.group(1)) == list(TASK_KEYS[kind])


def test_readme_checkpoint_kind_table_lists_every_kind_row():
    rows = re.findall(r"^\| (\d+) \| ([^|]+) \| ([^|]+) \|$",
                      _readme_section("Checkpoint format"), re.M)
    by_id = {row.kind_id: row for row in KINDS.values()}
    assert [int(kind_id) for kind_id, *_ in rows] == sorted([*by_id, RETIRED_KIND_ID])
    for kind_id, kind, coefficients in rows:
        row = by_id.get(int(kind_id))
        if row is None:
            assert kind.startswith("retired"), kind_id
        else:
            assert kind == f"`{row.kind.value}`"
            assert re.findall(r"`(\w+)`", coefficients) == [c.name for c in row.coefficients]


def small_model(seed=0, kind=KernelKind.MIX_K, dims=(6, 5, 7), **settings):
    ds = high_rank_regression(seed=seed, layer_dims=dims, samples=16)
    cfg = TrainerConfig(**{"seed": seed, "rank": 2, "kernel_kind": kind, "epochs": 0,
                           **settings})
    return build_model(ds, cfg)


def perturb(model, seed):
    rng = np.random.default_rng(seed)
    for layer in model.adapted_layers():
        for t in layer.trainables():
            t.data[...] = rng.normal(size=t.data.shape)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = small_model()
        # make the state nontrivial
        rng = np.random.default_rng(3)
        for layer in model.adapted_layers():
            layer.pair.A.data[:] = rng.normal(size=layer.pair.A.data.shape)
            layer.spec.coeffs[0].data[:] = rng.normal(size=2)
        path = tmp_path / "adapter.bin"
        save_checkpoint(model, path)
        records = load_checkpoint(path)
        assert len(records) == 2
        for layer, rec in zip(model.adapted_layers(), records):
            np.testing.assert_array_equal(rec.a, layer.pair.A.data)
            np.testing.assert_array_equal(rec.b, layer.pair.B.data)
            np.testing.assert_array_equal(rec.coefficients, layer.spec.coefficient_values())
            assert rec.kind is layer.spec.kind

    def test_install_restores_state(self, tmp_path):
        model = small_model(seed=1)
        rng = np.random.default_rng(5)
        for layer in model.adapted_layers():
            layer.pair.B.data[:] = rng.normal(size=layer.pair.B.data.shape)
        path = tmp_path / "adapter.bin"
        save_checkpoint(model, path)
        other = small_model(seed=2)
        install_records(other, load_checkpoint(path))
        for a, b in zip(model.adapted_layers(), other.adapted_layers()):
            np.testing.assert_array_equal(a.pair.B.data, b.pair.B.data)

    def test_install_writes_a_grouped_layer_through_its_group(self, tmp_path):
        # two 6x6 layers train from one group's blocks; installing into
        # them must reach the blocks the forward pass merges
        model = small_model(seed=1, dims=(6, 6, 6))
        perturb(model, 5)
        path = tmp_path / "adapter.bin"
        save_checkpoint(model, path)
        # the same base weights and starting state, which the install replaces
        other = small_model(seed=1, dims=(6, 6, 6))
        (group,) = other.groups
        assert len(group.layers) == 2
        tensors = [layer.trainables() for layer in other.adapted_layers()]
        install_records(other, load_checkpoint(path))
        for layer, before, rec in zip(other.adapted_layers(), tensors, load_checkpoint(path)):
            assert all(t is b for t, b in zip(layer.trainables(), before))
            np.testing.assert_array_equal(layer.pair.A.data, rec.a)
        for k, rec in enumerate(load_checkpoint(path)):
            np.testing.assert_array_equal(group.pair.A.data[k], rec.a)
            np.testing.assert_array_equal(group.pair.B.data[k], rec.b)
        x = np.random.default_rng(0).normal(size=(3, 6))
        assert other.forward(x).data.tobytes() == model.forward(x).data.tobytes()

    @pytest.mark.parametrize("settings", [
        {"rank": 1}, {"kernel_kind": KernelKind.P_LINEAR}, {"pieces": 1},
    ], ids=["rank", "kind", "pieces"])
    def test_install_rejects_another_layout_before_touching_a_layer(self, tmp_path, settings):
        path = tmp_path / "adapter.bin"
        save_checkpoint(small_model(seed=1), path)
        records = load_checkpoint(path)
        save_checkpoint(small_model(seed=1, **settings), path)
        # only the last record differs, so a layer written early would show
        records[-1] = load_checkpoint(path)[-1]
        model = small_model(seed=2)
        before = [t.data.copy() for t in model.trainables()]
        with pytest.raises(CheckpointError, match="layer 1 is rank 2 mix-k with 2 pieces"):
            install_records(model, records)
        for t, b in zip(model.trainables(), before):
            assert t.data.tobytes() == b.tobytes()

    def test_truncated_file_fails_checksum(self, tmp_path):
        model = small_model()
        path = tmp_path / "adapter.bin"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-11])
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        model = small_model()
        path = tmp_path / "adapter.bin"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "not.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        model = small_model()
        path = tmp_path / "adapter.bin"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 2  # bump the little-endian version field
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(path)

    def test_training_a_pair_built_from_a_record_leaves_the_record_unchanged(self, tmp_path):
        path = tmp_path / "adapter.bin"
        save_checkpoint(small_model(), path)
        rec = load_checkpoint(path)[0]
        before = [rec.a.copy(), rec.b.copy(), rec.coefficients.copy()]
        pair, spec = rec.to_pair_and_spec()
        params = [pair.A, pair.B, *spec.coefficients()]
        opt = Adam(params, lr=0.1)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step()
        assert not np.array_equal(pair.A.data, before[0])
        for value, kept in zip((rec.a, rec.b, rec.coefficients), before):
            np.testing.assert_array_equal(value, kept)

    def test_layer_records_per_kind(self, tmp_path):
        for kind in KernelKind:
            model = small_model(kind=kind)
            path = tmp_path / f"{kind.value}.bin"
            save_checkpoint(model, path)
            records = load_checkpoint(path)
            assert records[0].kind is kind


def write_crafted(path, layers):
    """Write format-v1 bytes with a valid checksum from raw per-layer fields.

    Each layer is (m, n, r, kind id, coefficients, factor floats).
    """
    parts = [b"SNLA", struct.pack("<HI", 1, len(layers))]
    for m, n, r, kind_id, coeffs, floats in layers:
        parts.append(struct.pack("<IIIHI", m, n, r, kind_id, len(coeffs)))
        parts.append(np.asarray(list(coeffs) + list(floats), dtype="<f8").tobytes())
    path.write_bytes(seal(b"".join(parts)))


def seal(payload: bytes) -> bytes:
    """The payload and its 8-byte BLAKE2b checksum: a format-v1 file."""
    return payload + hashlib.blake2b(payload, digest_size=8).digest()


def layer_spans(payload: bytes) -> list:
    """(start, end, kind id) of each layer in a format-v1 payload."""
    spans, start = [], 10
    while start < len(payload):
        m, n, r, kind_id, n_coeff = struct.unpack_from("<IIIHI", payload, start)
        end = start + 18 + 8 * (n_coeff + (m + n) * r)
        spans.append((start, end, kind_id))
        start = end
    return spans


class TestCraftedCheckpoint:
    def test_header_larger_than_payload(self, tmp_path):
        path = tmp_path / "big.bin"
        write_crafted(path, [(1000, 1000, 50, 0, [], [])])
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)

    def test_rank_above_min_dimension(self, tmp_path):
        path = tmp_path / "rank.bin"
        write_crafted(path, [(1, 1, 2, 0, [], [0.0] * 4)])
        with pytest.raises(CheckpointError, match="exceeds min"):
            load_checkpoint(path)

    def test_coefficient_count_must_fit_kind(self, tmp_path):
        path = tmp_path / "coeffs.bin"
        write_crafted(path, [(2, 2, 1, 0, [1.0, 2.0], [0.0] * 4)])
        with pytest.raises(CheckpointError, match="linear kernel takes 0 coefficients"):
            load_checkpoint(path)


# A format-v1 file written before the kernel registry existed: one 2 x 2
# layer per kind id 0..5. Kind id 4 (rbf-normalized) is retired, so the file
# no longer loads.
GOLDEN_V1 = bytes.fromhex(
    "534e4c41010006000000020000000200000001000000000000000000000000000000e0bf000000000000d8bf"
    "000000000000d03f000000000000b03f020000000200000002000000010002000000000000000000e03f0000"
    "00000000d0bf000000000000d8bf000000000000d0bf000000000000c0bf0000000000000000000000000000"
    "c83f0000000000000000000000000000c8bf000000000000d8bf020000000200000001000000020003000000"
    "000000000000f83f000000000000e83f000000000000c0bf000000000000d0bf000000000000c0bf00000000"
    "0000c03f000000000000b0bf0200000002000000010000000300030000000000000000000040000000000000"
    "e03f000000000000d03f000000000000c0bf0000000000000000000000000000b03f000000000000c0bf0200"
    "00000200000001000000040003000000000000000000f0bf0000000000001040000000000000b03f00000000"
    "00000000000000000000c03f0000000000000000000000000000c8bf02000000020000000200000005000400"
    "0000000000000000d83f000000000000e4bf000000000000f43f00000000000004c0000000000000c03f0000"
    "00000000d03f000000000000d83f000000000000e03f000000000000b0bf000000000000d0bf000000000000"
    "dcbf000000000000e4bf96a2dd33167c3084"
)


RETIRED_KIND_ID = 4
# GOLDEN_V1 less its layer of the retired kind: the other five layers keep
# their pinned bytes, under a new layer count and checksum
GOLDEN_V1_LIVE = seal(GOLDEN_V1[:6] + struct.pack("<I", 5) + b"".join(
    GOLDEN_V1[start:end] for start, end, kind_id in layer_spans(GOLDEN_V1[:-8])
    if kind_id != RETIRED_KIND_ID))


def golden_layers():
    """(kind, coefficients, A, B) per layer of GOLDEN_V1_LIVE, built from its kind id."""
    coeffs = {
        KernelKind.LINEAR: [],
        KernelKind.P_LINEAR: [0.5, -0.25],
        KernelKind.SIGMOID: [1.5, 0.75, -0.125],
        KernelKind.RBF: [2.0, 0.5, 0.25],
        KernelKind.MIX_K: [0.375, -0.625, 1.25, -2.5],
    }
    out = []
    for kind, values in coeffs.items():
        i = KINDS[kind].kind_id
        r = 2 if kind in (KernelKind.P_LINEAR, KernelKind.MIX_K) else 1
        grid = np.arange(2 * r, dtype=float).reshape(2, r)
        out.append((kind, values, (grid + i) / 8.0 - 0.5, -(grid * 3 + i) / 16.0 + 0.25))
    return out


class TestFormatV1:
    def test_golden_file_loads_and_resaves_byte_for_byte(self, tmp_path):
        path = tmp_path / "golden.bin"
        path.write_bytes(GOLDEN_V1_LIVE)
        records = load_checkpoint(path)
        assert len(records) == 5
        for rec, (kind, values, a, b) in zip(records, golden_layers()):
            assert rec.kind is kind
            np.testing.assert_array_equal(rec.coefficients, values)
            np.testing.assert_array_equal(rec.a, a)
            np.testing.assert_array_equal(rec.b, b)
        layers = [SimpleNamespace(pair=pair, spec=spec)
                  for pair, spec in (rec.to_pair_and_spec() for rec in records)]
        again = tmp_path / "again.bin"
        save_checkpoint(layers, again)
        assert again.read_bytes() == GOLDEN_V1_LIVE

    def test_golden_file_naming_the_retired_kind_is_rejected(self, tmp_path):
        # the live golden holds one layer of each kind; the pinned file adds id 4
        live = [kind_id for *_, kind_id in layer_spans(GOLDEN_V1_LIVE[:-8])]
        assert live == sorted(row.kind_id for row in KINDS.values())
        path = tmp_path / "golden.bin"
        path.write_bytes(GOLDEN_V1)
        with pytest.raises(CheckpointError, match=f"unknown kernel kind id {RETIRED_KIND_ID}"):
            load_checkpoint(path)


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        header = ["kernel", "seed", "mse"]
        rows = [["mix-k", 0, 0.1 + 0.2], ["linear", 1, 1e-17], ["p-linear", 2, 3.0]]
        path = tmp_path / "table.csv"
        write_csv(path, header, rows)
        header2, rows2 = read_csv(path)
        assert header2 == header
        assert rows2 == rows

    def test_lf_endings_and_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2.5]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().splitlines()[0] == "a,b"


class TestSvg:
    def test_single_unshaded_cell(self, tmp_path):
        svg = render_heatmap_svg([[0.0]])
        assert 'fill="#ffffff"' in svg

    def test_all_ones_darkest(self):
        svg = render_heatmap_svg([[1.0, 1.0], [1.0, 1.0]])
        assert svg.count('fill="#000000"') == 4
        assert 'fill="#ffffff"' not in svg

    def test_deterministic_bytes(self, tmp_path):
        table = [[0.25, 0.5], [0.75, 1.0]]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_heatmap_svg(table, p1)
        emit_heatmap_svg(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            render_heatmap_svg([[0.1, 0.2], [0.3]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            render_heatmap_svg([[1.5]])
