"""User-facing names parsed by their own enums, and the JSON type rule."""

import pytest
from click.testing import CliRunner

from klora.allocation import Metric, ScheduleKind, SparsifyMode
from klora.choices import Choice
from klora.cli import main as cli_main
from klora.datasets import TaskKind
from klora.experiments import MemoryMode
from klora.kernels import KernelKind
from klora.model import AllocPeriod, SettingError, TrainerConfig

# every choice, with the word its unknown-name message uses
CHOICES = {KernelKind: "kernel", ScheduleKind: "schedule", SparsifyMode: "sparsify mode",
           Metric: "importance metric", AllocPeriod: "allocation period",
           TaskKind: "dataset kind", MemoryMode: "memory mode"}


def test_every_choice_is_listed():
    assert set(Choice.__subclasses__()) == set(CHOICES)


@pytest.mark.parametrize("choice", CHOICES, ids=lambda c: c.__name__)
def test_choice_parses_members_values_and_spellings(choice):
    for member in choice:
        assert choice(member) is member
        assert choice(f"  {member.value.upper()} ") is member
    for spelling, member in choice.spellings().items():
        assert choice(spelling) is member
        assert choice(spelling.upper()) is member


@pytest.mark.parametrize("choice, what", CHOICES.items(), ids=lambda c: getattr(c, "__name__", c))
def test_unknown_name_lists_every_value_in_order(choice, what):
    known = ", ".join(member.value for member in choice)
    with pytest.raises(ValueError) as err:
        choice("x")
    assert str(err.value) == f"unknown {what} 'x' (known: {known})"


@pytest.mark.parametrize("name, value, message", [
    ("epochs", 2.5, "need an integer, got 2.5"),
    ("rank", True, "need an integer, got true"),
    ("lr", "fast", 'need a number, got "fast"'),
    ("recompute_merge", "no", "need a boolean, got \"no\""),
    ("steps_per_epoch", 2.0, "need an integer or null, got 2.0"),
    ("kernel_kind", 3, "need a name, got 3"),
])
def test_trainer_setting_of_wrong_type_names_its_field(name, value, message):
    with pytest.raises(SettingError) as err:
        TrainerConfig(**{name: value})
    assert (err.value.name, err.value.problem, str(err.value)) == (name, "wrong type", message)


def test_trainer_setting_types_admit_what_json_gives():
    cfg = TrainerConfig(lr=1, steps_per_epoch=None, kernel_kind="MixK",
                        schedule_kind=ScheduleKind.LINEAR)
    assert (cfg.lr, type(cfg.lr)) == (1.0, float)
    assert (cfg.kernel_kind, cfg.schedule_kind) == (KernelKind.MIX_K, ScheduleKind.LINEAR)


def test_train_options_parse_like_the_document(tmp_path):
    result = CliRunner().invoke(cli_main, ["train", "--sparsify-mode", "bogus",
                                           "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert ("value out of range for 'sparsity.sparsify_mode': unknown sparsify mode 'bogus' "
            "(known: soft, literal, hard)") in result.output
