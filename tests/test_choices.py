"""User-facing names parsed by their own enums, and the JSON type rule."""

import typing

import pytest
from click.testing import CliRunner

from klora.allocation import Metric, ScheduleKind, SparsifyMode
from klora.choices import Choice, typed
from klora.cli import main as cli_main
from klora.datasets import TaskKind
from klora.experiments import EXPERIMENT_TYPES, REQUIRED, MemoryMode
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


UNKNOWN_POLY = ("unknown kernel 'poly' "
                "(known: linear, p-linear, sigmoid, rbf, rbf-normalized, mix-k)")


@pytest.mark.parametrize("value, hint, held", [
    (["linear", " MixK"], list[KernelKind], [KernelKind.LINEAR, KernelKind.MIX_K]),
    (("cubic", ScheduleKind.LINEAR), list[ScheduleKind],
     [ScheduleKind.CUBIC, ScheduleKind.LINEAR]),
    ([[8, 8], (4, 2)], list[list[int]], [[8, 8], [4, 2]]),
    ([], list[int], []),
    ([1, 2.5], list[float], [1.0, 2.5]),
    ("rbf", KernelKind, KernelKind.RBF),
    (None, int | None, None),
    (3, int | None, 3),
])
def test_typed_parses_names_and_holds_lists_item_by_item(value, hint, held):
    got = typed(value, hint)
    assert got == held and repr(got) == repr(held)  # lists, floats and members, not look-alikes


@pytest.mark.parametrize("value, hint, error, message", [
    ("linear", list[KernelKind], TypeError, 'need a list, got "linear"'),
    (4, list[int], TypeError, "need a list, got 4"),
    ({"a": 1}, list[int], TypeError, 'need a list, got {"a": 1}'),
    ([2, 2.5], list[int], TypeError, "need an integer, got 2.5"),
    ([2, True], list[int], TypeError, "need an integer, got true"),
    ([[8, 8], [8.5, 8]], list[list[int]], TypeError, "need an integer, got 8.5"),
    ([[8, 8], 8], list[list[int]], TypeError, "need a list, got 8"),
    (["linear", 3], list[KernelKind], TypeError, "need a name, got 3"),
    (["linear", "poly"], list[KernelKind], ValueError, UNKNOWN_POLY),
    ("poly", KernelKind, ValueError, UNKNOWN_POLY),
    (2.0, int | None, TypeError, "need an integer or null, got 2.0"),
    (True, int | None, TypeError, "need an integer or null, got true"),
])
def test_typed_says_which_value_or_item_fails(value, hint, error, message):
    with pytest.raises(error) as err:
        typed(value, hint)
    assert type(err.value) is error and str(err.value) == message


def test_every_list_or_name_param_has_a_list_or_choice_hint():
    """run-all checks an entry's params by their hints alone: a list param, or a
    param that takes a kernel or schedule name, without a `list[...]` or `Choice`
    hint would go unchecked."""
    def names_a_member(value):
        return isinstance(value, str) and any(
            value in {m.value for m in choice} for choice in (KernelKind, ScheduleKind))

    checked = []
    for etype in EXPERIMENT_TYPES.values():
        for key, default in etype.params.items():
            hint = etype.hints.get(key)
            listed = isinstance(default, (list, tuple))
            if listed or default is REQUIRED:
                assert hint is not None, key
            if listed:
                assert typing.get_origin(hint) is list, key
            if hint is not None and default is not REQUIRED:
                typed(default, hint)  # every default holds to its own hint
            if any(map(names_a_member, default if listed else [default])):
                item = typing.get_args(hint)[0] if listed else hint
                assert isinstance(item, type) and issubclass(item, Choice), key
                checked.append(key)
    assert set(checked) == {"kernels", "kinds", "kernel_kind"}
