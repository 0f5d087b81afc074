"""User-facing names parsed by their own enums, and the JSON type rule."""

import inspect
import typing

import pytest
from click.testing import CliRunner

from klora.allocation import Metric, ScheduleKind, SparsifyMode
from klora.choices import (COUNT, Choice, Count, Decay, Natural, NonNegative, OpenUnit,
                           Positive, SettingError, Unit, check, hints, typed)
from klora.cli import main as cli_main
from klora.datasets import TaskKind
from klora.experiments import (EXPERIMENT_TYPES, REQUIRED, MemoryMode, fit_matrix_experiment,
                               grad_evolution_experiment, memory_footprint_estimate, rank_sweep,
                               schedule_table)
from klora.kernels import KernelKind
from klora.model import AllocPeriod, TrainerConfig

# the driver of each run-all experiment type that runs one
DRIVERS = {"fit-matrix": fit_matrix_experiment, "grad-evolution": grad_evolution_experiment,
           "rank-sweep": rank_sweep, "schedule": schedule_table,
           "memory-model": memory_footprint_estimate}

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
                "(known: linear, p-linear, sigmoid, rbf, mix-k)")


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
    ({"linear": 1, " MixK": 2.5}, dict[KernelKind, float],
     {KernelKind.LINEAR: 1.0, KernelKind.MIX_K: 2.5}),
    ({"linear@r=4": 4}, dict[str, Natural], {"linear@r=4": 4}),
    ({}, dict[str, int], {}),
    (["cubic", 5, 125], tuple[ScheduleKind, Natural, Natural], (ScheduleKind.CUBIC, 5, 125)),
    ([[1, 0], (2, 0.5)], list[tuple[Positive, NonNegative]], [(1.0, 0.0), (2.0, 0.5)]),
    ({"a": [1]}, dict, {"a": [1]}),
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
    (4, dict[str, int], TypeError, "need an object, got 4"),
    ([["a", 1]], dict[str, int], TypeError, 'need an object, got [["a", 1]]'),
    ({"a": 1.5}, dict[str, int], TypeError, "need an integer, got 1.5"),
    ({"poly": 1}, dict[KernelKind, float], ValueError, UNKNOWN_POLY),
    ({"linear": -1}, dict[KernelKind, NonNegative], ValueError,
     "value must be nonnegative, got -1.0"),
    ({"linear": float("nan")}, dict[KernelKind, NonNegative], ValueError,
     "value must be finite, got nan"),
    (["cubic", 5], tuple[ScheduleKind, int, int], TypeError,
     'need a list of 3 items, got ["cubic", 5]'),
    (["cubic", 5, 1, 2], tuple[ScheduleKind, int, int], TypeError,
     'need a list of 3 items, got ["cubic", 5, 1, 2]'),
    (0.02, tuple[float, float], TypeError, "need a list of 2 items, got 0.02"),
    ([["cubic", 5.5, 1]], list[tuple[ScheduleKind, Natural, Natural]], TypeError,
     "need an integer, got 5.5"),
    ([[0.02, -0.01]], list[tuple[Positive, NonNegative]], ValueError,
     "value must be nonnegative, got -0.01"),
    ([1, 0], list[Count], ValueError, "value must be >= 1, got 0"),
    ([1, 1], typing.Annotated[list[int], (lambda v: len(set(v)) == len(v), "must not repeat")],
     ValueError, "value must not repeat, got [1, 1]"),
    ("x", dict, TypeError, 'need an object, got "x"'),
    (float("inf"), float, ValueError, "value must be finite, got inf"),
    ([1.0, -float("inf")], list[float], ValueError, "value must be finite, got -inf"),
])
def test_typed_says_which_value_or_item_fails(value, hint, error, message):
    with pytest.raises(error) as err:
        typed(value, hint)
    assert type(err.value) is error and str(err.value) == message


def test_every_list_or_name_param_has_a_list_or_choice_hint():
    """run-all checks an entry's params by their drivers' hints alone: a list param,
    or a param that takes a kernel or schedule name, without a `list[...]` or
    `Choice` hint would go unchecked."""
    def names_a_member(value):
        return isinstance(value, str) and any(
            value in {m.value for m in choice} for choice in (KernelKind, ScheduleKind))

    assert set(DRIVERS) == set(EXPERIMENT_TYPES) - {"train"}  # train's one param is a config
    checked = []
    for etype, driver in DRIVERS.items():
        driver_hints = hints(driver)
        for key, default in EXPERIMENT_TYPES[etype].params.items():
            hint = driver_hints.get(key)
            if typing.get_origin(hint) is typing.Annotated:
                hint = typing.get_args(hint)[0]
            listed = isinstance(default, (list, tuple))
            if listed or default is REQUIRED:
                assert hint is not None, key
            if listed:
                assert typing.get_origin(hint) is list, key
            if hint is not None and default is not REQUIRED:
                check(key, default, driver_hints[key])  # every default holds to its own hint
            if any(map(names_a_member, default if listed else [default])):
                item = typing.get_args(hint)[0] if listed else hint
                assert isinstance(item, type) and issubclass(item, Choice), key
                checked.append(key)
    assert set(checked) == {"kernels", "kinds", "kernel_kind"}


def test_every_assert_key_has_an_annotation():
    """run-all holds an assert value to its check's annotation alone: the keyword
    params of every check after (report, table) are its assert keys, each with an
    annotation its default holds to, and the first, which runs it, has no default."""
    for etype in EXPERIMENT_TYPES.values():
        for assert_check in etype.checks:
            params = list(inspect.signature(assert_check).parameters.values())
            check_hints = hints(assert_check)
            assert [p.name for p in params[:2]] == ["report", "table"]
            assert [p.name for p in params[2:]] == list(check_hints), assert_check.__name__
            assert params[2].default is REQUIRED, assert_check.__name__
            for param in params[3:]:
                check(param.name, param.default, check_hints[param.name])


# each range rule alias, with values at and just past its edges, and the rule's words
ALIAS_EDGES = {
    "Count": (Count, [1, 2], [0, -1], "must be >= 1"),
    "Natural": (Natural, [0, 1], [-1], "must be nonnegative"),
    "NonNegative": (NonNegative, [0.0, 0, 1e-300], [-1e-300, -1.0], "must be nonnegative"),
    "Positive": (Positive, [1e-300, 1], [0.0, -1.0], "must be positive"),
    "Unit": (Unit, [0.0, 1.0, 0.5], [-1e-9, 1.0 + 1e-9], "must lie in [0, 1]"),
    "Decay": (Decay, [0.0, 0.999], [1.0, -0.1], "must lie in [0, 1)"),
    "OpenUnit": (OpenUnit, [1e-9, 1.0 - 1e-9], [0.0, 1.0], "must lie in (0, 1)"),
}


@pytest.mark.parametrize("alias, held, broken, what", ALIAS_EDGES.values(), ids=ALIAS_EDGES)
def test_check_holds_each_alias_to_its_range(alias, held, broken, what):
    base = typing.get_args(alias)[0]
    for value in held:
        got = check("x", value, alias)
        assert got == value and type(got) is base
    for value in broken:
        with pytest.raises(SettingError) as err:
            check("x", value, alias)
        assert (err.value.name, err.value.problem, str(err.value)) == (
            "x", "value out of range", f"x {what}, got {base(value)!r}")
    # a float that is not finite fails before the alias's own rule
    for value in [float("nan"), float("inf"), -float("inf")] if base is float else []:
        with pytest.raises(SettingError) as err:
            check("x", value, alias)
        assert (err.value.problem, str(err.value)) == ("value out of range",
                                                       f"x must be finite, got {value!r}")


def test_check_of_an_optional_rule_passes_none_and_holds_the_rest():
    hint = typing.Annotated[int | None, COUNT]
    assert check("target_rank", None, hint) is None
    assert check("target_rank", 3, hint) == 3
    with pytest.raises(SettingError) as err:
        check("target_rank", 0, hint)
    assert (err.value.problem, str(err.value)) == ("value out of range",
                                                   "target_rank must be >= 1, got 0")
    with pytest.raises(SettingError) as err:
        check("target_rank", 2.0, hint)
    assert (err.value.problem, str(err.value)) == ("wrong type",
                                                   "need an integer or null, got 2.0")


@pytest.mark.parametrize("value, hint, problem, message", [
    (0.5, Count, "wrong type", "need an integer, got 0.5"),  # the type comes first
    (True, Natural, "wrong type", "need an integer, got true"),
    ("-1", NonNegative, "wrong type", 'need a number, got "-1"'),
    ("poly", KernelKind, "value out of range", UNKNOWN_POLY),
    (["linear", 3], list[KernelKind], "wrong type", "need a name, got 3"),
])
def test_check_says_which_of_type_or_range_fails(value, hint, problem, message):
    with pytest.raises(SettingError) as err:
        check("p", value, hint)
    assert (err.value.name, err.value.problem, str(err.value)) == ("p", problem, message)
