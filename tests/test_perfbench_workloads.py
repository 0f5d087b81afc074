"""Every benchmark workload runs one unit and passes its checks.

The benchmark drives klora through a few public names (`LowRankPair`,
`KernelSpec`, `AdaptedLinear.delta_w`, `fit_matrix_experiment`, the config
and checkpoint entry points). This test loads `perfbench/workloads.py` as
`test_perfbench_spans.py` loads `tracing.py` and, for each workload at seed
1, runs `prepare`, one timed unit and `verify`, and the merge reference
checks, so a rename the benchmark depends on fails here first.
"""

import contextlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))  # workloads.py imports reference.py
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("name", ["fit-small", "merge-large", "train-sparse"])
def test_one_unit_of_each_workload_passes_its_checks(workloads, name, tmp_path):
    assert set(workloads.WORKLOADS) == {"fit-small", "merge-large", "train-sparse"}
    workload = workloads.WORKLOADS[name]
    state = workload.prepare(1)
    output = workload.run_unit(state, lambda span: contextlib.nullcontext(), tmp_path)
    checks, _ = workload.verify(output)
    checks += workloads.merge_reference_checks(workload.merge_shapes, 1)
    assert checks
    failed = [(check, detail) for check, ok, detail in checks if not ok]
    assert not failed
    assert workload.summarize(output)["steps"] > 0
