"""fit_matrix_experiment's target ranks, inline and on a worker thread.

Below `RANK_THREAD_WORK` the ranks run inline before the fit; from it they
run on a worker thread while the fit runs. Both paths must give the same
report, join the worker on success and on error, and leave perfbench's span
recorder, which keeps one span stack for all threads, balanced.
"""

import math
import threading

import numpy as np
import pytest

from klora import experiments
from klora.experiments import RANK_THREAD_WORK, fit_matrix_experiment, make_fit_target
from klora.kernels import numerical_rank
from test_perfbench_spans import load_tracing

# 3 x 32 x 32 x 32 lies below the cut; 1 x 256 x 256 x 256 is the cut itself
BELOW = {"m": 32, "n": 32, "seeds": 3}
ABOVE = {"m": 256, "n": 256, "seeds": 1}
FIT = {"r": 4, "target_rank": 5, "density": 1.0, "steps": 1, "kernels": ("mix-k", "linear"),
       "seed_base": 7}


def test_the_cut_lies_between_the_two_shapes():
    work = [shape["seeds"] * shape["m"] * shape["n"] * min(shape["m"], shape["n"])
            for shape in (BELOW, ABOVE)]
    assert work[0] < RANK_THREAD_WORK <= work[1]


def counting_rank(monkeypatch) -> list:
    """Count the worker's rank calls; returns the list it appends to."""
    calls = []
    real = experiments._rank_off_thread

    def rank(targets, eps_rel):
        calls.append(targets.shape)
        return real(targets, eps_rel)

    monkeypatch.setattr(experiments, "_rank_off_thread", rank)
    return calls


@pytest.mark.parametrize("shape, threaded", [(BELOW, False), (ABOVE, True)])
def test_both_paths_give_the_inline_report(shape, threaded, monkeypatch):
    calls = counting_rank(monkeypatch)
    report = fit_matrix_experiment(**shape, **FIT)
    assert calls == ([(1, 256, 256)] if threaded else [])
    for entry in report.per_seed:
        target = make_fit_target(np.random.default_rng([entry["seed"], 0x7A]), shape["m"],
                                 shape["n"], FIT["target_rank"], FIT["density"])
        assert entry["target_rank"] == numerical_rank(target, 1e-9) == FIT["target_rank"]
        assert type(entry["target_rank"]) is int
    monkeypatch.setattr(experiments, "RANK_THREAD_WORK", math.inf)
    inline = fit_matrix_experiment(**shape, **FIT)
    assert calls == ([(1, 256, 256)] if threaded else [])
    got, want = report.to_dict(), inline.to_dict()
    got.pop("duration_s")
    want.pop("duration_s")
    assert got == want


def test_a_failing_rank_reaches_the_caller(monkeypatch):
    def rank(targets, eps_rel):
        raise RuntimeError("rank failed")

    monkeypatch.setattr(experiments, "_rank_off_thread", rank)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="rank failed"):
        fit_matrix_experiment(**ABOVE, **FIT)
    assert threading.active_count() == threads


def test_a_failing_fit_still_joins_the_worker(monkeypatch):
    started, release, finished = threading.Event(), threading.Event(), []
    real = experiments._rank_off_thread

    def rank(targets, eps_rel):
        started.set()
        release.wait(10)
        finished.append(True)
        return real(targets, eps_rel)

    def fit(*args, **kwargs):
        started.wait(10)
        release.set()  # the worker is still running when the fit raises
        raise RuntimeError("fit failed")

    monkeypatch.setattr(experiments, "_rank_off_thread", rank)
    monkeypatch.setattr(experiments, "_fit", fit)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="fit failed"):
        fit_matrix_experiment(**ABOVE, **FIT)
    assert finished == [True]
    assert threading.active_count() == threads


def test_threaded_ranks_record_no_span():
    tracer = load_tracing().Tracer()
    with tracer.installed():
        fit_matrix_experiment(**ABOVE, **FIT)
    assert tracer._stack == [-1]
    assert tracer.spans
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        assert -1 <= parent < i, name
        assert start <= end, name
    names = {span[0] for span in tracer.spans}
    assert "experiments.target.draw" in names
    assert "experiments.target.rank" not in names
