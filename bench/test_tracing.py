"""Self-test of the span and self-time arithmetic.

Run with ``python3 -m pytest bench/test_tracing.py``.
"""

import sys
import types
from pathlib import Path

import pytest

from tracing import Span, Tracer, patched, self_times, totals


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, "run")


class FakeClock:
    """Advances by one tick per reading, so span bounds are predictable."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_nested_spans_record_parents_and_run_id():
    tracer = Tracer("r1", clock=FakeClock())
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert {s.run_id for s in tracer.spans} == {"r1"}
    # outer opens at t=1, inner spans t=2..3, outer closes at t=4
    assert (by_name["outer"].start, by_name["outer"].end) == (1.0, 4.0)
    assert (by_name["inner"].start, by_name["inner"].end) == (2.0, 3.0)
    assert self_times(tracer.spans)[by_name["outer"].id] == 2.0


def test_span_closes_when_the_call_raises():
    tracer = Tracer("r", clock=FakeClock())

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    after = tracer.wrap("after", lambda: None)
    after()
    assert [s.name for s in tracer.spans] == ["boom", "after"]
    assert tracer.spans[1].parent is None


def test_after_hook_sees_result_and_runs_outside_the_span():
    tracer = Tracer("r", clock=FakeClock())
    seen = []

    def hook(tr, result, args, kwargs):
        tr.count("items", result)
        seen.append((args, kwargs))

    assert tracer.wrap("f", lambda a, b=0: a + b, after=hook)(2, b=3) == 5
    assert tracer.counters["items"] == 5
    assert seen == [((2,), {"b": 3})]


def test_self_time_subtracts_sibling_children():
    spans = [_span(0, "a", 0.0, 10.0), _span(1, "b", 1.0, 3.0, 0),
             _span(2, "b", 5.0, 9.0, 0)]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 4.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [_span(0, "a", 0.0, 10.0), _span(1, "b", 2.0, 6.0, 0),
             _span(2, "c", 4.0, 8.0, 0), _span(3, "d", 9.0, 12.0, 0)]
    # union of children inside [0, 10] is [2, 8] plus [9, 10]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_ignores_grandchildren():
    spans = [_span(0, "a", 0.0, 10.0), _span(1, "b", 2.0, 8.0, 0),
             _span(2, "c", 3.0, 5.0, 1)]
    assert self_times(spans) == {0: 4.0, 1: 4.0, 2: 2.0}


def test_totals_sum_self_time_per_name():
    spans = [_span(0, "a", 0.0, 10.0), _span(1, "b", 1.0, 3.0, 0),
             _span(2, "b", 5.0, 9.0, 0), _span(3, "a", 20.0, 21.0)]
    calls, self_s = totals(spans)
    assert calls == {"a": 2, "b": 2}
    assert self_s == {"a": 5.0, "b": 6.0}


def test_patched_restores_attributes_after_an_error():
    owner = types.SimpleNamespace(f=1, g=2)
    with pytest.raises(RuntimeError):
        with patched([(owner, "f", 10), (owner, "g", 20)]):
            assert (owner.f, owner.g) == (10, 20)
            raise RuntimeError
    assert (owner.f, owner.g) == (1, 2)


def test_work_time_sums_each_unit_calls_median_repetition():
    from run import Rep, work_time
    reps = [Rep(wall=10.0, results=[], units=[2.0, 5.0]),
            Rep(wall=9.0, results=[], units=[3.0, 4.0]),
            Rep(wall=12.0, results=[], units=[9.0, 1.0])]
    # unit medians 3 + 4, plus the median time outside them: (3, 2, 2) -> 2
    assert work_time(reps) == 9.0
    uneven = reps + [Rep(wall=8.5, results=[], units=[1.0])]
    assert work_time(uneven) == 9.5


def test_traced_layers_return_identical_results_and_count_work():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import layers
    from abchmm import models, sampling, smc
    from abchmm.models import PerturbationSpec

    original = smc.smc_abc_likelihood
    model = models.builtin_model("finite_gaussian")
    data = sampling.simulate(model, [0.8], 20, seed=3)
    pert = PerturbationSpec(epsilon=2.0)
    plain = smc.smc_abc_likelihood(model, [0.8], data, pert, 50, seed=4)
    tracer = Tracer("r")
    with patched(layers.replacements(tracer)):
        traced_model = models.builtin_model("finite_gaussian")
        traced = smc.smc_abc_likelihood(traced_model, [0.8], data, pert, 50,
                                        seed=4)
    assert smc.smc_abc_likelihood is original
    assert not plain.collapsed
    assert traced.log_value == plain.log_value
    got = layers.metrics(tracer)
    assert got["smc.smc_abc_likelihood.calls"] == 1
    assert got["models.obs_sampler.calls"] == 20
    assert got["kernels.within_ball.calls"] == 20
    assert got["smc.particle_steps"] == 20 * 50
    assert got["smc.acceptance_mean"] == pytest.approx(
        plain.step_acceptance.mean())
