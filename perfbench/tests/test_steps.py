"""Host normalization of timed steps (harness.Steps), with a fake probe
whose slowdown factors are set by the test."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402


class FakeProbe:
    """Reports the next factor from a list at each sample."""

    def __init__(self, factors):
        self.factors = list(factors)
        self.chunks = 0

    def sample(self, n):
        self.chunks += n

    def take_factor(self):
        self.chunks = 0
        return self.factors.pop(0)


def _run_pass(steps, elapsed):
    steps.new_pass()
    for key, t in elapsed:
        steps._done(key, t)
    steps.end_pass()


def test_steps_are_divided_by_the_factors_around_them():
    # samples: opening 2, after step a 2, after step b 4
    steps = harness.Steps(FakeProbe([2.0, 2.0, 4.0]), every=1, chunks=5)
    _run_pass(steps, [("a", 1.0), ("b", 3.0)])
    assert steps.times == {"a": [0.5], "b": [1.0]}
    assert steps.factors == [pytest.approx(8.0 / 3.0)]


def test_window_widens_the_average():
    steps = harness.Steps(FakeProbe([1.0, 3.0, 5.0]), every=1, window=1)
    _run_pass(steps, [("a", 3.0), ("b", 3.0)])
    assert steps.times == {"a": [1.0], "b": [1.0]}


def test_solve_sums_per_step_medians_and_p50_weights_modes():
    steps = harness.Steps()
    for a, b in ((1.0, 5.0), (2.0, 4.0), (9.0, 6.0)):
        steps.new_pass()
        steps._done("a", a)
        steps._done("b", b)
        steps.request(["a"], 3)
        steps.request(["b"], 1)
        steps.end_pass()
    assert steps.solve_s() == pytest.approx(2.0 + 5.0)
    assert steps.latency_p50() == pytest.approx(2.0)
    assert steps.modes == [4, 4, 4]
