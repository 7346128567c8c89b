import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import harness
from poromech.solver import SolverError


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), q=st.sampled_from(harness.PERCENTILES),
       seed=st.integers(0, 2**32 - 1))
def test_samples_beyond_matches_numpy(n, q, seed):
    values = np.random.default_rng(seed).permutation(n).astype(float)
    beyond = int((values > np.percentile(values, q)).sum())
    assert harness.samples_beyond(n, q) == beyond
    assert harness.percentile(values, q) == np.percentile(values, q)


def test_tail_percentile_is_highest_with_ten_beyond():
    assert harness.tail_percentile(19) is None
    assert harness.tail_percentile(20) == 50.0
    assert harness.tail_percentile(91) == 75.0
    assert harness.tail_percentile(92) == 90.0
    assert harness.tail_percentile(199) == 95.0
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(10000) == 99.9
    for n in range(20, 3000, 7):
        q = harness.tail_percentile(n)
        assert harness.samples_beyond(n, q) >= harness.TAIL_SAMPLES
        higher = [p for p in harness.PERCENTILES if p > q]
        assert all(harness.samples_beyond(n, p) < harness.TAIL_SAMPLES
                   for p in higher)


def test_stop_rule_needs_time_setups_and_tail():
    ep = harness.Episode(step_ms=[1.0] * 40)
    three = [1.0] * harness.MIN_SETUPS
    assert not harness.enough([ep] * 3, three[:-1], 100.0, 10.0)  # set-ups
    assert not harness.enough([ep] * 3, three, 5.0, 10.0)     # time left
    assert harness.enough([ep] * 3, three, 10.0, 10.0)        # 120 steps
    short = harness.Episode(step_ms=[1.0] * 30)
    assert not harness.enough([short] * 3, three, 10.0, 10.0)  # 90 steps
    assert harness.enough([short], [], harness.MAX_SECONDS, 10.0)


class _System:
    def __init__(self, fail_at=None):
        self.fail_at, self.calls, self.last_report = fail_at, 0, None

    def step(self, state):
        self.calls += 1
        if self.calls == self.fail_at:
            raise SolverError("no convergence")
        return state + 1


class _Sim:
    def __init__(self, system, steps, checks):
        self.system, self.state, self.steps = system, 0, steps
        self._checks = checks

    def begin(self):
        pass

    def observe(self, n):
        assert self.state == n

    def checks(self):
        return self._checks

    def err_rel(self):
        return 0.5


def test_failed_check_counts():
    ep = harness.run_episode(
        lambda seed: _Sim(_System(), 5, {"a": True, "b": np.False_}), 0)
    assert (ep.attempted, ep.failed) == (5 + 2, 1)
    assert ep.checks == {"a": True, "b": False}
    assert len(ep.step_ms) == 5 and ep.err_rel == 0.5


def test_solver_error_ends_episode_as_one_failure():
    ep = harness.run_episode(
        lambda seed: _Sim(_System(fail_at=3), 5, {"a": True}), 0)
    assert ep.steps_attempted == 3 and ep.steps_failed == 1
    assert ep.checks == {} and ep.err_rel is None
    assert (ep.attempted, ep.failed) == (3, 1)
    assert len(ep.step_ms) == 2


def test_end_to_end_reports_every_bounded_metric():
    eps = [harness.Episode(setup_s=s, run_s=2 * s, step_ms=[1.0, 2.0, 3.0],
                           err_rel=0.1) for s in (1.0, 3.0, 2.0)]
    setups = [1.0, 3.0, 2.0, 4.0, 5.0]
    m = harness.end_to_end(eps, setups, peak_rss_mb=50.0)
    assert list(m) == ["setup_s", "step_ms_p90", "peak_rss_mb", "err_rel"]
    assert m["setup_s"] == {"value": np.percentile(setups, 90), "unit": "s"}
    assert m["step_ms_p90"]["value"] == np.percentile([1, 2, 3] * 3, 90)
    assert m["err_rel"]["value"] == 0.1


def test_measure_adds_bare_setups_while_setup_share_is_low():
    class Slow(_System):
        def step(self, state):
            time.sleep(0.002)
            return super().step(state)

    def setup(seed):
        time.sleep(0.01)
        return _Sim(Slow(), 30, {"a": True})

    # Steps take ~0.06 s of each episode and set-up 0.01 s, so bare
    # set-ups fill the run up to SETUP_SHARE.
    episodes, setups = harness.measure(setup, 0, 0.5)
    assert len(setups) > 2 * len(episodes) >= 8
    assert sum(len(ep.step_ms) for ep in episodes) >= 92
    assert all(ep.sim is None for ep in episodes)
