"""The best-of-everything estimator on synthetic samples."""

from perfbench.harness import (best_rep, end_to_end, reps_for, spread,
                               verdict)


def _workers(walls, setups=None):
    """Workers with the given timed repetitions (and a warm-up)."""
    return [{"reps": [{"wall_s": 9.0, "work": 10}] + [
                {"wall_s": wall, "work": 10, "cpu_s": wall}
                for wall in reps],
             "setup_s": (setups or [3.0] * len(walls))[number],
             "peak_rss_mb": 80.0 + number}
            for number, reps in enumerate(walls)]


def test_one_slow_repetition_and_one_slow_worker_do_not_move_the_score():
    steady = [[2.00, 2.01, 2.02], [2.01, 2.00, 2.03], [2.02, 2.01, 2.00]]
    # One repetition disturbed, and a whole process 12 % slow, as fresh
    # processes on this host can be.
    noisy = [[2.00, 2.61, 2.02], [2.24, 2.25, 2.27], [2.02, 2.01, 2.00]]
    assert best_rep(_workers(noisy))["wall_s"] == 2.00 \
        == best_rep(_workers(steady))["wall_s"]


def test_the_warm_up_is_never_the_score():
    workers = _workers([[2.0, 2.1]])
    workers[0]["reps"][0]["wall_s"] = 1.0
    assert best_rep(workers)["wall_s"] == 2.0


def test_end_to_end_metrics():
    values = end_to_end(_workers([[2.0, 2.5], [2.2, 2.3], [2.1, 2.4]],
                                 setups=[3.0, 9.0, 3.2]))
    assert values == {"setup_s": 3.2, "wall_s": 2.0, "work_per_s": 5.0,
                      "peak_rss_mb": 82.0}


def test_spread():
    assert spread([2.0]) == 0.0
    assert spread([2.0, 2.2, 2.1]) == (2.2 - 2.0) / 2.0


def test_repetitions_scale_with_seconds():
    assert reps_for("sessions", 16) == 4
    assert reps_for("sessions", 8) == 2
    assert reps_for("fault_campaign", 1) == 1


def _worker(digest, problems=()):
    rep = {"ops": [["op", list(problems)]], "digest": digest}
    return {"reps": [rep, dict(rep)]}


def test_verdict_counts_operations_and_the_determinism_check():
    assert verdict([_worker({"a": 1}), _worker({"a": 1})]) == (5, 0, [])


def test_verdict_fails_on_a_problem_and_on_differing_digests():
    attempted, failed, problems = verdict(
        [_worker({"a": 1}, ["lost"]), _worker({"a": 2})])
    assert (attempted, failed) == (5, 3)
    assert any("determinism" in p for p in problems)
