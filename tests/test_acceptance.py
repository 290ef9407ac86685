"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line with the measured quantities.

Criterion 7 is implemented exactly as stated and is expected to fail: its
target constant assumes the product partition minimizes the joined covers,
which the exhaustive finer-partition oracle refutes (the per-window minimum
drops strictly below the product value from window 2 on).  See the decisions
ledger for the verification; the machinery's actual values are certified and
reported in the failure message.
"""

import time

import pytest

from coverentropy import verify

ACCEPT = "ACCEPTANCE {:>2} {}: {}"


def _report(num, result, budget=None, elapsed=None):
    status = "PASS" if result.passed else "FAIL"
    extra = f" [{elapsed:.1f}s <= {budget}s]" if budget else ""
    print(ACCEPT.format(num, status, result.detail + extra))
    return result


def _run_counted(num, name, count, budget_s, seed=42):
    spec = next(p for p in verify.PROPERTIES if p.name == name)
    t0 = time.time()
    res = verify.run_property(spec, seed=seed, count=count)
    elapsed = time.time() - t0
    res.detail = f"{name} on {count} instances"
    _report(num, res, budget_s, elapsed)
    assert res.passed, res.counterexample
    assert elapsed <= budget_s


def test_criterion_01_static_route_equality():
    _run_counted(1, "static.route_equality", 1000, 30)


def test_criterion_02_static_axioms():
    t0 = time.time()
    for name in ("static.counting_axioms", "static.entropy_axioms"):
        spec = next(p for p in verify.PROPERTIES if p.name == name)
        res = verify.run_property(spec, seed=42, count=1000)
        assert res.passed, res.counterexample
    elapsed = time.time() - t0
    print(ACCEPT.format(2, "PASS",
                        f"counting + entropy axioms, 1000 each [{elapsed:.1f}s <= 60s]"))
    assert elapsed <= 60


def test_criterion_03_counting_exactness():
    _run_counted(3, "static.counting_exactness", 500, 30)


def test_criterion_04_full_shift_generator():
    res = _report(4, verify.scenario_full_shift_generator())
    assert res.passed, res.detail


def test_criterion_05_golden_mean_rates():
    res = _report(5, verify.scenario_golden_mean_rates())
    assert res.passed, res.detail


@pytest.mark.slow
def test_criterion_06_variational_principle():
    t0 = time.time()
    res = verify.scenario_variational_principle()
    elapsed = time.time() - t0
    _report(6, res, 300, elapsed)
    assert res.passed, res.detail
    assert elapsed <= 300


@pytest.mark.slow
def test_criterion_07_plus_minus_bracket():
    res = _report(7, verify.scenario_plus_minus_bracket())
    assert res.passed, (
        res.detail
        + " -- expected failure: the criterion's target constant contradicts "
        "its own route-C oracle (see decisions ledger)"
    )


def test_criterion_08_factor_invariance():
    res = _report(8, verify.scenario_factor_invariance())
    assert res.passed, res.detail


def test_criterion_09_power_identity():
    res = _report(9, verify.scenario_power_identity())
    assert res.passed, res.detail


def test_criterion_10_ergodic_additivity():
    res = _report(10, verify.scenario_ergodic_additivity())
    assert res.passed, res.detail


def test_criterion_11_minmax_bound():
    res = _report(11, verify.scenario_minmax())
    assert res.passed, res.detail


def test_criterion_12_concavity():
    spec = next(
        p for p in verify.PROPERTIES if p.name == "static.concavity_in_measure"
    )
    t0 = time.time()
    res = verify.run_property(spec, seed=42, count=500)
    elapsed = time.time() - t0
    res.detail = "concavity of conditional entropy in the measure, 500 triples"
    _report(12, res, 60, elapsed)
    assert res.passed, res.counterexample
