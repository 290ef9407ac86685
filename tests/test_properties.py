"""Spin every randomized property a modest number of times, plus the
mutation regressions: an off-by-one covering number must be caught by the
counting-axioms suite within a small number of instances, and a route
disagreement inside the partition formula must fail the properties that
reach it instead of reading as "property holds"."""

import numpy as np
import pytest

from coverentropy import static_entropy, verify


@pytest.mark.parametrize("spec", verify.PROPERTIES, ids=lambda s: s.name)
def test_property_holds(spec):
    res = verify.run_property(spec, seed=1234, count=25)
    assert res.passed, res.counterexample


def test_property_runs_are_deterministic():
    spec = verify.PROPERTIES[0]
    a = verify.run_property(spec, seed=7, count=10)
    b = verify.run_property(spec, seed=7, count=10)
    assert (a.passed, a.tested) == (b.passed, b.tested)


def test_tampered_counting_is_caught(monkeypatch):
    real = static_entropy.covering_number

    def off_by_one(U, beta):
        return real(U, beta) + 1

    monkeypatch.setattr(static_entropy, "covering_number", off_by_one)
    spec = next(p for p in verify.PROPERTIES if p.name == "static.counting_axioms")
    res = verify.run_property(spec, seed=42, count=100)
    assert not res.passed
    assert res.counterexample is not None
    assert len(res.counterexample["perm"]) <= 8  # shrunk to desk size


def test_route_disagreement_is_caught(monkeypatch):
    def disagree(*args):
        raise static_entropy.RouteDisagreement("tampered partition formula")

    monkeypatch.setattr(static_entropy, "_partition_entropy", disagree)
    for name in ("static.entropy_axioms", "static.concavity_in_measure"):
        spec = next(p for p in verify.PROPERTIES if p.name == name)
        res = verify.run_property(spec, seed=42, count=20)
        assert not res.passed, name
        assert "RouteDisagreement" in res.counterexample["error"]


def test_an_escaping_error_fails_the_property_and_the_suite(monkeypatch, capsys):
    # dynamic.rate_below_counting calls the library outside `_counterexample`,
    # and a scenario calls it directly: the error must fail both, and the
    # suite must return 1, not raise
    def disagree(*args):
        raise static_entropy.RouteDisagreement("tampered partition formula")

    monkeypatch.setattr(static_entropy, "_partition_entropy", disagree)
    spec = next(p for p in verify.PROPERTIES if p.name == "dynamic.rate_below_counting")
    res = verify.run_property(spec, seed=42, count=5)
    assert not res.passed
    assert res.counterexample == {
        "error": "RouteDisagreement: tampered partition formula"
    }
    monkeypatch.setattr(verify, "PROPERTIES", [spec])
    monkeypatch.setattr(verify, "SCENARIOS", [verify.scenario_full_shift_generator])
    assert verify.verify_suite("fast", 42) == 1
    out = capsys.readouterr().out
    assert "FAIL  dynamic.rate_below_counting" in out
    assert "FAIL  full_shift_generator  RouteDisagreement" in out
