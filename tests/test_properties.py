"""Spin every randomized property a modest number of times, plus the
mutation regressions: an off-by-one covering number must be caught by the
counting-axioms suite within a small number of instances, and a route
disagreement inside the partition formula must fail the properties that
reach it instead of reading as "property holds"."""

import hashlib
import json

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


# SHA-256 over the instances each point-carrier property draws at seed 42,
# 200 each, as sorted-key JSON lines: a change to `rand_point_instance` or to
# a property's own draws that alters which instances run shows up here
INSTANCE_DIGESTS = {
    "static.route_equality":
        "4d86ec87dadb09f37b281fb10c9bb097aab951808c0afb87098e4f3d27c23a30",
    "static.counting_axioms":
        "995add0bedf29496d99764f5218ea83bee4fa113087c9763976f4055b57decc6",
    "static.entropy_axioms":
        "995add0bedf29496d99764f5218ea83bee4fa113087c9763976f4055b57decc6",
    "static.counting_exactness":
        "c5a553d3d2c692c6e309c5d9cb3393346131454836320654ad83b46c483e762a",
    "static.concavity_in_measure":
        "0270369afe044d7bff34baccec1287882c525fad5b36b4d13aba25f6f6ce21ab",
    "static.nested_atom_entropy":
        "4d86ec87dadb09f37b281fb10c9bb097aab951808c0afb87098e4f3d27c23a30",
    "families.ext_ustar_refinement":
        "4d86ec87dadb09f37b281fb10c9bb097aab951808c0afb87098e4f3d27c23a30",
    "families.delta_pseudometric":
        "f7c423195452053aaecd28246c72f1c398a07908c79d72fa3a642a1693b1be19",
    "measures.decompose_mix_roundtrip":
        "4d86ec87dadb09f37b281fb10c9bb097aab951808c0afb87098e4f3d27c23a30",
}


@pytest.mark.parametrize("name", INSTANCE_DIGESTS)
def test_point_property_instance_streams_are_pinned(monkeypatch, name):
    drawn = []
    monkeypatch.setattr(verify, "_counterexample",
                        lambda inst, check: drawn.append(json.dumps(inst, sort_keys=True)))
    spec = next(p for p in verify.PROPERTIES if p.name == name)
    rng = np.random.default_rng(42)
    for _ in range(200):
        spec.run(rng)
    digest = hashlib.sha256("\n".join(drawn).encode()).hexdigest()
    assert digest == INSTANCE_DIGESTS[name]


def test_capped_instance_stream_is_pinned():
    # a finer-partition cap of 16 redraws most covers, so the rejection loop's
    # draws are pinned too (recorded like INSTANCE_DIGESTS)
    rng = np.random.default_rng(42)
    drawn = [json.dumps(verify.rand_point_instance(rng, ustar_cap=16), sort_keys=True)
             for _ in range(200)]
    digest = hashlib.sha256("\n".join(drawn).encode()).hexdigest()
    assert digest == "df87f62000e1718cae4c035d8b1c68818c9cd232266ec5b456d6a68da2bfc14f"
