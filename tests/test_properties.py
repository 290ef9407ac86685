"""Spin every randomized property a modest number of times, plus the
mutation regressions: an off-by-one covering number must be caught by the
counting-axioms suite within a small number of instances, and a route
disagreement inside the partition formula must fail the properties that
reach it instead of reading as "property holds"."""

import copy
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from coverentropy import static_entropy, systems, verify


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


def test_shrunk_concavity_counterexample_keeps_its_measures(monkeypatch):
    # conditional entropy made convex in the measure fails concavity wherever
    # the two measures differ; each dropped point must leave the instance its
    # own second measure and mixing weight, one weight per surviving cycle
    real = static_entropy.conditional_entropy
    monkeypatch.setattr(static_entropy, "conditional_entropy",
                        lambda mu, a, b: SimpleNamespace(nats=-real(mu, a, b).nats))
    drawn, shrink = [], verify.shrink_point_instance

    def spy(inst, still_fails):
        drawn.append(copy.deepcopy(inst))
        return shrink(inst, still_fails)

    monkeypatch.setattr(verify, "shrink_point_instance", spy)
    spec = next(p for p in verify.PROPERTIES if p.name == "static.concavity_in_measure")
    res = verify.run_property(spec, seed=42, count=20)
    ce = res.counterexample
    assert not res.passed and "error" not in ce
    assert len(ce["perm"]) < len(drawn[0]["perm"])  # points were dropped
    n_cycles = len(systems.cycles_of(ce["perm"]))
    assert len(ce["cycle_weights"]) == len(ce["cycle_weights_2"]) == n_cycles
    assert ce["t"] == drawn[0]["t"]
    assert verify._concavity_check(ce, *verify.build_point_instance(ce))


def test_dropping_a_fixed_point_drops_its_own_weights():
    inst = {"perm": [0, 2, 1], "cycle_weights": [8, 1], "cycle_weights_2": [8, 3],
            "t": 0.25, "covers": [[[0, 2], [0, 1], [1]]],
            "partitions": [[[2], [0, 1]], [[0, 1], [2]]]}
    assert verify._drop_point(inst, 0) == {
        "perm": [1, 0], "cycle_weights": [1], "cycle_weights_2": [3], "t": 0.25,
        "covers": [[[1], [0], [0]]], "partitions": [[[1], [0]], [[0], [1]]]}
    # point 0 leaves the cycle (0 2 1), which now starts at 1 and follows
    # the fixed point 0 (formerly 3): the weights follow their cycles
    inst = {"perm": [2, 0, 1, 3], "cycle_weights": [5, 7], "covers": [[[0, 1, 2, 3]]],
            "partitions": [[[0, 1, 2, 3]], [[0, 1, 2, 3]]]}
    assert verify._drop_point(inst, 0)["cycle_weights"] == [5, 7]
    assert verify._drop_point(inst, 3)["cycle_weights"] == [5]


def _fail_one_instance(monkeypatch, spec, seed, place):
    """Make route B raise on the carrier weights of the instance at `place`
    in the stream, and on no instance before it."""
    rng = np.random.default_rng(seed)
    weights = [verify.build_point_instance(spec.run.draw(rng))[1].point_weights
               for _ in range(place + 1)]
    assert [np.array_equal(w, weights[-1]) for w in weights].count(True) == 1
    real = static_entropy._partition_entropy

    def disagree(wp, *args):
        if np.array_equal(wp, weights[-1]):
            raise static_entropy.RouteDisagreement("tampered route B")
        return real(wp, *args)

    monkeypatch.setattr(static_entropy, "_partition_entropy", disagree)


@pytest.mark.parametrize("tamper", ["none", "covering_number", "one_solve"])
@pytest.mark.parametrize("name", ["static.route_equality", "static.entropy_axioms"])
def test_property_block_size_changes_no_result(monkeypatch, name, tamper):
    spec = next(p for p in verify.PROPERTIES if p.name == name)
    if tamper == "covering_number":
        monkeypatch.setattr(static_entropy, "covering_number", lambda U, beta: 1)
    elif tamper == "one_solve":  # the 7th instance, inside the first block
        _fail_one_instance(monkeypatch, spec, 42, 6)
    results = []
    for block in (1, verify.PROPERTY_BLOCK):
        monkeypatch.setattr(verify, "PROPERTY_BLOCK", block)
        results.append(verify.run_property(spec, seed=42, count=40))
    assert results[0] == results[1]
    if tamper == "one_solve":
        assert results[1].tested == 7
        assert results[1].counterexample["error"] == "RouteDisagreement: tampered route B"
    elif tamper == "covering_number" and name == "static.entropy_axioms":
        assert not results[1].passed
    else:
        assert (results[1].passed, results[1].tested) == (True, 40)


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
