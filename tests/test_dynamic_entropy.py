import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import coverentropy as ce
from coverentropy import dynamic_entropy, measures, static_entropy

from conftest import H_THIRD, LOG2, LOG_GOLDEN


def test_subadditive_estimate_linear():
    est = ce.subadditive_estimate(lambda N: 0.7 * N, n_max=10)
    assert est.running_inf == pytest.approx(0.7)
    assert est.exactness == "exact_constant"
    assert est.stabilization_gap <= 1e-12


def test_subadditive_estimate_affine():
    est = ce.subadditive_estimate(lambda N: N + 1.0, n_max=10)
    assert est.running_inf == pytest.approx(1 + 1 / 10)
    assert est.exactness == "upper_bound_certified"
    assert est.increments[-1] == pytest.approx(1.0)


def test_subadditive_estimate_fibonacci_counts():
    fib = [1, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    est = ce.subadditive_estimate(lambda N: math.log(fib[N + 1]), n_max=20)
    assert abs(est.running_inf - LOG_GOLDEN) < 0.05


def test_subadditivity_violation_is_loud():
    with pytest.raises(ce.SubadditivityError, match=r"N=1, M=1"):
        ce.subadditive_estimate(lambda N: float(N * N), n_max=4)


def test_estimate_serialization_roundtrip():
    est = ce.subadditive_estimate(lambda N: 0.5 * N, n_max=4, quantity="demo")
    d = est.to_json_dict()
    assert d["quantity"] == "demo" and len(d["sequence"]) == 4
    rows = est.csv_rows()
    assert rows[0] == (1, 0.5, 0.5)


def test_entropy_rate_bernoulli(full2):
    for p in (0.5, 0.3):
        ber = ce.bernoulli(full2, [p, 1 - p])
        alpha = ce.cylinder_partition(full2, 1)
        X = ce.trivial_partition(full2, 1)
        est = ce.entropy_rate(ber, alpha, X, n_max=8)
        target = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert est.exactness == "exact_constant"
        assert est.running_inf == pytest.approx(target, abs=1e-9)


def test_entropy_rate_markov_increments(gm, parry):
    alpha = ce.cylinder_partition(gm, 1)
    X = ce.trivial_partition(gm, 1)
    est = ce.entropy_rate(parry, alpha, X, n_max=6)
    # Markov rate oracle: -sum pi_i P_ij log P_ij
    rate = 0.0
    for i in range(2):
        for j in range(2):
            p = parry.P[i, j]
            if p > 0:
                rate -= parry.pi[i] * p * math.log(p)
    assert rate == pytest.approx(LOG_GOLDEN, abs=1e-12)
    for inc in est.increments[1:]:
        assert inc == pytest.approx(rate, abs=1e-9)


def test_entropy_rate_on_permutation_system():
    sys = ce.permutation([1, 2, 3, 0])
    mu = ce.uniform_cycle_measure(sys)
    alpha = ce.family_of_points(sys, [[0, 1], [2, 3]], "partition")
    X = ce.trivial_partition(sys)
    est = ce.entropy_rate(mu, alpha, X, n_max=8)
    values = [e.value for e in est.entries]
    # joins stabilize once every point is separated, so a_N is constant and
    # a_N / N decreases to zero
    assert values[4] == pytest.approx(values[-1], abs=1e-12)
    assert est.running_inf == pytest.approx(values[-1] / 8, abs=1e-12)


def test_joined_cover_rate_on_partition_matches_entropy_rate(gm, parry):
    alpha = ce.cylinder_partition(gm, 1)
    X = ce.trivial_partition(gm, 1)
    a = ce.entropy_rate(parry, alpha, X, n_max=6)
    b = ce.joined_cover_rate(parry, alpha, X, n_max=6)
    for ea, eb in zip(a.entries, b.entries):
        assert ea.value == pytest.approx(eb.value, abs=1e-12)


def test_joined_cover_rate_zero_when_conditioner_refines(full2):
    ber = ce.bernoulli(full2, [0.5, 0.5])
    U = ce.family_of_words(full2, 1, [["0"], ["1"]], "cover")
    beta = ce.cylinder_partition(full2, 1)
    est = ce.joined_cover_rate(ber, U, beta, n_max=5)
    for e in est.entries:
        assert e.value == pytest.approx(0.0, abs=1e-15)


def test_joined_cover_rate_three_shift_certified_values(full3):
    # frozen from the exhaustive finer-partition oracle (N = 1, 2) and the
    # certified branch-and-bound (N = 3); strictly below the product value
    mu = ce.bernoulli(full3, [1 / 3, 1 / 3, 1 / 3])
    U = ce.family_of_words(full3, 1, [["0", "1"], ["1", "2"]], "cover")
    X = ce.trivial_partition(full3, 1)
    est = ce.joined_cover_rate(mu, U, X, n_max=3, ustar_budget=4096)
    expected = [0.6365141682948128, 1.2148896539491205, 1.7781162682105703]
    for e, val in zip(est.entries, expected):
        assert e.exact
        assert e.value == pytest.approx(val, abs=1e-9)
    assert est.certified_n_max == 3


def test_covering_rate_full_shift(full2):
    U = ce.cylinder_partition(full2, 1)
    X = ce.trivial_partition(full2, 1)
    est = ce.covering_rate(U, X, n_max=12)
    assert est.exactness == "exact_constant"
    assert est.running_inf == pytest.approx(LOG2, abs=1e-12)


def test_covering_rate_golden_mean(gm):
    U = ce.cylinder_partition(gm, 1)
    X = ce.trivial_partition(gm, 1)
    est = ce.covering_rate(U, X, n_max=15)
    assert abs(est.running_inf - LOG_GOLDEN) < 0.05


def test_covering_rate_zero_when_conditioner_refines(full2):
    U = ce.family_of_words(full2, 1, [["0"], ["1"]], "cover")
    beta = ce.cylinder_partition(full2, 1)
    est = ce.covering_rate(U, beta, n_max=6)
    assert est.exactness == "exact_constant"
    assert est.running_inf == 0.0


def test_rate_loop_makes_constant_lookups_per_window(full2, monkeypatch):
    """Each window of a rate loop is built from the one before: at most two
    offset lookups per window and family, where one-shot joins make N."""
    calls = []
    lookup = ce.systems.WordUniverse.indices_of_rows

    def counted(self, rows):
        calls.append(len(rows))
        return lookup(self, rows)

    monkeypatch.setattr(ce.systems.WordUniverse, "indices_of_rows", counted)
    n_max = 8
    est = ce.covering_rate(ce.cylinder_partition(full2, 1), ce.trivial_partition(full2, 1),
                           n_max=n_max)
    assert [e.value for e in est.entries] == pytest.approx(
        [N * LOG2 for N in range(1, n_max + 1)], abs=1e-12)
    assert len(calls) <= 2 * n_max * 2


def test_rate_loops_build_no_masks(full2, monkeypatch):
    """Rate loops read the labels of their joined partitions only; the
    masks are made when `elements` is first read."""
    built = []
    make = ce.bitsets.mask_from_indices
    cells = ce.cylinder_partition(full2, 8).elements  # before the spy: reading makes masks

    def counted(indices):
        built.append(1)
        return make(indices)

    monkeypatch.setattr(ce.bitsets, "mask_from_indices", counted)
    X = ce.trivial_partition(full2, 1)
    cyl = ce.cylinder_partition(full2, 1)
    ce.covering_rate(cyl, X, n_max=8)
    assert len(built) == 0
    cyl = ce.cylinder_partition(full2, 1)
    ce.joined_cover_rate(ce.bernoulli(full2, [0.3, 0.7]), cyl, X, n_max=8)
    assert len(built) == 0
    last, _ = dynamic_entropy._joined_pair(cyl, X, 8)
    assert last.elements == cells  # per-word cells
    assert len(built) == 2**8


def test_covering_rate_memory_scales_with_words(full2):
    """At window 16 a per-word partition has 65 536 cells; as masks they
    would take 65 536 x 65 536 bits."""
    tracemalloc.start()
    try:
        est = ce.covering_rate(ce.cylinder_partition(full2, 1), ce.trivial_partition(full2, 1),
                               n_max=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert [e.value for e in est.entries] == pytest.approx(
        [N * LOG2 for N in range(1, 17)], abs=1e-12)


def test_refining_partition_rate_on_partition(gm, parry):
    alpha = ce.cylinder_partition(gm, 1)
    X = ce.trivial_partition(gm, 1)
    res = ce.refining_partition_rate(parry, alpha, X, n_max=5)
    assert res.candidate_count == 1
    base = ce.entropy_rate(parry, alpha, X, n_max=5)
    assert res.value == pytest.approx(base.running_inf, abs=1e-12)


def test_refining_partition_rate_three_shift(full3):
    mu = ce.bernoulli(full3, [1 / 3, 1 / 3, 1 / 3])
    U = ce.family_of_words(full3, 1, [["0", "1"], ["1", "2"]], "cover")
    X = ce.trivial_partition(full3, 1)
    res = ce.refining_partition_rate(mu, U, X, n_max=6, window=1)
    assert res.candidate_count == 2
    assert res.value == pytest.approx(H_THIRD, abs=1e-9)
    res2 = ce.refining_partition_rate(mu, U, X, n_max=6, window=2)
    assert res2.value <= res.value + 1e-9  # wider window, finer class


def test_refining_partition_rate_budget_fallback(full3):
    mu = ce.bernoulli(full3, [1 / 3, 1 / 3, 1 / 3])
    U = ce.family_of_words(full3, 1, [["0", "1"], ["1", "2"]], "cover")
    X = ce.trivial_partition(full3, 1)
    res = ce.refining_partition_rate(mu, U, X, n_max=3, window=2, budget=3)
    assert res.used_ext_fallback
    assert res.candidate_count == 2  # d! orderings of the two elements


def test_truncated_estimates_are_flagged(full3, monkeypatch):
    mu = ce.bernoulli(full3, [1 / 3, 1 / 3, 1 / 3])
    U = ce.family_of_words(full3, 1, [["0", "1"], ["1", "2"]], "cover")
    X = ce.trivial_partition(full3, 1)
    # window 4 is one 16-element component: keep it from the subset DP, so
    # that the search meets the budget
    monkeypatch.setattr(static_entropy, "DP_MAX", 15)
    est = ce.joined_cover_rate(mu, U, X, n_max=4, node_budget=50)
    assert est.exactness == "truncated"
    assert est.certified_running_inf is not None
    assert est.certified_n_max < 4


@pytest.mark.parametrize("p, a4", [
    ((1 / 3, 1 / 3, 1 / 3), 2.3219882142337123),
    ((1 / 4, 1 / 2, 1 / 4), 1.9353780639910578),
])
def test_criterion7_window4_is_exact(full3, p, a4):
    # window 4 of criterion 7's cover is one 16-element component, which the
    # subset DP solves exactly; the values are the recorded upper bounds
    mu = ce.bernoulli(full3, list(p))
    U = ce.family_of_words(full3, 1, [["0", "1"], ["1", "2"]], "cover")
    X = ce.trivial_partition(full3, 1)
    est = ce.joined_cover_rate(mu, U, X, n_max=4, node_budget=20000)
    assert all(e.exact for e in est.entries)
    assert est.exactness == "upper_bound_certified"
    assert est.entries[3].value == pytest.approx(a4, abs=1e-9)


def test_criterion7_cover_under_the_1_cylinders_needs_no_search(full3):
    # each atom of the N-fold joined 1-cylinders is one word, so all the
    # elements that hold it merge into one: every a_N is exactly 0, and no
    # component reaches the search
    mu = ce.bernoulli(full3, [1 / 3, 1 / 3, 1 / 3])
    U = ce.family_of_words(full3, 1, [["0", "1"], ["1", "2"]], "cover")
    beta = ce.cylinder_partition(full3, 1)
    with mock.patch.object(static_entropy, "_minimize_component",
                           wraps=static_entropy._minimize_component) as search:
        est = ce.joined_cover_rate(mu, U, beta, n_max=7, node_budget=20000)
    assert search.call_count == 0
    assert all(e.exact and e.value == 0.0 for e in est.entries)


def test_power_identity_m1_is_identity(gm, parry):
    U = ce.cylinder_partition(gm, 1)
    X = ce.trivial_partition(gm, 1)
    rep = ce.power_identity_check(parry, U, X, M=1, n_max=3)
    assert rep.max_gap == 0.0 and rep.verdict == "holds_within_tol"


def test_power_identity_full_shift(full2):
    ber = ce.bernoulli(full2, [0.5, 0.5])
    U = ce.cylinder_partition(full2, 1)
    X = ce.trivial_partition(full2, 1)
    for M in (2, 3):
        rep = ce.power_identity_check(ber, U, X, M=M, n_max=3)
        assert rep.verdict == "holds_within_tol"
        for N, lhs, rhs in rep.pairs:
            assert lhs == pytest.approx(N * M * LOG2, abs=1e-9)


def test_power_identity_golden_mean(gm, parry):
    U = ce.cylinder_partition(gm, 1)
    X = ce.trivial_partition(gm, 1)
    for M in (2, 3):
        rep = ce.power_identity_check(parry, U, X, M=M, n_max=2)
        assert rep.max_gap <= 1e-9


def test_power_identity_overlapping_cover(gm, parry):
    U = ce.family_of_words(gm, 2, [["00", "01"], ["01", "10"]], "cover")
    beta = ce.cylinder_partition(gm, 1)
    rep = ce.power_identity_check(parry, U, beta, M=2, n_max=2)
    assert rep.max_gap <= 1e-9


def test_block_recode_bijection(gm):
    U = ce.cylinder_partition(gm, 1)
    rec = ce.block_recode(ce.dynamical_join(U, 0, 1), 2)
    assert rec.system == ce.power_system(gm, 2)
    assert rec.universe_size == len(ce.admissible_words(gm, 2))
