import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import coverentropy as ce
from coverentropy import measures, static_entropy, systems


def test_stationary_examples():
    assert ce.stationary_of([[1.0]]) == pytest.approx([1.0])
    pi = ce.stationary_of([[0.9, 0.1], [0.5, 0.5]])
    assert pi == pytest.approx([5 / 6, 1 / 6], abs=1e-12)
    assert ce.stationary_of([[0, 1], [1, 0]]) == pytest.approx([0.5, 0.5])


def test_stationary_refuses_reducible():
    with pytest.raises(ce.ReducibleChainError) as exc:
        ce.stationary_of([[1, 0], [0, 1]])
    assert len(exc.value.classes) == 2


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_recurrent_classes_match_reachability(data):
    # brute force: i is recurrent iff it returns to itself and every state it
    # reaches leads back to it; its class is then the set of states it reaches
    k = data.draw(st.one_of(st.integers(1, 7), st.integers(8, 12)))
    raw = data.draw(
        hnp.arrays(float, (k, k), elements=st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0]))
    )
    P = raw / np.maximum(raw.sum(axis=1, keepdims=True), 1.0)  # rows sum to <= 1
    A = (P > 0).astype(int)
    reach = A > 0  # paths of one or more edges
    for _ in range(k):
        reach |= (reach @ A) > 0
    expected = sorted(
        {
            tuple(np.flatnonzero(reach[i]).tolist())
            for i in range(k)
            if reach[i, i] and reach[reach[i], i].all()
        }
    )
    assert measures.recurrent_classes(P) == [list(c) for c in expected]


def test_stationary_rejects_bad_rows():
    with pytest.raises(measures.MeasureError):
        ce.stationary_of([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(measures.MeasureError):
        ce.stationary_of([[-0.1, 1.1], [0.5, 0.5]])


def test_cylinder_mass_examples(full2):
    ber = ce.bernoulli(full2, [0.5, 0.5])
    assert ce.cylinder_mass(ber, (0, 1)) == pytest.approx(0.25)
    mu = ce.markov(full2, [[0.9, 0.1], [0.5, 0.5]])
    assert ce.cylinder_mass(mu, (0, 1, 0)) == pytest.approx(5 / 6 * 0.1 * 0.5)
    w1 = measures.weights_for(mu, full2, 1)
    assert w1.sum() == pytest.approx(1.0, abs=1e-12)


def test_cylinder_mass_rejects_inadmissible(gm, parry):
    with pytest.raises(systems.SystemError):
        ce.cylinder_mass(parry, (1, 1))


def test_parry_stationarity(parry):
    golden = (1 + math.sqrt(5)) / 2
    assert parry.pi == pytest.approx(
        [golden**2 / (1 + golden**2), 1 / (1 + golden**2)], abs=1e-12
    )


def test_markov_requires_allowed_support(gm):
    with pytest.raises(measures.MeasureError):
        ce.markov(gm, [[0.5, 0.5], [0.5, 0.5]])  # 1->1 is forbidden


def test_condition_on_uniform(full2):
    ber = ce.bernoulli(full2, [0.5, 0.5])
    cond = ce.condition_on(ber, 0b0011, full2, 2)  # {00, 01}
    assert cond.base_mass == pytest.approx(0.5)
    assert cond.weights[:2] == pytest.approx([0.5, 0.5])
    assert not cond.is_zero


def test_condition_on_null_atom(gm, parry):
    # the 11-cylinder does not exist; take a positive-measure system instead
    mu = ce.markov(gm, [[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
    cond = ce.condition_on(mu, 0b10, gm, 1)  # letter 1 has mass 0
    assert cond.is_zero and cond.base_mass == 0.0


def test_condition_on_parry_atoms(gm, parry):
    uni = systems.word_universe(gm, 2)
    mask = (1 << uni.index_of((1, 0))) | (1 << uni.index_of((0, 0)))
    cond = ce.condition_on(parry, mask, gm, 2)
    m00 = ce.cylinder_mass(parry, (0, 0))
    m10 = ce.cylinder_mass(parry, (1, 0))
    assert cond.base_mass == pytest.approx(m00 + m10)
    assert cond.weights[uni.index_of((0, 0))] == pytest.approx(m00 / (m00 + m10))


def test_ergodic_decompose_ergodic_is_single(parry):
    comps = ce.ergodic_decompose(parry)
    assert len(comps) == 1 and comps[0].weight == pytest.approx(1.0)


def test_ergodic_decompose_block_chain():
    blk = ce.sft([[1, 0], [0, 1]])
    mu = measures.InvariantMeasure(
        measures.MARKOV,
        blk,
        pi=np.array([0.3, 0.7]),
        P=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    comps = ce.ergodic_decompose(mu)
    assert [round(c.weight, 12) for c in comps] == [0.3, 0.7]
    back = ce.mix(comps)
    assert np.allclose(back.pi, mu.pi, atol=1e-12)


def test_ergodic_decompose_permutation_cycles():
    sys = ce.permutation([1, 0, 3, 4, 2])  # (ab)(cde)
    mu = ce.uniform_cycle_measure(sys)
    comps = ce.ergodic_decompose(mu)
    assert [round(c.weight, 12) for c in comps] == [0.4, 0.6]
    for c in comps:
        support = c.measure.point_weights[c.measure.point_weights > 0]
        assert np.allclose(support, support[0])


def test_mix_roundtrip_permutation():
    sys = ce.permutation([1, 0, 3, 4, 2])
    mu = ce.cycle_measure(sys, [0.25, 0.75])
    comps = ce.ergodic_decompose(mu)
    back = ce.mix(comps)
    assert np.allclose(back.point_weights, mu.point_weights, atol=1e-15)


def test_mix_validates_weights(parry):
    with pytest.raises(measures.MeasureError):
        ce.mix([measures.ErgodicComponent(0.5, parry)])


def test_mix_rejects_overlapping_supports(parry):
    with pytest.raises(measures.MeasureError):
        ce.mix(
            [measures.ErgodicComponent(0.5, parry),
             measures.ErgodicComponent(0.5, parry)]
        )


def test_transient_mass_is_asserted():
    sys = ce.sft([[1, 1], [0, 1]])
    with pytest.raises(measures.MeasureError):
        mu = measures.InvariantMeasure(
            measures.MARKOV,
            sys,
            pi=np.array([0.2, 0.8]),
            P=np.array([[0.5, 0.5], [0.0, 1.0]]),
        )
        ce.ergodic_decompose(mu)


def test_shift_invariance_of_masses(gm, parry):
    uni = systems.word_universe(gm, 2)
    mask = (1 << uni.index_of((0, 1))) | (1 << uni.index_of((0, 0)))
    fam = ce.SetFamily(gm, 2, "cover", (mask, (1 << uni.count) - 1))
    shifted = ce.view_in_window(fam, 1, 3)
    m0 = measures.set_mass(parry, gm, 2, mask)
    m1 = measures.set_mass(parry, gm, 3, shifted.elements[0])
    assert m0 == pytest.approx(m1, abs=1e-14)


def test_power_measure_transfers_weights(gm, parry):
    for M in (2, 3):
        mu_pow = ce.power_measure(parry, M)
        for n in (1, 2):
            a = measures.weights_for(mu_pow, mu_pow.system, n)
            b = measures.weights_for(parry, gm, n * M)
            assert np.allclose(a, b, atol=1e-14)


def _power_transition_by_loops(mu, M):
    """Reference: each allowed block pair's probability, multiplied letter
    by letter in a Python loop."""
    pow_sys = systems.power_system(mu.system, M)
    arr = systems.word_universe(mu.system, M).array.astype(np.int64)
    n = len(arr)
    P = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if not pow_sys.transition[i][j]:
                continue
            p = float(mu.P[arr[i, -1], arr[j, 0]])
            for a, b in zip(arr[j, :-1], arr[j, 1:]):
                p *= float(mu.P[a, b])
            P[i, j] = p
    return P


def test_power_measure_matches_loop_reference(gm):
    cases = [
        (ce.markov(gm, [[0.3, 0.7], [1.0, 0.0]]), range(1, 6)),
        (ce.bernoulli(ce.full_shift(2), [0.3, 0.7]), [1, 2, 3, 4, 5, 8]),
        (ce.bernoulli(ce.full_shift(3), [0.2, 0.5, 0.3]), range(1, 6)),
    ]
    for mu, Ms in cases:
        for M in Ms:
            got = ce.power_measure(mu, M).P
            assert got.tobytes() == _power_transition_by_loops(mu, M).tobytes()


def test_cycle_measure_validates_constancy():
    sys = ce.permutation([1, 0, 2])
    with pytest.raises(measures.MeasureError):
        measures.InvariantMeasure(
            measures.PERMUTATION, sys, point_weights=np.array([0.5, 0.25, 0.25])
        )


@pytest.mark.parametrize("weights, message", [
    ([math.nan, math.nan, 1.0], "point weights are not a probability vector"),
    ([math.inf, math.inf, 0.0], "point weights are not a probability vector"),
    ([-math.inf, -math.inf, 1.0], "point weights are not a probability vector"),
    ([math.inf, math.inf, -math.inf], "point weights are not a probability vector"),
    ([0.6, 0.6, -0.2], "point weights are not a probability vector"),
    ([0.25, 0.25, 0.25], "point weights are not a probability vector"),
    ([], "point weights are not a probability vector"),
    ([0.5, 0.25, 0.25], "weights not constant on a cycle"),
    ([0.4, 0.4 + 2e-12, 0.2 - 2e-12], "weights not constant on a cycle"),
])
def test_point_weights_are_checked(weights, message):
    # the checks of a cycle-weighted measure: finite, nonnegative weights that
    # sum to 1 and are constant on each cycle of (0 1)(2)
    sys = ce.permutation([1, 0, 2])
    with pytest.raises(measures.MeasureError, match=re.escape(message)):
        measures.InvariantMeasure(measures.PERMUTATION, sys, point_weights=np.array(weights))


def test_point_weights_within_the_tolerances_are_kept():
    sys = ce.permutation([1, 0, 2])
    for weights in ([0.4, 0.4 + 5e-13, 0.2 - 5e-13], [0.5, 0.5, -0.0], [0.3, 0.3, 0.4 + 5e-11]):
        mu = measures.InvariantMeasure(measures.PERMUTATION, sys,
                                       point_weights=np.array(weights))
        assert mu.point_weights.tolist() == weights


def test_cycle_measure_refuses_a_word_system(gm):
    with pytest.raises(measures.MeasureError, match="cycle measures live on permutation systems"):
        ce.cycle_measure(gm, [1.0])


def test_pushforward_measure_weights(gm, parry):
    phi = ce.FactorMap(gm, ce.full_shift(2), 2, (0, 1, 1))
    nu = ce.pushforward(phi, parry)
    assert isinstance(nu, measures.PushforwardMeasure)
    # transported masses: nu([v]) equals the mass of the preimage
    w = measures.weights_for(nu, nu.system, 1)
    uni2 = systems.word_universe(gm, 2)
    m0 = ce.cylinder_mass(parry, (0, 0))
    m1 = ce.cylinder_mass(parry, (0, 1)) + ce.cylinder_mass(parry, (1, 0))
    assert w == pytest.approx([m0, m1], abs=1e-14)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(full2, bad):
    with pytest.raises(measures.MeasureError):
        ce.bernoulli(full2, [bad, 0.5])
    with pytest.raises(measures.MeasureError):
        ce.markov(full2, [[bad, 0.5], [0.5, 0.5]])
    with pytest.raises(measures.MeasureError):
        ce.markov(full2, [[0.5, 0.5], [0.5, 0.5]], pi=[bad, 0.5])
    sys = ce.permutation([1, 0, 2])
    with pytest.raises(measures.MeasureError):
        ce.cycle_measure(sys, [bad, 0.5])
    with pytest.raises(measures.MeasureError):
        measures.InvariantMeasure(
            measures.PERMUTATION, sys, point_weights=np.array([bad, bad, 0.5])
        )


@pytest.mark.parametrize("build, message", [
    # a P of the wrong shape reached the strong components, a p or pi of the
    # wrong length numpy's matmul
    (lambda gm, full2: ce.markov(gm, [[1.0], [1.0]]), "P must have shape (2, 2)"),
    (lambda gm, full2: ce.markov(gm, [[0.5, 0.5]]), "P must have shape (2, 2)"),
    (lambda gm, full2: ce.markov(full2, [[0.5, 0.5], [0.5, 0.5]], pi=[1.0]),
     "pi must have shape (2,)"),
    (lambda gm, full2: ce.bernoulli(full2, [1.0]), "p must have shape (2,)"),
    (lambda gm, full2: ce.bernoulli(full2, [[0.5, 0.5]]), "p must have shape (2,)"),
    (lambda gm, full2: ce.stationary_of([[0.5, 0.5]]), "P must be a square matrix"),
    (lambda gm, full2: ce.stationary_of([1.0]), "P must be a square matrix"),
], ids=["P-column", "P-row", "pi-short", "p-short", "p-matrix", "stationary-row",
        "stationary-vector"])
def test_mis_shaped_measure_inputs_rejected(gm, full2, build, message):
    with pytest.raises(measures.MeasureError, match=re.escape(message)):
        build(gm, full2)


def test_entropy_value_refuses_nan():
    with pytest.raises(static_entropy.EntropyError):
        static_entropy.EntropyValue(math.nan, static_entropy.EXACT, 0.0)
