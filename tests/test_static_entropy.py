import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import coverentropy as ce
from coverentropy import bitsets, families, measures, static_entropy

from conftest import H_THIRD, LOG2


def test_shannon_examples():
    assert ce.shannon([1.0]).nats == 0.0
    assert ce.shannon([0.5, 0.5]).nats == pytest.approx(LOG2, abs=1e-15)
    assert ce.shannon([1 / 3, 2 / 3]).nats == pytest.approx(H_THIRD, abs=1e-15)
    v = ce.shannon([0.25, 0.25])  # sub-probability families are fine
    assert v.nats == pytest.approx(2 * 0.25 * math.log(4), abs=1e-15)
    assert v.method == "exact" and v.certificate == 0.0


def test_shannon_rejects_bad_weights():
    with pytest.raises(static_entropy.EntropyError):
        ce.shannon([-0.1, 1.1])
    with pytest.raises(static_entropy.EntropyError):
        ce.shannon([0.7, 0.7])


def test_phi_convention():
    assert static_entropy.phi(0.0) == 0.0
    assert static_entropy.phi(1.0) == 0.0
    assert static_entropy.phi(0.5) == pytest.approx(0.5 * LOG2)


def test_conditional_entropy_examples(three_points):
    sys, mu = three_points
    singles = ce.family_of_points(sys, [[0], [1], [2]], "partition")
    V = ce.family_of_points(sys, [[0], [1, 2]], "partition")
    X = ce.trivial_partition(sys)
    assert ce.conditional_entropy(mu, singles, singles).nats == pytest.approx(0.0)
    assert ce.conditional_entropy(mu, singles, V).nats == pytest.approx(
        (2 / 3) * LOG2, abs=1e-12
    )
    assert ce.conditional_entropy(mu, singles, X).nats == pytest.approx(
        math.log(3), abs=1e-12
    )


def test_conditional_entropy_full_shift(full2):
    ber = ce.bernoulli(full2, [0.5, 0.5])
    alpha = ce.cylinder_partition(full2, 1)
    X = ce.trivial_partition(full2, 1)
    assert ce.conditional_entropy(ber, alpha, X).nats == pytest.approx(LOG2)


def test_conditional_entropy_requires_partitions(three_points, overlap_cover):
    sys, mu = three_points
    X = ce.trivial_partition(sys)
    with pytest.raises(static_entropy.EntropyError):
        ce.conditional_entropy(mu, overlap_cover, X)


def test_covering_number_examples(three_points, overlap_cover):
    sys, _ = three_points
    X = ce.trivial_partition(sys)
    V = ce.family_of_points(sys, [[0], [1, 2]], "partition")
    assert ce.covering_number(overlap_cover, X) == 2
    assert ce.covering_number(overlap_cover, V) == 1
    singles = ce.family_of_points(sys, [[0], [1], [2]], "partition")
    assert ce.covering_number(overlap_cover, singles) == 1  # beta refines U


def test_covering_number_equals_one_iff_finer(three_points, overlap_cover):
    sys, _ = three_points
    beta = ce.family_of_points(sys, [[0], [1, 2]], "partition")
    assert (ce.covering_number(overlap_cover, beta) == 1) == ce.finer(
        beta, overlap_cover
    )


def test_covering_number_matches_exhaustive_randoms():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        sys = ce.permutation(list(rng.permutation(n)))
        d = int(rng.integers(2, 7))
        labels = rng.integers(0, d, size=n)
        elems = [set(np.nonzero(labels == m)[0].tolist()) for m in range(d)]
        for m in range(d):
            elems[m] |= set(np.nonzero(rng.random(n) < 0.3)[0].tolist())
        elems = [sorted(e) for e in elems if e]
        U = ce.family_of_points(sys, elems, "cover")
        X = ce.trivial_partition(sys)
        assert ce.covering_number(U, X) == ce.covering_number_exhaustive(U, X)


def test_covering_number_of_partition_is_largest_cell_count():
    """For a partition U, N(U|beta) is the largest number of U-cells that
    meet one atom of beta."""

    def cells(labels):
        return [np.nonzero(labels == c)[0].tolist() for c in np.unique(labels)]

    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        sys = ce.permutation(list(rng.permutation(n)))
        lab_u = rng.integers(0, int(rng.integers(1, 8)), size=n)
        lab_b = rng.integers(0, int(rng.integers(1, 5)), size=n)
        U = ce.family_of_points(sys, cells(lab_u), "partition")
        beta = ce.family_of_points(sys, cells(lab_b), "partition")
        expected = max(len(set(lab_u[lab_b == b])) for b in np.unique(lab_b))
        assert ce.covering_number(U, beta) == expected
        assert ce.covering_number_exhaustive(U, beta) == expected
    full2 = ce.full_shift(2)
    for window in (3, 10, 12):
        U = ce.cylinder_partition(full2, window)
        assert ce.covering_number(U, ce.trivial_partition(full2, window)) == 2**window
        assert ce.covering_number(U, U) == 1


def test_conditional_quantities_on_8192_cylinders():
    """8192 cells conditioned on the 4096 cylinders of the first 12 symbols:
    only the last symbol is left, so H = H(p) and N = 2.  Unconditioned, the
    cells have H = 13 H(p)."""
    fs = ce.full_shift(2)
    U = ce.cylinder_partition(fs, 13)
    beta = ce.extend_window(ce.cylinder_partition(fs, 12), 13)
    p = 0.3
    mu = ce.bernoulli(fs, [p, 1 - p])
    h = -p * math.log(p) - (1 - p) * math.log(1 - p)
    v = ce.conditional_cover_entropy(mu, U, beta)
    assert v.method == "exact"
    assert v.nats == pytest.approx(h, abs=1e-9)
    assert ce.covering_number(U, beta) == 2
    v = ce.cover_entropy(mu, U)
    assert v.method == "exact"
    assert v.nats == pytest.approx(13 * h, abs=1e-9)
    # as a cover with X added, every atom is searched: X alone costs nothing
    V = families.SetFamily(fs, 13, "cover", U.elements + (bitsets.full_mask(8192),))
    v = ce.conditional_cover_entropy(mu, V, beta)
    assert v.method == "branch_and_bound"
    assert v.nats == pytest.approx(0.0, abs=1e-9)
    assert ce.covering_number(V, beta) == 1


def test_min_cover_size_rejects_uncoverable_atoms():
    # no set meets the atom at all
    with pytest.raises(static_entropy.EntropyError):
        static_entropy._min_cover_size(0b100, [0b011, 0b001])
    # sets force part of the atom, but word 3 lies in none of them
    with pytest.raises(static_entropy.EntropyError):
        static_entropy._min_cover_size(0b1111, [0b0001, 0b0110, 0b0010])
    assert static_entropy._min_cover_size(0b0111, [0b0001, 0b0110, 0b0010]) == 2


def _pairwise_components(memb, w):
    """Reference: rows linked when their common words carry positive mass,
    components listed by smallest row with rows ascending."""
    d = len(memb)
    seen, comps = set(), []
    for start in range(d):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for j in range(d):
                if j not in comp and w[memb[i] & memb[j]].sum() > 0.0:
                    comp.add(j)
                    stack.append(j)
        seen |= comp
        comps.append(sorted(comp))
    return comps


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_overlap_components_match_pairwise_definition(data):
    d = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 8))
    memb = data.draw(hnp.arrays(bool, (d, m)))
    w = data.draw(
        hnp.arrays(float, m, elements=st.sampled_from([0.0, 0.0, 1e-300, 0.125, 0.5]))
    )
    assert static_entropy._overlap_components(memb, w) == _pairwise_components(memb, w)


def test_cover_entropy_partition_is_shannon(three_points):
    sys, mu = three_points
    alpha = ce.family_of_points(sys, [[0], [1, 2]], "partition")
    assert ce.cover_entropy(mu, alpha).nats == pytest.approx(H_THIRD, abs=1e-12)
    assert ce.cover_entropy(mu, alpha).method == "exact"


def test_cover_entropy_overlap_example(three_points, overlap_cover):
    sys, mu = three_points
    v = ce.cover_entropy(mu, overlap_cover)
    assert v.nats == pytest.approx(H_THIRD, abs=1e-12)
    assert v.method == "branch_and_bound" and v.certificate == 0.0


def test_cover_entropy_point_mass(three_points, overlap_cover):
    sys, _ = three_points
    mass_at_b = ce.cycle_measure(sys, [0, 1, 0])
    assert ce.cover_entropy(mass_at_b, overlap_cover).nats == pytest.approx(0.0)


def test_cover_entropy_matches_exhaustive_minimum(three_points):
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        sys = ce.permutation(list(rng.permutation(n)))
        d = int(rng.integers(2, 5))
        labels = rng.integers(0, d, size=n)
        elems = [set(np.nonzero(labels == m)[0].tolist()) for m in range(d)]
        for m in range(d):
            elems[m] |= set(np.nonzero(rng.random(n) < 0.3)[0].tolist())
        elems = [sorted(e) for e in elems if e]
        U = ce.family_of_points(sys, elems, "cover")
        cw = rng.integers(1, 9, size=len(ce.systems.permutation_cycles(sys)))
        mu = ce.cycle_measure(sys, cw / cw.sum())
        w = measures.family_weights(mu, U)
        best = min(
            sum(static_entropy.phi(m) for m in static_entropy._element_masses(f, w))
            for f in ce.ustar_enumerate(U, 10**6)
        )
        assert ce.cover_entropy(mu, U).nats == pytest.approx(best, abs=1e-12)


def test_conditional_cover_entropy_examples(three_points, overlap_cover):
    sys, mu = three_points
    V = ce.family_of_points(sys, [[0], [1, 2]], "partition")
    X = ce.trivial_partition(sys)
    assert ce.conditional_cover_entropy(mu, overlap_cover, V).nats == pytest.approx(
        0.0, abs=1e-15
    )
    assert ce.conditional_cover_entropy(mu, overlap_cover, X).nats == pytest.approx(
        H_THIRD, abs=1e-12
    )
    singles = ce.family_of_points(sys, [[0], [1], [2]], "partition")
    # beta finer than U forces zero
    assert ce.conditional_cover_entropy(
        mu, overlap_cover, singles
    ).nats == pytest.approx(0.0, abs=1e-15)


def test_conditional_cover_entropy_bounded_by_log_count(three_points, overlap_cover):
    sys, mu = three_points
    X = ce.trivial_partition(sys)
    h = ce.conditional_cover_entropy(mu, overlap_cover, X).nats
    assert 0.0 <= h <= math.log(ce.covering_number(overlap_cover, X)) + 1e-12


def test_nested_atom_inequality(three_points, overlap_cover):
    sys, mu = three_points
    inner = ce.condition_on(mu, 0b011, sys, None)
    outer = ce.condition_on(mu, 0b111, sys, None)
    lhs = inner.base_mass * ce.cover_entropy(inner, overlap_cover).nats
    rhs = outer.base_mass * ce.cover_entropy(outer, overlap_cover).nats
    assert lhs <= rhs + 1e-12


def test_zero_mass_atoms_contribute_nothing(three_points, overlap_cover):
    sys, _ = three_points
    mu = ce.cycle_measure(sys, [0.0, 1.0, 0.0])
    X = ce.trivial_partition(sys)
    v = ce.conditional_cover_entropy(mu, overlap_cover, X)
    assert v.nats == pytest.approx(0.0)


def test_heuristic_flag_on_tiny_budget(full3):
    mu = ce.bernoulli(full3, [1 / 3, 1 / 3, 1 / 3])
    U = ce.family_of_words(full3, 1, [["0", "1"], ["1", "2"]], "cover")
    joined = ce.dynamical_join(U, 0, 3)
    X = ce.extend_window(ce.trivial_partition(full3, 1), joined.window)
    v = ce.conditional_cover_entropy(mu, joined, X, node_budget=5, ustar_budget=0)
    assert v.method == "heuristic_upper_bound" and v.certificate is None
    exact = ce.conditional_cover_entropy(mu, joined, X, node_budget=10**6,
                                         ustar_budget=0)
    assert exact.method == "branch_and_bound"
    assert v.nats >= exact.nats - 1e-12  # heuristic stays an upper bound
