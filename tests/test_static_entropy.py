import itertools
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import coverentropy as ce
from coverentropy import bitsets, dynamic_entropy, families, measures, static_entropy, verify

from conftest import H_THIRD, LOG2


def test_shannon_examples():
    assert ce.shannon([1.0]).nats == 0.0
    assert ce.shannon([0.5, 0.5]).nats == pytest.approx(LOG2, abs=1e-15)
    assert ce.shannon([1 / 3, 2 / 3]).nats == pytest.approx(H_THIRD, abs=1e-15)
    v = ce.shannon([0.25, 0.25])  # sub-probability families are fine
    assert v.nats == pytest.approx(2 * 0.25 * math.log(4), abs=1e-15)
    assert v.method == "exact" and v.certificate == 0.0


def test_entr_matches_scipy_within_two_ulp():
    # _entr computes phi with numpy's log; scipy's entr of the clamped input
    # is the oracle: at most 2 ulp apart, and zeros (0, -0.0, round-off
    # below 0) read as +0 and phi(1) as -0, as scipy gives them
    from scipy import special
    rng = np.random.default_rng(11)
    edge = np.array([0.0, -0.0, -1e-17, -1e-300, 1.0, 0.5, 1e-300, 5e-324])
    for scale in (1.0, 1e-3, 1e-12):
        x = np.concatenate([rng.random(20000) * scale, edge])
        expected = special.entr(np.maximum(x, 0.0))
        got = static_entropy._entr(x.copy())
        assert np.all(np.abs(got - expected) <= 2 * np.spacing(np.abs(expected)))
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    zeros = static_entropy._entr(np.array([[0.0, -0.0], [-1e-17, -2e-16]]))
    assert np.all(zeros == 0.0) and not np.signbit(zeros).any()


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


def random_cover(rng, n, d):
    labels = rng.integers(0, d, size=n)
    elems = [set(np.nonzero(labels == m)[0].tolist()) for m in range(d)]
    for m in range(d):
        elems[m] |= set(np.nonzero(rng.random(n) < 0.3)[0].tolist())
    return [sorted(e) for e in elems if e]


def test_covering_number_matches_exhaustive_randoms():
    rng = np.random.default_rng(3)
    atoms = np.random.default_rng(4)  # the conditioners draw apart from the covers
    for _ in range(50):
        n = int(rng.integers(3, 9))
        sys = ce.permutation(list(rng.permutation(n)))
        U = ce.family_of_points(sys, random_cover(rng, n, int(rng.integers(2, 7))), "cover")
        lab = atoms.integers(0, int(atoms.integers(2, 5)), size=n)
        beta = ce.family_of_points(
            sys, [np.flatnonzero(lab == c).tolist() for c in np.unique(lab)], "partition")
        for b in (ce.trivial_partition(sys), beta):
            assert ce.covering_number(U, b) == ce.covering_number_exhaustive(U, b)
    # word carriers, conditioned on partitions built from labels: the atoms
    # of the first letter, and those of the first and last letters
    for sys in (ce.full_shift(2), ce.golden_mean()):
        cyl = ce.cylinder_partition(sys, 1)
        first = ce.extend_window(cyl, 3)
        ends = ce.join(first, ce.view_in_window(cyl, 2, 3))
        assert all("elements" not in b.__dict__ for b in (first, ends))  # no masks yet
        size = ce.systems.word_universe(sys, 3).count
        for _ in range(20):
            cells = random_cover(rng, size, int(rng.integers(2, 7)))
            U = families.SetFamily(sys, 3, "cover", tuple(map(bitsets.mask_from_indices, cells)))
            for b in (first, ends):
                assert ce.covering_number(U, b) == ce.covering_number_exhaustive(U, b)


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


@st.composite
def partition_pairs(draw):
    """Two partitions of 1 to 10 points by label lists; U may hold an empty
    cell."""
    n = draw(st.integers(1, 10))
    sys = ce.permutation(draw(st.permutations(range(n))))

    def cells(most):
        lab = draw(st.lists(st.integers(0, most - 1), min_size=n, max_size=n))
        return [[x for x in range(n) if lab[x] == c] for c in sorted(set(lab))]

    U = ce.family_of_points(sys, cells(n) + [[]] * draw(st.integers(0, 1)), "partition")
    return U, ce.family_of_points(sys, cells(n), "partition")


def as_cover(U):
    return families.SetFamily(U.system, U.window, "cover", U.elements)


@settings(max_examples=200, deadline=None)
@given(partition_pairs())
def test_partition_covering_number_counts_labels(case):
    """The label count of a partition pair equals the exact set cover of the
    same masks as a cover and the subset-enumeration oracle, for beta, for
    {X} and for the singletons, which refine U."""
    U, beta = case
    sys, n = U.system, U.system.point_count
    singles = ce.family_of_points(sys, [[x] for x in range(n)], "partition")
    for b in (beta, ce.trivial_partition(sys), singles):
        got = ce.covering_number(U, b)
        assert got == ce.covering_number(as_cover(U), b)
        if len(U) <= 12:
            assert got == ce.covering_number_exhaustive(U, b)
    assert ce.covering_number(U, singles) == 1
    assert ce.covering_number(U, ce.trivial_partition(sys)) == sum(m > 0 for m in U.elements)


def test_partition_covering_number_on_word_carriers(full2, gm):
    U = ce.cylinder_partition(full2, 12)
    with_empty = families.SetFamily(full2, 12, "partition", U.elements + (0,))
    X = ce.trivial_partition(full2, 12)
    assert ce.covering_number(with_empty, X) == 4096
    beta = ce.extend_window(ce.cylinder_partition(full2, 11), 12)
    assert ce.covering_number(with_empty, beta) == 2
    assert ce.covering_number(beta, U) == 1  # U is finer than beta
    V = ce.cylinder_partition(gm, 3)
    Y = ce.extend_window(ce.cylinder_partition(gm, 1), 3)
    assert ce.covering_number(V, Y) == ce.covering_number(as_cover(V), Y) == 3


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


def test_zero_weight_words_and_null_atoms():
    """A cycle of weight 0 leaves words of weight 0, and atoms of mass 0,
    that the glued partition of route B does not label.  Both entropies must
    still match mask-based oracles: H(alpha v beta) - H(beta), and its
    minimum over every partition finer than the cover."""
    rng = np.random.default_rng(17)
    null_atoms = zero_words = 0
    for _ in range(150):
        inst = verify.rand_point_instance(rng, ustar_cap=4096)
        if len(inst["cycle_weights"]) < 2:
            continue
        inst["cycle_weights"][0] = 0
        sys, mu, (U,), (alpha, beta) = verify.build_point_instance(inst)
        w = measures.family_weights(mu, U)

        def h(masks):
            return sum(static_entropy.phi(measures.mask_mass(w, m)) for m in masks)

        def h_given_beta(masks):
            return h([a & b for a in masks for b in beta.elements]) - h(beta.elements)

        assert ce.conditional_entropy(mu, alpha, beta).nats == pytest.approx(
            h_given_beta(alpha.elements), abs=1e-12
        )
        best = min(h_given_beta(f.elements) for f in ce.ustar_enumerate(U, 4096))
        got = ce.conditional_cover_entropy(mu, U, beta, ustar_budget=4096)
        assert got.nats == pytest.approx(best, abs=1e-12)
        for b in beta.elements:
            atom_w = w[bitsets.bools_from_mask(b, len(w))]
            null_atoms += atom_w.size > 0 and atom_w.sum() == 0.0
            zero_words += atom_w.sum() > 0.0 and np.any(atom_w == 0.0)
    assert null_atoms > 0 and zero_words > 0


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
    atom_of = data.draw(hnp.arrays(np.int64, m, elements=st.integers(0, 2)))
    # the rows as conditional_cover_entropy forms them: one per (atom,
    # element) pair holding a positive-weight word, pairs sorted by word
    pos = np.flatnonzero(w > 0.0)
    cols, elems = np.nonzero(memb[:, pos].T)
    words = pos[cols]
    row_keys, row_of = np.unique(atom_of[words] * d + elems, return_inverse=True)
    labels = np.array(static_entropy._component_labels(
        [row_of[words == x].tolist() for x in np.unique(words)], len(row_keys)
    ), dtype=np.int64)
    got = [row_keys[labels == c].tolist() for c in range(labels.max(initial=-1) + 1)]
    # atoms ascending, each atom's components by smallest row; rows that hold
    # no positive-weight word of the atom have no row
    expected = []
    for atom in range(3):
        in_atom = atom_of == atom
        sub, ws = memb[:, in_atom], w[in_atom]
        for comp in _pairwise_components(sub, ws):
            if ws[sub[comp[0]]].sum() > 0.0:
                expected.append([atom * d + i for i in comp])
    assert got == expected


def _orderings_minimum(holders, weights, d):
    """Reference: the minimum of sum(phi(cell mass)) over all d! orderings,
    each word going to its first holder."""
    best = math.inf
    for order in itertools.permutations(range(d)):
        cells = [0.0] * d
        for p, wt in zip(holders, weights):
            first = next(i for i in order if (p >> i) & 1)
            cells[first] += wt
        best = min(best, sum(static_entropy.phi(c) for c in cells))
    return best


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batched_subset_dp_matches_all_orderings(data):
    n = data.draw(st.integers(1, 5))
    ds, comps = [], []
    for _ in range(n):
        d = data.draw(st.integers(1, 7))
        holders = data.draw(st.lists(st.integers(1, 2**d - 1), min_size=1, max_size=6))
        # repeated weights make tied orderings, zeros make empty cells
        weights = data.draw(
            st.lists(st.sampled_from([0.0, 0.0625, 0.125, 0.2]),
                     min_size=len(holders), max_size=len(holders))
        )
        ds.append(d)
        comps.append((holders, weights))
    # one batch of the largest size: smaller components are padded with
    # elements that hold nothing
    D = max(4, *ds)
    regions = np.zeros((n, 2**D))
    for c, (holders, weights) in enumerate(comps):
        np.add.at(regions[c], holders, weights)
    values, rank = static_entropy._solve_dp(regions, D)
    # the costs are taken in chunks of sets; chunks of one set must give the
    # same arithmetic
    with mock.patch.object(static_entropy, "_DP_CHUNK", 1):
        chunked = static_entropy._solve_dp(regions, D)
    assert np.array_equal(chunked[0], values) and np.array_equal(chunked[1], rank)
    for c, (d, (holders, weights)) in enumerate(zip(ds, comps)):
        best = _orderings_minimum(holders, weights, d)
        assert values[c] == pytest.approx(best, abs=1e-12)
        # the ranks are one ordering of the D elements, and giving every
        # pattern to its first holder in that ordering attains the minimum
        assert sorted(rank[c]) == list(range(D))
        first = [min((i for i in range(d) if (p >> i) & 1), key=lambda i: rank[c, i])
                 for p in holders]
        glued = np.zeros(D)
        np.add.at(glued, first, weights)
        assert sum(static_entropy.phi(x) for x in glued) == pytest.approx(best, abs=1e-12)


def test_subset_dp_memory_at_16_elements():
    # the cached tables of the largest DP stay small, and one call on two
    # 16-element components (criterion 7's window 4) holds at most 8 MB
    tables = static_entropy._dp_tables(16)
    assert sum(t.nbytes for t in tables[:2]) < 3 * 2**20
    regions = np.random.default_rng(0).random((2, 2**16))
    regions /= regions.sum(axis=1, keepdims=True)
    tracemalloc.start()
    try:
        static_entropy._solve_dp(regions, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _padded_regions(data, D, n):
    """n components of 1..D elements in a batch of D, with tied weights,
    zero regions and some components of no mass at all."""
    regions = np.zeros((n, 2**D))
    for c in range(n):
        d = data.draw(st.integers(1, D))
        holders = data.draw(st.lists(st.integers(1, 2**d - 1), min_size=1, max_size=12))
        weights = data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, 0.0625, 0.125, 0.2]), st.floats(0.0, 1.0)),
            min_size=len(holders), max_size=len(holders),
        ))
        np.add.at(regions[c], holders, weights)
    return regions


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ordering_enumeration_equals_the_layered_dp(data):
    # up to _ORDER_MAX elements `_solve_dp` enumerates the orderings; it
    # must return the layered DP's minima bit for bit, and ranks whose first
    # holders attain them
    d = data.draw(st.integers(1, static_entropy._ORDER_MAX))
    D = data.draw(st.sampled_from(sorted({d, max(d, 4)})))
    n = data.draw(st.integers(1, 6))
    regions = _padded_regions(data, D, n)
    values, rank = static_entropy._solve_dp(regions, D)
    dp_values, _ = static_entropy._layered_dp(static_entropy._room(regions, D), D)
    assert np.array_equal(values, dp_values)
    for c in range(n):
        assert sorted(rank[c]) == list(range(D))
        glued = np.zeros(D)
        for p in np.flatnonzero(regions[c]):
            first = min((i for i in range(D) if (p >> i) & 1), key=lambda i: rank[c, i])
            glued[first] += regions[c, p]
        assert sum(static_entropy.phi(x) for x in glued) == pytest.approx(
            values[c], abs=1e-12
        )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_padding_keeps_minima_and_first_holders(data):
    # components of at most 4 elements are solved at the size of the largest
    # in their group: padding elements that hold nothing add +0.0 steps, and
    # the first minimal ordering restricted to the real elements is theirs,
    # so the minima are equal bit for bit and every pattern keeps its first
    # holder, at every padded size up to _ORDER_MAX
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 6))
    regions = _padded_regions(data, d, n)

    def first_holders(rank):
        return [[min((i for i in range(d) if p >> i & 1), key=lambda i: rank[c, i])
                 for p in range(1, 2**d)] for c in range(n)]

    values, rank = static_entropy._solve_dp(regions, d)
    for D in range(d, static_entropy._ORDER_MAX + 1):
        padded = np.zeros((n, 2**D))
        padded[:, : 2**d] = regions
        padded_values, padded_rank = static_entropy._solve_dp(padded, D)
        assert np.array_equal(padded_values, values)
        assert first_holders(padded_rank) == first_holders(rank)


def test_small_components_share_one_dp_at_their_largest_size(gm):
    # the golden-mean cover of the variational benchmark, conditioned on the
    # joined 1-cylinders: every component has one element, so each call
    # makes one DP of D = 1
    U = ce.family_of_words(gm, 2, [["00", "10"], ["01", "10"]], "cover")
    beta = ce.cylinder_partition(gm, 1)
    mu = ce.markov(gm, [[0.6, 0.4], [1.0, 0.0]])
    with mock.patch.object(static_entropy, "_solve_dp",
                           wraps=static_entropy._solve_dp) as solve, \
            mock.patch.object(static_entropy, "conditional_cover_entropy",
                              wraps=static_entropy.conditional_cover_entropy) as calls:
        dynamic_entropy.joined_cover_rate(mu, U, beta, n_max=6)
    assert calls.call_count == 6
    assert [c.args[1] for c in solve.call_args_list] == [1] * 6
    # one component of 1 element and one of 3 share one DP of D = 3
    weights = [0.1, 0.2, 0.3, 0.15, 0.25]
    sys = ce.permutation(list(range(5)))
    elements = [{0}, {1, 2}, {2, 3}, {3, 4}]
    U = ce.family_of_points(sys, [sorted(e) for e in elements], "cover")
    with mock.patch.object(static_entropy, "_solve_dp",
                           wraps=static_entropy._solve_dp) as solve:
        v = ce.conditional_cover_entropy(ce.cycle_measure(sys, weights), U,
                                         ce.trivial_partition(sys))
    assert [c.args[1] for c in solve.call_args_list] == [3]
    assert v.nats == pytest.approx(_cover_entropy_by_orderings(
        weights, [frozenset(e) for e in elements], [frozenset(range(5))]
    ), abs=1e-12)


@pytest.mark.parametrize("D", range(1, static_entropy._ORDER_MAX + 3))
def test_subset_dp_solves_each_component_alone(D):
    # a component's minimum and ranks do not depend on the other components
    # of its batch, on either side of _ORDER_MAX: one batch of 64 random
    # components, about a third of their regions empty, against 64 calls
    rng = np.random.default_rng(D)
    regions = rng.random((64, 2**D)) * (rng.random((64, 2**D)) < 0.7)
    values, rank = static_entropy._solve_dp(regions, D)
    for c in range(64):
        alone = static_entropy._solve_dp(regions[c : c + 1], D)
        assert np.array_equal(alone[0], values[c : c + 1])
        assert np.array_equal(alone[1], rank[c : c + 1])


def test_ordering_enumeration_memory_of_the_largest_group():
    # the largest group that enumerates orderings, _DP_CHUNK >> _ORDER_MAX
    # components of _ORDER_MAX elements (0.5 MB of regions), is taken in
    # row chunks: the call holds at most 3 MB, where all rows at once would
    # hold over 5 MB
    D = static_entropy._ORDER_MAX
    regions = np.random.default_rng(0).random((static_entropy._DP_CHUNK >> D, 2**D))
    regions /= regions.sum(axis=1, keepdims=True)
    static_entropy._order_tables(D)  # cached
    tracemalloc.start()
    try:
        static_entropy._solve_dp(regions, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_many_16_element_components_hold_bounded_memory():
    # 40 atoms of 5 points, each met by 16 elements that hold 16 different
    # sets of its points: 40 components of 16 elements, whose regions take
    # 20 MB all at once; in groups the call holds a few MB
    # masks 15..30 of an atom's 5 points overlap into one component covering all 5
    masks = range(15, 31)
    sys = ce.permutation(list(range(200)))
    mu = ce.uniform_cycle_measure(sys)
    U = ce.family_of_points(
        sys, [[x for x in range(200) if (m >> x % 5) & 1] for m in masks], "cover"
    )
    beta = ce.family_of_points(sys, [list(range(a, a + 5)) for a in range(0, 200, 5)],
                               "partition")
    static_entropy._dp_tables(16)  # cached
    tracemalloc.start()
    try:
        v = ce.conditional_cover_entropy(mu, U, beta, node_budget=1, ustar_budget=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.method == "branch_and_bound"
    assert peak < 8 * 2**20


@pytest.mark.parametrize("distinct, count, D", [
    pytest.param([{0, 1, 2}], 15, 1, id="distinct0-4"),
    pytest.param([{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}], 15, 6, id="distinct1-6"),
    # 40 elements, more than DP_MAX, in each atom: merged before the
    # components are found, they leave 2 for the DP and none for the search
    pytest.param([{0, 1}, {1, 2}], 40, 2, id="distinct2-4"),
])
def test_identical_elements_leave_the_subset_dp(distinct, count, D):
    # 10 atoms of 3 points; in each, the `count` elements of the cover hold
    # only the sets in `distinct`, so each component is len(distinct)
    # elements to one DP of that size, and its minimum is that of the
    # distinct sets
    weights = [(1 + x % 3) / 60 for x in range(30)]
    sys = ce.permutation(list(range(30)))
    mu = ce.cycle_measure(sys, weights)
    sets = [distinct[k % len(distinct)] for k in range(count)]
    U = ce.family_of_points(
        sys, [[x for x in range(30) if x % 3 in e] for e in sets], "cover"
    )
    atoms = [frozenset(range(a, a + 3)) for a in range(0, 30, 3)]
    beta = ce.family_of_points(sys, [sorted(a) for a in atoms], "partition")
    with mock.patch.object(static_entropy, "_solve_dp",
                           wraps=static_entropy._solve_dp) as solve, \
            mock.patch.object(static_entropy, "_minimize_component",
                              wraps=static_entropy._minimize_component) as search:
        v = ce.conditional_cover_entropy(mu, U, beta, node_budget=1, ustar_budget=0)
    assert [c.args[1] for c in solve.call_args_list] == [D]
    assert search.call_count == 0
    assert v.method == "branch_and_bound"
    elements = [frozenset(x for x in range(30) if x % 3 in e) for e in distinct]
    assert v.nats == pytest.approx(
        _cover_entropy_by_orderings(weights, elements, atoms), abs=1e-12
    )


def test_elements_merge_on_their_positive_weight_words():
    # one atom of 5 points, point 4 of zero weight: {0, 1, 4} holds the
    # positive-weight words of {0, 1} and merges into it, while {0, 1, 2}
    # holds one more and stays, so 5 distinct elements go to one DP of 5
    weights = [0.1, 0.2, 0.3, 0.4, 0.0]
    sys = ce.permutation(list(range(5)))
    mu = ce.cycle_measure(sys, weights)
    elements = [{0, 1}, {0, 1, 4}, {0, 1, 2}, {1, 2}, {2, 3}, {3, 0}]
    U = ce.family_of_points(sys, [sorted(e) for e in elements], "cover")
    X = ce.trivial_partition(sys)
    with mock.patch.object(static_entropy, "_solve_dp",
                           wraps=static_entropy._solve_dp) as solve:
        v = ce.conditional_cover_entropy(mu, U, X)
    assert [c.args[1] for c in solve.call_args_list] == [5]
    assert v.method == "branch_and_bound"
    assert v.nats == pytest.approx(_cover_entropy_by_orderings(
        weights, [frozenset(e) for e in elements], [frozenset(range(5))]
    ), abs=1e-12)


def _cover_entropy_by_orderings(weights, elements, atoms):
    """Reference: in each atom, the minimum over all orderings of the
    elements that meet it, each point going to its first holder."""
    total = 0.0
    for atom in atoms:
        base = sum(weights[x] for x in atom)
        if base == 0.0:
            continue
        meeting = [e & atom for e in elements if e & atom]
        holders = [sum(1 << i for i, e in enumerate(meeting) if x in e) for x in atom]
        total += base * _orderings_minimum(
            holders, [weights[x] / base for x in atom], len(meeting)
        )
    return total


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cover_entropy_of_mixed_components_matches_all_orderings(data):
    # components of 1 to 6 elements across atoms go to DPs of sizes 4, 5
    # and 6, in groups that a small _DP_CHUNK cuts down to one component;
    # every group size must give the same numbers, equal to the brute force
    m = data.draw(st.integers(2, 12))
    weights = data.draw(
        st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=m, max_size=m).filter(any)
    )
    weights = [x / sum(weights) for x in weights]
    elements = data.draw(st.lists(
        st.frozensets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=6
    ))
    missing = frozenset(range(m)).difference(*elements)
    if missing:
        elements[-1] = elements[-1] | missing
    labels = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    atoms = [frozenset(x for x in range(m) if labels[x] == a) for a in set(labels)]
    sys = ce.permutation(list(range(m)))
    mu = ce.cycle_measure(sys, weights)
    U = ce.family_of_points(sys, [sorted(e) for e in elements], "cover")
    beta = ce.family_of_points(sys, [sorted(a) for a in atoms], "partition")
    v = ce.conditional_cover_entropy(mu, U, beta, ustar_budget=0)
    assert v.method == "branch_and_bound"
    assert v.nats == pytest.approx(
        _cover_entropy_by_orderings(weights, elements, atoms), abs=1e-12
    )
    for chunk in (1, 40):
        with mock.patch.object(static_entropy, "_DP_CHUNK", chunk):
            assert ce.conditional_cover_entropy(mu, U, beta, ustar_budget=0) == v


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_components_past_dp_max_match_all_orderings(data):
    # with DP_MAX lowered to 2 and 3, larger components go to the best-first
    # search, under a budget it never runs out of.  Points 0-2 lie in atom 0
    # with positive weight and the first four elements overlap on them, so
    # every instance has a component of 4 distinct elements; the drawn rest
    # brings zero weights, a repeated element and a second atom
    m = data.draw(st.integers(4, 9))
    weights = [1.0, 2.0, 1.0] + data.draw(
        st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=m - 3, max_size=m - 3)
    )
    weights = [x / sum(weights) for x in weights]
    elements = [frozenset(e) for e in ({0, 1}, {1, 2}, {0, 2}, {0, 1, 2})]
    elements += data.draw(st.lists(
        st.frozensets(st.integers(0, m - 1), min_size=1), max_size=2
    ))
    missing = frozenset(range(m)).difference(*elements)
    if missing:
        elements.append(missing)
    elements.append(data.draw(st.sampled_from(elements)))
    labels = [0, 0, 0] + data.draw(
        st.lists(st.integers(0, 2), min_size=m - 4, max_size=m - 4)
    ) + [1]
    atoms = [frozenset(x for x in range(m) if labels[x] == a) for a in set(labels)]
    sys = ce.permutation(list(range(m)))
    mu = ce.cycle_measure(sys, weights)
    U = ce.family_of_points(sys, [sorted(e) for e in elements], "cover")
    beta = ce.family_of_points(sys, [sorted(a) for a in atoms], "partition")
    expected = _cover_entropy_by_orderings(weights, elements, atoms)
    v = ce.conditional_cover_entropy(mu, U, beta, ustar_budget=0)
    for dp_max in (2, 3):
        with mock.patch.object(static_entropy, "DP_MAX", dp_max), \
                mock.patch.object(static_entropy, "_minimize_component",
                                  wraps=static_entropy._minimize_component) as search:
            got = ce.conditional_cover_entropy(mu, U, beta, node_budget=10**6,
                                               ustar_budget=0)
        assert search.call_count >= 1
        assert got.method == "branch_and_bound"
        assert got.nats == pytest.approx(expected, abs=1e-12)
        assert got.nats == pytest.approx(v.nats, abs=1e-12)


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
            sum(static_entropy.phi(measures.mask_mass(w, m)) for m in f.elements)
            for f in ce.ustar_enumerate(U, 10**6)
        )
        assert ce.cover_entropy(mu, U).nats == pytest.approx(best, abs=1e-12)


def test_route_c_reads_every_label_row(monkeypatch):
    """Route C is the least score over the label rows: with its optimal rows
    dropped it no longer meets route A, and the call fails."""
    sys = ce.permutation([0, 1, 2, 3])
    mu = ce.cycle_measure(sys, [0.4, 0.3, 0.2, 0.1])
    U = ce.family_of_points(sys, [[0, 1, 2], [1, 2, 3], [0, 3]], "cover")
    beta = ce.family_of_points(sys, [[0, 1], [2, 3]], "partition")
    enum = ce.ustar_enumerate(U, 4096)
    scores = [ce.conditional_entropy(mu, f, beta).nats for f in enum]
    got = ce.conditional_cover_entropy(mu, U, beta, ustar_budget=4096)
    assert got.nats == pytest.approx(min(scores), abs=1e-12)
    keep = np.array(scores) > min(scores) + 1e-6
    assert keep.any()
    labels = families.UStarEnumeration.labels
    monkeypatch.setattr(families.UStarEnumeration, "labels",
                        lambda self, lo=0, hi=None: labels(self, lo, hi)[keep])
    with pytest.raises(ce.RouteDisagreement):
        ce.conditional_cover_entropy(mu, U, beta, ustar_budget=4096)


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


def test_heuristic_flag_on_tiny_budget(full3, monkeypatch):
    mu = ce.bernoulli(full3, [1 / 3, 1 / 3, 1 / 3])
    U = ce.family_of_words(full3, 1, [["0", "1"], ["1", "2"]], "cover")
    joined = ce.dynamical_join(U, 0, 3)
    X = ce.extend_window(ce.trivial_partition(full3, 1), joined.window)
    # the subset DP solves this 16-element component exactly at any budget
    exact = ce.conditional_cover_entropy(mu, joined, X, node_budget=5,
                                         ustar_budget=0)
    assert exact.method == "branch_and_bound"
    # with DP_MAX at 15 the component goes to the search, which runs out of
    # budget
    monkeypatch.setattr(static_entropy, "DP_MAX", 15)
    v = ce.conditional_cover_entropy(mu, joined, X, node_budget=5, ustar_budget=0)
    assert v.method == "heuristic_upper_bound" and v.certificate is None
    assert v.nats >= exact.nats - 1e-12  # heuristic stays an upper bound


def _fresh(fam):
    """The same family as a new instance, with nothing cached."""
    return ce.SetFamily(fam.system, fam.window, fam.kind, fam.elements)


def test_solve_plan_is_built_once_per_support(full2):
    # one joined pair on the full 2-shift: measures of full support share
    # one plan; a chain with P[1, 1] = 0 gives the words holding 11 zero
    # weight and a new plan, and so do full support again and a new
    # conditioner
    U = ce.family_of_words(full2, 2, [["00", "01", "10"], ["01", "10", "11"]], "cover")
    beta = ce.cylinder_partition(full2, 1)
    uj, bj = dynamic_entropy._joined_pair(U, beta, 3)
    steps = [
        (ce.markov(full2, [[0.6, 0.4], [0.3, 0.7]]), 1),
        (ce.markov(full2, [[0.2, 0.8], [0.5, 0.5]]), 1),
        (ce.markov(full2, [[0.6, 0.4], [1.0, 0.0]]), 2),
        (ce.markov(full2, [[0.7, 0.3], [0.4, 0.6]]), 3),
        (ce.markov(full2, [[0.5, 0.5], [0.5, 0.5]]), 3),
    ]
    with mock.patch.object(static_entropy, "_solve_plan",
                           wraps=static_entropy._solve_plan) as build:
        def builds_on_uj():
            return sum(c.args[0] is uj for c in build.call_args_list)

        for mu, builds in steps:
            v = ce.conditional_cover_entropy(mu, uj, bj)
            assert builds_on_uj() == builds
            fresh = ce.conditional_cover_entropy(mu, _fresh(uj), _fresh(bj))
            assert v.nats == pytest.approx(fresh.nats, abs=1e-12)
            assert v.method == fresh.method == "branch_and_bound"
        other = _fresh(bj)
        for _ in range(2):
            ce.conditional_cover_entropy(mu, uj, other)
            assert builds_on_uj() == 4
    weights = measures.family_weights(steps[2][0], uj)
    assert np.any(weights == 0.0) and np.any(weights > 0.0)


def test_cover_entropy_shares_one_plan_across_measures(full3):
    # cover_entropy keeps {X} on U, so that measures of one support share
    # U's plan
    U = ce.family_of_words(full3, 1, [["0", "1"], ["1", "2"]], "cover")
    joined = ce.dynamical_join(U, 0, 2)
    mus = [ce.bernoulli(full3, p) for p in
           ([1 / 3, 1 / 3, 1 / 3], [0.2, 0.5, 0.3], [0.25, 0.5, 0.25])]
    with mock.patch.object(static_entropy, "_solve_plan",
                           wraps=static_entropy._solve_plan) as build:
        values = [ce.cover_entropy(mu, joined) for mu in mus]
    assert build.call_count == 1
    for mu, v in zip(mus, values):
        assert v == ce.cover_entropy(mu, _fresh(joined))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cached_plans_equal_fresh_family_solves(data):
    # a sequence of point measures on one family pair, some with zero
    # weights; each value must be that of freshly built families
    m = data.draw(st.integers(2, 10))
    elements = data.draw(st.lists(
        st.frozensets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=6
    ))
    missing = frozenset(range(m)).difference(*elements)
    if missing:
        elements[-1] = elements[-1] | missing
    labels = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    atoms = [sorted(x for x in range(m) if labels[x] == a) for a in set(labels)]
    sys = ce.permutation(list(range(m)))
    U = ce.family_of_points(sys, [sorted(e) for e in elements], "cover")
    beta = ce.family_of_points(sys, atoms, "partition")
    weight_lists = data.draw(st.lists(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=m, max_size=m)
        .filter(any), min_size=2, max_size=5,
    ))
    for weights in weight_lists:
        mu = ce.cycle_measure(sys, [x / sum(weights) for x in weights])
        v = ce.conditional_cover_entropy(mu, U, beta, ustar_budget=0)
        fresh = ce.conditional_cover_entropy(mu, _fresh(U), _fresh(beta), ustar_budget=0)
        assert v == fresh


def test_one_shot_values_match_recorded():
    # 300 seeded one-shot instances on permutation systems, 162 of them with
    # zero cycle weights and every other one with route C, recorded at
    # commit 42d410a: any rewrite of the solve plan must reproduce each value
    # and its method and certificate
    rows = json.loads((Path(__file__).parent / "one_shot_values.json").read_text())
    assert len(rows) == 300
    for row in rows:
        sys = ce.permutation(row["mapping"])
        mu = ce.cycle_measure(sys, row["cycle_weights"])
        U = ce.family_of_points(sys, row["elements"], row["kind"])
        beta = ce.family_of_points(sys, row["atoms"], "partition")
        v = ce.conditional_cover_entropy(mu, U, beta, ustar_budget=row["ustar_budget"])
        assert (v.method, v.certificate) == (row["method"], row["certificate"])
        assert v.nats == pytest.approx(row["nats"], abs=1e-9)
