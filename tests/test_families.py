import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverentropy as ce
from coverentropy import bitsets, families


def masks_of(fam):
    return [sorted(bitsets.indices_from_mask(m, fam.universe_size).tolist())
            for m in fam.elements]


def test_finer_basics(three_points, overlap_cover):
    sys, _ = three_points
    singles = ce.family_of_points(sys, [[0], [1], [2]], "partition")
    assert ce.finer(singles, overlap_cover)
    assert not ce.finer(overlap_cover, singles)
    assert ce.finer(overlap_cover, overlap_cover)


def test_finer_needs_same_carrier(three_points, gm):
    sys, _ = three_points
    U = ce.family_of_points(sys, [[0, 1, 2]], "partition")
    V = ce.trivial_partition(gm)
    with pytest.raises(families.CarrierMismatch):
        ce.finer(U, V)


def test_join_example(three_points, overlap_cover):
    sys, _ = three_points
    V = ce.family_of_points(sys, [[0], [1, 2]], "partition")
    j = ce.join(overlap_cover, V)
    assert masks_of(j) == [[0], [1], [1, 2]]
    assert j.kind == "cover"


def test_join_with_trivial_is_identity(three_points, overlap_cover):
    sys, _ = three_points
    X = ce.trivial_partition(sys)
    j = ce.join(overlap_cover, X)
    assert set(j.elements) == set(overlap_cover.elements)


def test_join_idempotent_on_partitions(three_points):
    sys, _ = three_points
    alpha = ce.family_of_points(sys, [[0], [1, 2]], "partition")
    assert ce.join(alpha, alpha).elements == alpha.elements
    assert ce.join(alpha, alpha).kind == "partition"


def test_join_premerge_witness(three_points, overlap_cover):
    # V finer than U does not make the (indexed) join equal to V: the tuple
    # view has four entries while V has three cells
    sys, _ = three_points
    V = ce.family_of_points(sys, [[0], [1], [2]], "partition")
    assert ce.finer(V, overlap_cover)
    pairs = families.join_with_indices(overlap_cover, V)
    assert len(pairs) == 4
    assert len(ce.join(overlap_cover, V)) == 3


def test_extend_window_examples(full2, gm):
    U = ce.family_of_words(full2, 1, [["0"], ["1"]], "partition")
    ext = ce.extend_window(U, 2)
    assert ext.element_words(0) == [(0, 0), (0, 1)]
    V = ce.family_of_words(gm, 1, [["1"], ["0"]], "partition")
    extg = ce.extend_window(V, 2)
    assert extg.element_words(0) == [(1, 0)]  # 11 is inadmissible
    assert ce.extend_window(U, 1) is U
    with pytest.raises(families.FamilyError):
        ce.extend_window(ext, 1)


def test_dynamical_join_full_shift(full2):
    U = ce.cylinder_partition(full2, 1)
    dj = ce.dynamical_join(U, 0, 1)
    assert masks_of(dj) == [[0], [1], [2], [3]]
    assert dj.window == 2 and dj.kind == "partition"


def test_dynamical_join_golden_mean(gm):
    U = ce.cylinder_partition(gm, 1)
    dj = ce.dynamical_join(U, 0, 1)
    assert len(dj) == 3  # tuple (1,1) is empty
    assert dj.window == 2


def test_dynamical_join_trivial_range(gm):
    U = ce.cylinder_partition(gm, 1)
    assert ce.dynamical_join(U, 0, 0) is U


def test_dynamical_join_rejects_bad_range(gm):
    U = ce.cylinder_partition(gm, 1)
    with pytest.raises(families.FamilyError):
        ce.dynamical_join(U, 2, 1)


def test_dynamical_join_splits_as_block_join(gm):
    # join over 0..N+M-1 equals the join of the first N windows with the
    # remaining M placed at offset N
    U = ce.cylinder_partition(gm, 1)
    N, M = 2, 2
    whole = ce.dynamical_join(U, 0, N + M - 1)
    W = whole.window
    left = ce.view_in_window(ce.dynamical_join(U, 0, N - 1), 0, W)
    right = ce.view_in_window(ce.dynamical_join(U, 0, M - 1), N, W)
    assert set(ce.join(left, right).elements) == set(whole.elements)


def test_ext_partitions_on_partition(three_points):
    sys, _ = three_points
    alpha = ce.family_of_points(sys, [[0], [1, 2]], "partition")
    outs = list(ce.ext_partitions(alpha))
    assert len(outs) == 2  # d! emissions
    assert len({tuple(sorted(f.elements)) for f in outs}) == 1


def test_ext_partitions_cover_example(three_points, overlap_cover):
    outs = [masks_of(f) for f in ce.ext_partitions(overlap_cover)]
    assert [[0, 1], [2]] in outs
    assert [[1, 2], [0]] in outs


def test_ext_partitions_single_element(three_points):
    sys, _ = three_points
    X = ce.trivial_partition(sys)
    outs = list(ce.ext_partitions(X))
    assert len(outs) == 1 and masks_of(outs[0]) == [[0, 1, 2]]


def test_ext_partitions_within_restriction(three_points, overlap_cover):
    outs = list(ce.ext_partitions(overlap_cover, within=0b011))
    for fam in outs:
        assert fam.kind == "partition"
        assert fam.elements[-1] == 0b100  # complement cell


def test_ustar_enumerate_example(three_points, overlap_cover):
    enum = ce.ustar_enumerate(overlap_cover)
    assert enum.total == 2 and not enum.refused
    outs = {tuple(f.elements) for f in enum}
    assert outs == {(0b011, 0b100), (0b001, 0b110)}


def test_ustar_partition_input(three_points):
    sys, _ = three_points
    alpha = ce.family_of_points(sys, [[0], [1, 2]], "partition")
    outs = list(ce.ustar_enumerate(alpha))
    assert len(outs) == 1 and outs[0].elements == alpha.elements


def test_ustar_triple_cover():
    sys = ce.permutation([0, 1])
    U = ce.family_of_points(sys, [[0, 1], [0], [0]], "cover")
    enum = ce.ustar_enumerate(U)
    assert enum.total == 3
    assert len(list(enum)) == 3


def test_ustar_budget_refusal(three_points, overlap_cover):
    enum = ce.ustar_enumerate(overlap_cover, budget=1)
    assert enum.refused and enum.total == 2
    with pytest.raises(ce.UStarBudgetExceeded):
        iter(enum).__next__()


def test_ustar_outputs_refine(three_points, overlap_cover):
    for fam in ce.ustar_enumerate(overlap_cover):
        assert ce.finer(fam, overlap_cover)
    for fam in ce.ext_partitions(overlap_cover):
        assert ce.finer(fam, overlap_cover)


def test_family_delta_examples(three_points, overlap_cover):
    sys, mu = three_points
    assert ce.family_delta(mu, overlap_cover, overlap_cover).value == 0.0
    V = ce.family_of_points(sys, [[0], [1, 2]], "partition")
    assert ce.family_delta(mu, overlap_cover, V).value == pytest.approx(1 / 3)
    A = ce.family_of_points(sys, [[0], [1], [2]], "partition")
    B = ce.family_of_points(sys, [[1], [0], [2]], "partition")
    assert ce.family_delta(mu, A, B).value == pytest.approx(4 / 3)
    assert ce.family_delta(mu, A, B).value <= 2 * len(A)


def test_family_delta_requires_equal_counts(three_points, overlap_cover):
    sys, mu = three_points
    X = ce.trivial_partition(sys)
    with pytest.raises(families.FamilyError):
        ce.family_delta(mu, overlap_cover, X)


def test_pullback_identity(gm, parry):
    idc = ce.identity_code(gm)
    U = ce.cylinder_partition(gm, 1)
    assert ce.pullback(idc, U).elements == U.elements


def test_pullback_two_block_code(gm):
    vertex = ce.sft([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    phi = ce.FactorMap(gm, vertex, 2, (0, 1, 2))
    singles = ce.cylinder_partition(vertex, 1)
    pulled = ce.pullback(phi, singles)
    assert pulled.window == 2
    # the three 2-cylinders of the domain
    assert masks_of(pulled) == [[0], [1], [2]]


def test_pullback_constant_code(gm):
    one = ce.full_shift(1)
    const = ce.FactorMap(gm, one, 1, (0, 0))
    Y = ce.trivial_partition(one)
    pulled = ce.pullback(const, Y)
    assert len(pulled) == 1
    assert pulled.elements[0] == bitsets.full_mask(pulled.universe_size)


def test_pullback_commutes_with_join(gm):
    vertex = ce.sft([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    phi = ce.FactorMap(gm, vertex, 2, (0, 1, 2))
    U = ce.family_of_words(vertex, 1, [["0", "1"], ["1", "2"]], "cover")
    V = ce.family_of_words(vertex, 1, [["0", "2"], ["1"]], "partition")
    lhs = ce.pullback(phi, ce.join(U, V))
    rhs = ce.join(ce.pullback(phi, U), ce.pullback(phi, V))
    assert set(lhs.elements) == set(rhs.elements)


@st.composite
def point_cover_pair(draw):
    n = draw(st.integers(3, 7))
    d1 = draw(st.integers(1, 3))
    d2 = draw(st.integers(1, 3))

    def cover(d):
        labels = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
        elems = [set(i for i, l in enumerate(labels) if l == m) for m in range(d)]
        extras = draw(st.lists(st.integers(0, n * d - 1), max_size=4))
        for x in extras:
            elems[x % d].add(x // d if x // d < n else x % n)
        elems = [sorted(e) for e in elems if e]
        if not elems:
            elems = [list(range(n))]
        covered = set().union(*map(set, elems))
        if covered != set(range(n)):
            elems.append(sorted(set(range(n)) - covered))
        return elems

    return n, cover(d1), cover(d2)


@settings(max_examples=60, deadline=None)
@given(point_cover_pair())
def test_join_refines_both(pair):
    n, e1, e2 = pair
    sys = ce.permutation(list(range(n)))
    U = ce.family_of_points(sys, e1, "cover")
    V = ce.family_of_points(sys, e2, "cover")
    j = ce.join(U, V)
    assert ce.finer(j, U) and ce.finer(j, V)


@st.composite
def point_masks(draw):
    """Random element masks on up to 80 points (empty, sparse and dense ones),
    plus one element for whatever they leave uncovered."""
    n = draw(st.integers(1, 80))
    masks = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=5))
    rest = ((1 << n) - 1) & ~functools.reduce(operator.or_, masks)
    return n, masks + [rest] if rest else masks


@settings(max_examples=100, deadline=None)
@given(point_masks())
def test_incidence_lists_the_set_bits_of_each_mask(case):
    n, masks = case
    fam = families.SetFamily(ce.permutation(list(range(n))), None, "cover", tuple(masks))
    elems, words = fam.incidence()
    expected = [(m, x) for m, mask in enumerate(masks) for x in range(n) if mask >> x & 1]
    assert list(zip(elems.tolist(), words.tolist())) == expected


def test_partition_invariant_enforced(three_points):
    sys, _ = three_points
    with pytest.raises(families.FamilyError):
        ce.family_of_points(sys, [[0, 1], [1, 2]], "partition")
    with pytest.raises(families.FamilyError):
        ce.family_of_points(sys, [[0], [1]], "cover")  # does not cover
