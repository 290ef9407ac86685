import functools
import itertools
import math
import operator
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverentropy as ce
from coverentropy import bitsets, dynamic_entropy, families, verify


def masks_of(fam):
    return [list(bitsets.iter_bits(m)) for m in fam.elements]


def merge_masks(masks):
    """Oracle of the cover joins: the distinct nonempty masks, ordered by
    size, then least word, then raw mask."""
    distinct = {m: None for m in masks if m}
    return tuple(sorted(distinct, key=lambda m: (m.bit_count(), (m & -m).bit_length(), m)))


def preimage(mask, size, index_map):
    """Oracle of the read-through families: the positions j whose image
    index_map[j] lies in `mask`, a set over a universe of `size` elements."""
    return bitsets.mask_from_bools(bitsets.bools_from_mask(mask, size)[index_map])


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


@st.composite
def family_pairs(draw):
    """Two families on one carrier, a word system at window 1 or 2 or a
    permutation of 2 to 8 points, built from index lists: each a partition
    or a cover with extra and empty elements, the first often a join with the
    second or the second itself, so that both answers of `finer` occur."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 8))
        sys, window, size = ce.permutation(list(range(n))), None, n
    else:
        sys = draw(st.sampled_from([ce.full_shift(2), ce.golden_mean(), ce.full_shift(3)]))
        window = draw(st.integers(1, 2))
        size = ce.systems.word_universe(sys, window).count

    def family():
        kind = draw(st.sampled_from(["cover", "partition"]))
        labels = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        cells = [[x for x in range(size) if labels[x] == c] for c in sorted(set(labels))]
        if kind == "cover":
            cells += draw(st.lists(st.lists(st.integers(0, size - 1), max_size=size),
                                   max_size=3))
        if window is None:
            return ce.family_of_points(sys, cells, kind)
        uni = ce.systems.word_universe(sys, window)
        return ce.family_of_words(sys, window, [[uni.word(x) for x in c] for c in cells], kind)

    V = family()
    how = draw(st.sampled_from(["free", "join", "same"]))
    U = {"free": family, "join": lambda: ce.join(family(), V), "same": lambda: V}[how]()
    return U, V


@settings(max_examples=200, deadline=None)
@given(family_pairs())
def test_finer_reads_memberships_and_matches_the_masks(pair):
    U, V = pair
    with mock.patch.object(bitsets, "mask_from_indices", wraps=bitsets.mask_from_indices) as spy:
        got = ce.finer(U, V)
    assert spy.call_count == 0
    assert "elements" not in U.__dict__ and "elements" not in V.__dict__
    assert got == all(any(u & ~v == 0 for v in V.elements) for u in U.elements)


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


def _product_labels(U):
    """Reference order: `itertools.product` over each word's holders,
    ascending, the last word varying fastest."""
    holders = [[m for m, e in enumerate(U.elements) if e >> x & 1]
               for x in range(U.universe_size)]
    rows = list(itertools.product(*holders))
    return np.array(rows, dtype=np.int64).reshape(len(rows), U.universe_size)


def test_ustar_labels_follow_product_order(three_points, overlap_cover):
    sys, _ = three_points
    rng = np.random.default_rng(5)
    covers = [
        overlap_cover,
        ce.family_of_points(sys, [[0], [1, 2]], "partition"),
        ce.family_of_points(ce.permutation([0, 1]), [[0, 1], [0], [0]], "cover"),
    ]
    for _ in range(30):
        inst = verify.rand_point_instance(rng, ustar_cap=512)
        covers.append(verify.build_point_instance(inst)[2][0])
    for U in covers:
        enum = ce.ustar_enumerate(U)
        full = enum.labels()
        assert full.shape == (enum.total, U.universe_size)
        np.testing.assert_array_equal(full, _product_labels(U))
        n = enum.total
        for lo, hi in ((0, 1), (0, n), (1, n), (n // 2, n // 2 + 3), (n - 1, n), (2, n + 5)):
            np.testing.assert_array_equal(enum.labels(lo, hi), full[lo:hi])
        # each family of the iteration is its row, in the same order
        for row, fam in zip(full, enum):
            assert fam.elements == tuple(
                bitsets.mask_from_indices(np.flatnonzero(row == m)) for m in range(len(U))
            )


def test_ustar_labels_refusal(three_points, overlap_cover):
    enum = ce.ustar_enumerate(overlap_cover, budget=1)
    with pytest.raises(ce.UStarBudgetExceeded):
        enum.labels()
    with pytest.raises(ce.UStarBudgetExceeded):
        enum.labels(0, 1)


def test_ustar_iteration_is_lazy():
    sys = ce.permutation(list(range(20)))
    everything = list(range(20))
    U = ce.family_of_points(sys, [everything, everything], "cover")
    enum = ce.ustar_enumerate(U, budget=1 << 20)
    assert enum.total == 1 << 20 and not enum.refused
    tracemalloc.start()
    try:
        first = list(itertools.islice(enum, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    full = bitsets.full_mask(20)
    assert [f.elements for f in first[:2]] == [(full, 0), (full ^ 1 << 19, 1 << 19)]


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


def test_pullback_and_block_recode_read_through_preimages(gm):
    # a partition's labels are gathered and a cover's masks preimaged; both
    # give the preimage masks in U's order, with the caches of fresh masks
    vertex = ce.sft([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    phi = ce.FactorMap(gm, vertex, 2, (0, 1, 2))
    for kind, words in (("partition", [["00", "01"], ["12"], ["20", "21"]]),
                        ("cover", [["00", "01", "12"], ["12", "20", "21"]])):
        U = ce.family_of_words(vertex, 2, words, kind)
        idx = phi.image_indices(2)
        want = tuple(preimage(m, U.universe_size, idx) for m in U.elements)
        got = ce.pullback(phi, U)
        assert (got.system, got.window, got.kind, got.elements) == (gm, 3, kind, want)
        assert_seeded_caches_match_fresh(got)
        V = ce.family_of_words(gm, 3, [["000", "001", "010"], ["100", "101"]], kind)
        rec = ce.block_recode(V, 2)
        assert (rec.system, rec.window, rec.kind) == (ce.power_system(gm, 2), 2, kind)
        assert rec.elements == ce.extend_window(V, 4).elements
        assert_seeded_caches_match_fresh(rec)


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=80))
def test_partition_labels_match_per_mask_definition(labels):
    n = len(labels)
    cells = [[x for x in range(n) if labels[x] == c] for c in sorted(set(labels))]
    fam = ce.family_of_points(ce.permutation(list(range(n))), cells, "partition")
    expected = np.full(n, -1)
    for i, m in enumerate(fam.elements):
        expected[bitsets.bools_from_mask(m, n)] = i
    assert families.partition_labels(fam).tolist() == expected.tolist()


def mask_product_join(U, M, N):
    """(window, kind, elements) of ⋁_{n=M}^{N} T^{-n} U as the literal
    pairwise product of the element masks at every n: on a word carrier U
    placed at offset n - M of window (N - M) + L, on a point carrier the
    preimages of U's masks under the n-th power of the permutation."""
    if U.system.is_word_system:
        window = (N - M) + U.window
        offsets = [ce.view_in_window(U, n - M, window).elements for n in range(M, N + 1)]
    else:
        window, mapping = None, U.system.mapping

        def power(x, n):
            for _ in range(n):
                x = mapping[x]
            return x

        offsets = [[sum(1 << x for x in range(len(mapping)) if m >> power(x, n) & 1)
                    for m in U.elements] for n in range(M, N + 1)]
    live = offsets[0]
    for pos in offsets[1:]:
        live = [c & m for c in live for m in pos if c & m]
    return window, U.kind, merge_masks(live)


def assert_seeded_caches_match_fresh(J):
    fresh = families.SetFamily(J.system, J.window, J.kind, J.elements)
    pairs = list(zip(J.incidence(), fresh.incidence()))
    if J.kind == "partition":
        pairs.append((families.partition_labels(J), families.partition_labels(fresh)))
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@st.composite
def word_partitions(draw):
    """A random partition of a word carrier at window 1 or 2, with a second
    one on the same carrier and a join range M < N <= 4."""
    sys = draw(st.sampled_from([ce.full_shift(2), ce.golden_mean(), ce.full_shift(3)]))
    window = draw(st.integers(1, 2))
    size = ce.systems.word_universe(sys, window).count

    def partition():
        labels = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
        cells = [[x for x in range(size) if labels[x] == c] for c in sorted(set(labels))]
        masks = tuple(bitsets.mask_from_indices(c) for c in cells)
        return families.SetFamily(sys, window, "partition", masks)

    N = draw(st.integers(1, 4))
    return partition(), partition(), draw(st.integers(0, N - 1)), N


@settings(max_examples=150, deadline=None)
@given(word_partitions())
def test_label_joins_equal_the_mask_product(case):
    U, V, M, N = case
    J = ce.dynamical_join(U, M, N)
    assert (J.window, J.kind, J.elements) == mask_product_join(U, M, N)
    assert_seeded_caches_match_fresh(J)
    P = ce.join(U, V)
    assert P.elements == merge_masks(u & v for u in U.elements for v in V.elements)
    assert_seeded_caches_match_fresh(P)


def test_dynamical_join_of_many_cells_is_the_longer_cylinder_partition(gm):
    # 144 cells at 9 offsets: 144**9 label sequences overflow any int64 code
    J = ce.dynamical_join(ce.cylinder_partition(gm, 10), 0, 8)
    assert J.elements == ce.cylinder_partition(gm, 18).elements


@st.composite
def step_join_cases(draw):
    """A family U (a partition, possibly with an empty cell, or a cover of at
    most four elements) and a partition beta, possibly {X}, on one carrier:
    a word system at window 1 or 2, or a permutation of 2 to 8 points."""
    sys = draw(st.sampled_from([
        ce.full_shift(2), ce.full_shift(3), ce.golden_mean(), ce.sft([[1, 1], [0, 0]]),
        None,
    ]))
    if sys is None:
        n = draw(st.integers(2, 8))
        sys, window, size = ce.permutation(draw(st.permutations(range(n)))), None, n
    else:
        # the 3-shift stays at window 1, where its cover products stay small
        top = 2 if sys.alphabet_size == 2 else 1
        window = draw(st.integers(1, top))
        size = ce.systems.word_universe(sys, window).count

    def labels(most):
        return draw(st.lists(st.integers(0, most - 1), min_size=size, max_size=size))

    def partition(lab, empty_cell):
        cells = [[x for x in range(size) if lab[x] == c] for c in sorted(set(lab))]
        cells += [[]] * empty_cell
        return families.SetFamily(sys, window, "partition",
                                  tuple(bitsets.mask_from_indices(c) for c in cells))

    if draw(st.booleans()):
        U = partition(labels(size), draw(st.booleans()))
    else:
        lab = labels(min(size, 4))
        extra = draw(st.lists(st.sets(st.integers(0, size - 1)), min_size=max(lab) + 1,
                              max_size=max(lab) + 1))
        masks = [bitsets.mask_from_indices({x for x in range(size) if lab[x] == c} | more)
                 for c, more in enumerate(extra)]
        U = families.SetFamily(sys, window, "cover", tuple(m for m in masks if m))
    beta = ce.trivial_partition(sys, window) if draw(st.booleans()) else (
        partition(labels(size), False))
    return U, beta


@settings(max_examples=120, deadline=None)
@given(step_join_cases(), st.integers(1, 3))
def test_step_built_joins_equal_the_mask_product(case, M):
    U, beta = case
    for N in range(2, 7):
        uj, bj = dynamic_entropy._joined_pair(U, beta, N)
        for got, F in ((uj, U), (bj, beta)):
            assert (got.window, got.kind, got.elements) == mask_product_join(F, 0, N - 1)
            assert_seeded_caches_match_fresh(got)
            shifted = ce.dynamical_join(F, M, M + N - 1)
            assert (shifted.window, shifted.kind, shifted.elements) == (
                mask_product_join(F, M, M + N - 1))
            assert_seeded_caches_match_fresh(shifted)


def test_word_joins_are_kept_on_the_family(gm):
    U = ce.cylinder_partition(gm, 1)
    for M, N in ((0, 0), (1, 1), (2, 5), (0, 3), (4, 7), (1, 6)):
        assert ce.dynamical_join(U, M, N) is ce.dynamical_join(U, 0, N - M)


def test_rate_loop_reuses_the_joins_of_a_one_shot_call(gm):
    U, X = ce.cylinder_partition(gm, 1), ce.trivial_partition(gm, 1)
    J = ce.dynamical_join(U, 2, 5)
    with mock.patch.object(families, "join_step", wraps=families.join_step) as spy:
        ce.covering_rate(U, X, n_max=4)
    assert [call.args[0] is X for call in spy.call_args_list] == [True] * 3
    assert dynamic_entropy._joined_pair(U, X, 4)[0] is J


def test_one_element_families_join_to_one_element(gm, three_points):
    for kind in ("partition", "cover"):
        X = families.SetFamily(gm, 2, kind, (bitsets.full_mask(3),))
        J = ce.dynamical_join(X, 1, 4)
        assert (J.window, J.kind, J.elements) == (5, kind, (bitsets.full_mask(13),))
        assert_seeded_caches_match_fresh(J)
        assert families.join_step(X, ce.dynamical_join(X, 0, 2), 3).elements == (
            ce.dynamical_join(X, 0, 3).elements)
    X = ce.trivial_partition(three_points[0])
    for trivial in (X, ce.trivial_partition(gm), ce.trivial_partition(gm, 3)):
        assert_seeded_caches_match_fresh(trivial)
    assert ce.dynamical_join(X, 2, 5) is X
    assert families.join_step(X, X, 1) is X


@st.composite
def label_built_partitions(draw):
    """A partition built from labels by `join`, `dynamical_join`, `join_step`
    or `view_in_window`, on a word carrier at window 1 or 2, possibly one
    where some words have no successor, so that a viewed cell may be empty."""
    sys = draw(st.sampled_from([ce.full_shift(2), ce.golden_mean(), ce.full_shift(3),
                                ce.sft([[1, 1], [0, 0]])]))
    window = draw(st.integers(1, 2))
    size = ce.systems.word_universe(sys, window).count

    def partition():
        labels = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
        cells = [[x for x in range(size) if labels[x] == c] for c in sorted(set(labels))]
        return families.SetFamily(sys, window, "partition",
                                  tuple(bitsets.mask_from_indices(c) for c in cells))

    U = partition()
    how = draw(st.sampled_from(["join", "dynamical_join", "join_step", "view_in_window"]))
    if how == "join":
        return U, ce.join(U, partition()), None
    N = draw(st.integers(1, 3))
    if how == "dynamical_join":
        return U, ce.dynamical_join(U, draw(st.integers(0, N - 1)), N), None
    if how == "join_step":
        return U, families.join_step(U, ce.dynamical_join(U, 0, N - 1), N), None
    offset = draw(st.integers(0, N))
    return U, families.view_in_window(U, offset, window + N), offset


@settings(max_examples=150, deadline=None)
@given(label_built_partitions())
def test_label_built_partitions_equal_mask_built_ones(case):
    U, fam, offset = case
    X = ce.trivial_partition(fam.system, fam.window)
    size = fam.universe_size
    mu = ce.measures.ConditionalMeasure(fam.system, fam.window, 0, np.full(size, 1 / size), 1.0)
    with mock.patch.object(bitsets, "mask_from_indices", wraps=bitsets.mask_from_indices) as spy:
        n = len(fam)
        labels = families.partition_labels(fam).copy()
        fam.incidence()
        count = ce.static_entropy.covering_number(fam, X)
        h = ce.static_entropy.conditional_entropy(mu, fam, X).nats
        assert spy.call_count == 0
    ref = families.SetFamily(fam.system, fam.window, "partition", tuple(fam.elements))
    assert type(fam.elements) is tuple
    assert (fam == ref, hash(fam), len(fam), repr(fam)) == (True, hash(ref), n, repr(ref))
    assert_seeded_caches_match_fresh(fam)
    assert families.partition_labels(ref).tolist() == labels.tolist()
    assert ce.static_entropy.covering_number(ref, X) == count
    assert ce.static_entropy.conditional_entropy(mu, ref, X).nats == h
    if offset is not None:  # a view keeps U's cells in order, as their preimages
        base = ce.systems.word_universe(U.system, U.window)
        target = ce.systems.word_universe(U.system, fam.window)
        idx = base.indices_of_rows(target.array[:, offset : offset + U.window])
        assert fam.elements == tuple(preimage(m, base.count, idx) for m in U.elements)


def test_label_built_partition_rejects_bad_labels(gm):
    size = ce.systems.word_universe(gm, 2).count
    with pytest.raises(families.FamilyError):
        families._from_labels(gm, 2, np.zeros(size - 1, dtype=np.int64), 1)
    for bad in (-1, 2):
        labels = np.zeros(size, dtype=np.int64)
        labels[1] = bad
        with pytest.raises(families.FamilyError):
            families._from_labels(gm, 2, labels, 2)
    assert families._from_labels(gm, 2, np.arange(size), size) == ce.cylinder_partition(gm, 2)


def test_mask_checks_fire_each_message(gm):
    cases = [
        ((-1, 7), "outside the carrier universe"),  # a negative mask
        ((7, 1 << 3), "outside the carrier universe"),  # a bit past the 3 words
        ((1, 2), "do not cover the carrier"),  # a gap: word 2 has no element
        ((3, 6), "not pairwise disjoint"),  # word 1 in two cells
    ]
    for masks, message in cases:
        with pytest.raises(families.FamilyError, match=message):
            families.SetFamily(gm, 2, "partition", masks)
    # the list constructors check their indices in the same terms
    points = ce.permutation([1, 2, 0])
    for cells, message in (([[-1, 0], [1, 2]], "outside the carrier universe"),
                           ([[0, 1, 2], [3]], "outside the carrier universe"),
                           ([[0], [1]], "do not cover the carrier"),
                           ([[0, 1], [1, 2]], "not pairwise disjoint"),
                           ([], "at least one element")):
        with pytest.raises(families.FamilyError, match=message):
            ce.family_of_points(points, cells, "partition")
    for words, message in (([["00"], ["01"]], "do not cover the carrier"),
                           ([["00", "01"], ["01", "10"]], "not pairwise disjoint")):
        with pytest.raises(families.FamilyError, match=message):
            ce.family_of_words(gm, 2, words, "partition")


def ext_partition_masks(U, order):
    """Oracle of `ext_partitions`: the ordered differences of U's masks."""
    remaining, cells = bitsets.full_mask(U.universe_size), []
    for i in order:
        cells.append(U.elements[i] & remaining)
        remaining &= ~cells[-1]
    return tuple(cells)


@st.composite
def built_families(draw):
    """A family built by a library constructor, as a function that builds it
    afresh, with the (system, window, kind, masks) of its mask-built twin.
    The carrier is a word system at window 1 or 2 or a permutation of 2 to
    8 points; list inputs repeat an index, hold numpy integers and, for a
    cover, an empty element; input families are built from lists or masks."""
    points = draw(st.booleans())
    sys = None if points else draw(st.sampled_from(
        [ce.full_shift(2), ce.golden_mean(), ce.full_shift(3)]))
    if points:
        n = draw(st.integers(2, 8))
        sys, window, size = ce.permutation(draw(st.permutations(range(n)))), None, n
    else:
        window = draw(st.integers(1, 2 if sys.alphabet_size == 2 else 1))
        size = ce.systems.word_universe(sys, window).count
    uni = ce.systems.word_universe(sys, window) if window else None

    def lists(kind):
        labels = draw(st.lists(st.integers(0, min(size, 4) - 1), min_size=size, max_size=size))
        cells = [[x for x in range(size) if labels[x] == c] for c in sorted(set(labels))]
        if kind == "cover":
            cells += draw(st.lists(st.lists(st.integers(0, size - 1), max_size=3), max_size=2))
            cells.append([])
        return [[np.int64(x) for x in c] + c[:1] for c in cells]

    def built(kind, cells):
        if window is None:
            return lambda: ce.family_of_points(sys, cells, kind)
        words = [[uni.word(int(x)) if x % 2 else "".join(map(str, uni.word(int(x))))
                  for x in c] for c in cells]
        return lambda: ce.family_of_words(sys, window, words, kind)

    def family(kind):
        cells = lists(kind)
        masks = tuple(bitsets.mask_from_indices(set(map(int, c))) for c in cells)
        if draw(st.booleans()):
            return families.SetFamily(sys, window, kind, masks)
        return built(kind, cells)()

    how = draw(st.sampled_from(["lists", "cylinders", "ext", "ustar", "join", "join_step",
                                "pulled"]))
    kind = draw(st.sampled_from(["cover", "partition"]))
    if how == "lists":
        cells = lists(kind)
        masks = tuple(bitsets.mask_from_indices(set(map(int, c))) for c in cells)
        return built(kind, cells), (sys, window, kind, masks)
    if how == "cylinders" and window is not None:
        masks = tuple(1 << x for x in range(size))
        return (lambda: ce.cylinder_partition(sys, window)), (sys, window, "partition", masks)
    U = family(kind)
    if how == "ext" and len(U) <= 4:
        k = draw(st.integers(0, math.factorial(len(U)) - 1))
        order = next(itertools.islice(itertools.permutations(range(len(U))), k, None))
        return ((lambda: next(itertools.islice(ce.ext_partitions(U), k, None))),
                (sys, window, "partition", ext_partition_masks(U, order)))
    if how == "ustar" and ce.ustar_enumerate(U).total <= 512:
        enum = ce.ustar_enumerate(U)
        k = draw(st.integers(0, enum.total - 1))
        row = enum.labels(k, k + 1)[0]
        masks = tuple(bitsets.mask_from_indices(np.flatnonzero(row == m)) for m in range(len(U)))
        return ((lambda: next(itertools.islice(iter(enum), k, None))),
                (sys, window, "partition", masks))
    if how == "join":
        V = family(draw(st.sampled_from(["cover", "partition"])))
        masks = merge_masks(u & v for u in U.elements for v in V.elements)
        joined = "partition" if (U.kind, V.kind) == ("partition",) * 2 else "cover"
        return (lambda: ce.join(U, V)), (sys, window, joined, masks)
    n = draw(st.integers(1, 3))
    if how == "pulled" and window is None and len(U) > 1:
        return (lambda: families._pulled(U, n)), (sys, None) + mask_product_join(U, n, n)[1:]
    if len(U) == 1 and window is None:  # {X} steps to itself, U
        return (lambda: ce.trivial_partition(sys)), (sys, None, "partition", (U.elements[0],))
    J = ce.dynamical_join(U, 0, n - 1)
    return (lambda: families.join_step(U, J, n)), (sys,) + mask_product_join(U, 0, n)


@settings(max_examples=300, deadline=None)
@given(built_families())
def test_constructor_built_families_equal_mask_built_ones(case):
    make, (system, window, kind, masks) = case
    ref = families.SetFamily(system, window, kind, masks)
    with mock.patch.object(bitsets, "mask_from_indices", wraps=bitsets.mask_from_indices) as spy:
        fams = [make() for _ in range(4)]
        for fam in fams:
            assert len(fam) == len(masks)
            fam.incidence()
            if kind == "partition":
                families.partition_labels(fam)
        assert spy.call_count == 0
    # each of the four reads makes the masks of a family that has none yet
    for fam, read in zip(fams, (lambda f: f.elements, lambda f: f == ref, hash, repr)):
        assert "elements" not in fam.__dict__
        assert read(fam) == read(ref)
        assert fam.elements == masks and type(fam.elements) is tuple
        assert_seeded_caches_match_fresh(fam)


def test_partition_invariant_enforced(three_points):
    sys, _ = three_points
    with pytest.raises(families.FamilyError):
        ce.family_of_points(sys, [[0, 1], [1, 2]], "partition")
    with pytest.raises(families.FamilyError):
        ce.family_of_points(sys, [[0], [1]], "cover")  # does not cover


def test_property_suites_unpack_no_masks_and_cover_rates_make_none(gm, parry):
    """The static property suites never unpack masks, and a cover rate loop
    makes none: every family they build comes from its memberships."""
    specs = {s.name: s for s in verify.PROPERTIES}
    names = ["static.route_equality", "static.entropy_axioms", "static.counting_axioms",
             "static.counting_exactness", "static.concavity_in_measure"]
    with mock.patch.object(bitsets, "unpack_masks", wraps=bitsets.unpack_masks) as unpack:
        for name in names:
            res = verify.run_property(specs[name], 42, 20)
            assert (res.passed, res.tested) == (True, 20)
    assert unpack.call_count == 0
    U = ce.family_of_words(gm, 2, [["00", "10"], ["01", "10"]], "cover")
    with mock.patch.object(bitsets, "mask_from_indices", wraps=bitsets.mask_from_indices) as made, \
            mock.patch.object(bitsets, "mask_from_bools", wraps=bitsets.mask_from_bools) as packed:
        ce.joined_cover_rate(parry, U, ce.cylinder_partition(gm, 1), n_max=6)
    assert made.call_count == packed.call_count == 0
