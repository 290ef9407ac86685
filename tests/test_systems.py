import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import coverentropy as ce
from coverentropy import systems

from conftest import LOG_GOLDEN


def test_full_shift_words(full2):
    assert ce.admissible_words(full2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_golden_mean_words(gm):
    words = ce.admissible_words(gm, 3)
    assert words == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
    assert len(words) == 5  # Fibonacci
    assert ce.admissible_words(gm, 1) == [(0,), (1,)]


def test_word_counts_are_fibonacci(gm):
    # transfer-matrix oracle: counts follow F(n+2)
    fib = [1, 1]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 12):
        assert len(ce.admissible_words(gm, n)) == fib[n + 1]


def test_admissible_words_rejects_bad_input(gm):
    with pytest.raises(ce.systems.SystemError):
        ce.admissible_words(gm, 0)
    with pytest.raises(ce.systems.SystemError):
        ce.admissible_words(ce.permutation([1, 0]), 2)


def test_word_lookup_scales_with_admissible_words():
    # cyclic shift on 100 letters: 100 words at every window although 100**n
    # radix codes exist, so lookups must not index a table of all codes
    k = 100
    cyc = ce.sft([[int(b == (a + 1) % k) for b in range(k)] for a in range(k)])
    uni = systems.word_universe(cyc, 9)
    assert uni.count == k
    for i in (0, 37, k - 1):
        assert uni.index_of(uni.word(i)) == i
    assert list(uni.indices_of_rows(uni.array[::-1])) == list(range(k))[::-1]
    with pytest.raises(systems.SystemError):
        uni.index_of((0,) * 9)
    with pytest.raises(systems.SystemError):
        uni.indices_of_rows(np.zeros((1, 9), dtype=np.int8))
    # 100**10 codes overflow int64
    with pytest.raises(systems.SystemError):
        systems.word_universe(cyc, 10)


def test_word_universe_over_256_letters(full2):
    # the 8-blocks of the 2-shift as letters: 255 does not fit in int8
    blocks = systems.power_system(full2, 8)
    uni = systems.word_universe(blocks, 1)
    assert uni.count == 256
    assert all(uni.index_of(uni.word(i)) == i for i in range(uni.count))
    assert uni.word(255) == (255,)
    wide = systems.word_universe(ce.full_shift(300), 1)
    assert wide.index_of((299,)) == 299


def test_index_of_rejects_words_of_another_length(full2):
    uni = systems.word_universe(full2, 2)
    assert uni.index_of((0, 1)) == 1
    for word in ((1,), (0, 1, 1), ()):
        with pytest.raises(systems.SystemError):
            uni.index_of(word)
    with pytest.raises(systems.SystemError):
        ce.family_of_words(full2, 2, [["1"], ["00", "01", "10", "11"]], "cover")


def test_index_of_rejects_letters_outside_the_alphabet(full2, gm):
    # a letter outside 0..k-1 carries into the radix code of another word:
    # (0, 2) and (1, -1) have the codes of 10 and 01
    with pytest.raises(systems.SystemError):
        ce.family_of_words(full2, 2, [["02"], ["00", "01", "10", "11"]], "cover")
    with pytest.raises(systems.SystemError):
        systems.word_universe(full2, 2).index_of((1, -1))
    with pytest.raises(systems.SystemError):
        systems.word_universe(gm, 2).index_of((0, 2))


def brute_force_universe(sys, n):
    t = sys.transition_array()
    k = sys.alphabet_size
    words = [w for w in itertools.product(range(k), repeat=n)
             if all(t[a, b] for a, b in zip(w, w[1:]))]
    arr = np.array(words, dtype=systems.letter_dtype(k)).reshape(len(words), n)
    return arr, arr.astype(np.int64) @ (k ** np.arange(n - 1, -1, -1, dtype=np.int64))


@pytest.mark.parametrize(
    "sys",
    [ce.full_shift(1), ce.full_shift(2), ce.full_shift(3), ce.golden_mean(),
     ce.sft([[1, 1], [0, 0]])],  # the last has a dead-end letter
    ids=["full1", "full2", "full3", "golden", "dead_end"],
)
def test_word_universe_matches_brute_force(sys):
    for n in range(1, 9):
        uni = systems.word_universe(sys, n)
        arr, codes = brute_force_universe(sys, n)
        assert uni.array.dtype == arr.dtype and uni.codes.dtype == codes.dtype
        assert uni.array.shape == arr.shape
        assert uni.array.tobytes() == arr.tobytes()
        assert uni.codes.tobytes() == codes.tobytes()


def test_single_letter_universe_at_any_length():
    # 1**n never overflows, so n is unbounded; one word of zeros at any length
    uni = systems.word_universe(ce.full_shift(1), 5000)
    assert uni.array.shape == (1, 5000) and not uni.array.any()
    assert uni.codes.tolist() == [0] and uni.index_of((0,) * 5000) == 0


def test_word_universe_refuses_wide_codes_before_building_shorter_words(full2):
    # the length check runs before the universe one letter shorter is built
    cached = systems.word_universe.cache_info().currsize
    cyc = ce.sft([[int(b == (a + 1) % 101) for b in range(101)] for a in range(101)])
    with pytest.raises(systems.SystemError):
        systems.word_universe(cyc, 10)  # 101**10 >= 2**63
    assert systems.word_universe.cache_info().currsize == cached
    with pytest.raises(systems.SystemError):
        systems.word_universe(full2, 63)
    assert systems.word_universe.cache_info().currsize == cached


def test_word_closure(gm):
    words4 = set(ce.admissible_words(gm, 4))
    words3 = set(ce.admissible_words(gm, 3))
    for w in words4:
        assert w[:-1] in words3 and w[1:] in words3


def test_growth_full_shift(full2):
    assert ce.word_count_growth(full2, 10) == pytest.approx(math.log(2), abs=1e-12)


def test_growth_golden_mean_near_spectral_radius(gm):
    # independent oracle: spectral radius of the transition matrix
    radius = max(abs(np.linalg.eigvals(np.array(gm.transition, dtype=float))))
    assert math.isclose(math.log(radius), LOG_GOLDEN, abs_tol=1e-12)
    assert abs(ce.word_count_growth(gm, 20) - LOG_GOLDEN) < 0.05


def test_growth_single_letter():
    assert ce.word_count_growth(ce.full_shift(1), 5) == 0.0


def test_growth_requires_two_windows(gm):
    with pytest.raises(ce.systems.SystemError):
        ce.word_count_growth(gm, 1)


def test_power_system_identity(gm):
    assert ce.power_system(gm, 1) == gm


def test_power_system_golden_mean(gm):
    p2 = ce.power_system(gm, 2)
    assert ce.admissible_words(gm, 2) == [(0, 0), (0, 1), (1, 0)]
    # non-overlapping blocks: uv allowed iff the concatenation is admissible
    blocks = ce.admissible_words(gm, 2)
    four = set(ce.admissible_words(gm, 4))
    for i, u in enumerate(blocks):
        for j, v in enumerate(blocks):
            assert bool(p2.transition[i][j]) == (u + v in four)


def test_power_system_block_bijection(gm, full2):
    for sys in (gm, full2):
        for M in (2, 3):
            pow_sys = ce.power_system(sys, M)
            for n in (1, 2):
                assert len(ce.admissible_words(pow_sys, n)) == len(
                    ce.admissible_words(sys, n * M)
                )


def test_power_system_permutation_cycle():
    four_cycle = ce.permutation([1, 2, 3, 0])
    sq = ce.power_system(four_cycle, 2)
    assert sq.mapping == (2, 3, 0, 1)
    cycles = systems.permutation_cycles(sq)
    assert sorted(len(c) for c in cycles) == [2, 2]


def test_power_system_rejects_zero(gm):
    with pytest.raises(ce.systems.SystemError):
        ce.power_system(gm, 0)


def test_sft_requires_essential_part():
    with pytest.raises(ce.systems.SystemError):
        ce.sft([[0, 1], [0, 0]])  # no bi-infinite path


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sft_accepts_exactly_the_graphs_with_a_cycle(data):
    # brute force: a graph on k states has a path of k edges iff it has a cycle
    k = data.draw(st.one_of(st.integers(1, 7), st.integers(8, 12)))
    A = data.draw(hnp.arrays(np.int64, (k, k), elements=st.sampled_from([0, 0, 1])))
    has_cycle = bool(np.linalg.matrix_power(A, k).any())
    try:
        ce.sft(A.tolist())
        accepted = True
    except systems.SystemError:
        accepted = False
    assert accepted == has_cycle


def test_permutation_requires_bijection():
    with pytest.raises(ce.systems.SystemError):
        ce.permutation([0, 0, 1])


def test_full_shift_agrees_with_all_ones_sft():
    fs = ce.full_shift(2)
    explicit = ce.sft([[1, 1], [1, 1]])
    for n in (1, 2, 3):
        assert ce.admissible_words(fs, n) == ce.admissible_words(explicit, n)


def test_factor_map_validation(gm):
    vertex = ce.sft([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    phi = ce.FactorMap(gm, vertex, 2, (0, 1, 2))
    assert phi.is_injective
    with pytest.raises(ce.systems.SystemError):
        ce.FactorMap(gm, vertex, 2, (0, 1, 1))  # not surjective
    with pytest.raises(ce.systems.SystemError):
        # images violate codomain admissibility
        ce.FactorMap(gm, ce.sft([[1, 0], [1, 1]]), 1, (0, 1))


def test_identity_code(gm):
    idc = ce.identity_code(gm)
    assert idc.block_length == 1 and idc.is_injective
    idx = idc.image_indices(3)
    assert list(idx) == list(range(len(ce.admissible_words(gm, 3))))
