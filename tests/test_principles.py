import math

import numpy as np
import pytest

import coverentropy as ce
from coverentropy import measures, principles, systems

from conftest import LOG2


@pytest.fixture
def vertex_code(gm):
    vertex = ce.sft([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    return vertex, ce.FactorMap(gm, vertex, 2, (0, 1, 2))


def test_pushforward_identity(gm, parry):
    idc = ce.identity_code(gm)
    nu = ce.pushforward(idc, parry)
    assert np.allclose(nu.pi, parry.pi) and np.allclose(nu.P, parry.P)


def test_pushforward_injective_recoding(gm, parry, vertex_code):
    vertex, phi = vertex_code
    nu = ce.pushforward(phi, parry)
    # cylinder-mass transport oracle: nu([a]) = mu of the coded 2-cylinder
    blocks = ce.admissible_words(gm, 2)
    for a, block in enumerate(blocks):
        assert nu.pi[a] == pytest.approx(ce.cylinder_mass(parry, block), abs=1e-12)
    # and on 2-cylinders of the codomain
    w2 = measures.weights_for(nu, vertex, 2)
    uni = systems.word_universe(vertex, 2)
    for i in range(uni.count):
        a, b = uni.word(i)
        dom_word = blocks[a] + (blocks[b][1],)
        assert w2[i] == pytest.approx(ce.cylinder_mass(parry, dom_word), abs=1e-12)


def test_pushforward_constant_code(gm, parry):
    const = ce.FactorMap(gm, ce.full_shift(1), 1, (0, 0))
    nu = ce.pushforward(const, parry)
    assert nu.pi == pytest.approx([1.0])


def test_factor_invariance_identity(gm, parry):
    idc = ce.identity_code(gm)
    U = ce.cylinder_partition(gm, 1)
    X = ce.trivial_partition(gm, 1)
    rep = ce.factor_invariance_check(idc, parry, U, X, n_max=5)
    assert rep.verdict == "holds_within_tol" and rep.gap == 0.0


def test_factor_invariance_recoding(gm, parry, vertex_code):
    vertex, phi = vertex_code
    U = ce.family_of_words(vertex, 1, [["0", "1"], ["1", "2"]], "cover")
    beta = ce.cylinder_partition(vertex, 1)
    rep = ce.factor_invariance_check(phi, parry, U, beta, n_max=5)
    assert rep.verdict == "holds_within_tol"
    assert rep.gap <= 1e-9


def test_factor_invariance_constant_code(gm, parry):
    const = ce.FactorMap(gm, ce.full_shift(1), 1, (0, 0))
    U = ce.trivial_partition(ce.full_shift(1), 1)
    Y = ce.trivial_partition(ce.full_shift(1), 1)
    rep = ce.factor_invariance_check(const, parry, U, Y, n_max=4)
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_measure_builder_matches_stationary_of():
    # the builder finds the recurrent class once; its pi must be the bytes
    # stationary_of gives, also when a softmax entry underflows to 0
    rng = np.random.default_rng(3)
    for sys in (ce.full_shift(2), ce.golden_mean(),
                ce.sft([[1, 1, 0], [0, 0, 1], [1, 1, 0]])):
        dim, build = principles._measure_parameterization(sys)
        for scale in (1.0, 1000.0):
            for _ in range(20):
                theta = rng.normal(size=dim) * scale
                try:
                    mu = build(theta)
                except measures.MeasureError:
                    continue
                assert mu.pi.tobytes() == measures.stationary_of(mu.P).tobytes()


def test_measure_builder_refuses_reducible_systems():
    # two disjoint loops: every build is refused, as stationary_of refuses
    sys = ce.sft([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
    dim, build = principles._measure_parameterization(sys)
    with pytest.raises(ce.ReducibleChainError):
        build(np.zeros(dim))


def test_variational_search_trivial_when_conditioner_refines(full2):
    U = ce.family_of_words(full2, 1, [["0"], ["1"]], "cover")
    beta = ce.cylinder_partition(full2, 1)
    rep = ce.variational_search(full2, U, beta, n_max=4, starts=2, max_iter=30)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict == "holds_within_tol"


def test_variational_search_records_trace(full2):
    U = ce.cylinder_partition(full2, 1)
    X = ce.trivial_partition(full2, 1)
    rep = ce.variational_search(full2, U, X, n_max=5, starts=2, max_iter=40, seed=3)
    assert len(rep.details["trace"]) == 2
    assert rep.details["start_seeds"] == rep.details["start_seeds"]
    again = ce.variational_search(full2, U, X, n_max=5, starts=2, max_iter=40, seed=3)
    assert rep.rhs == again.rhs  # bit-reproducible given the seed


def test_minmax_partition_case(full2):
    U = ce.cylinder_partition(full2, 1)
    X = ce.trivial_partition(full2, 1)
    grid = [ce.bernoulli(full2, [0.5, 0.5]), ce.bernoulli(full2, [0.2, 0.8])]
    rep = ce.minmax_check(full2, U, X, grid, n_max=8, refine_starts=0)
    assert rep.lhs == pytest.approx(LOG2, abs=1e-9)
    assert rep.rhs == pytest.approx(LOG2, abs=1e-9)
    assert rep.verdict == "holds_within_tol"


def test_minmax_trivial_zero(full2):
    U = ce.family_of_words(full2, 1, [["0"], ["1"]], "cover")
    beta = ce.cylinder_partition(full2, 1)
    grid = [ce.bernoulli(full2, [0.5, 0.5])]
    rep = ce.minmax_check(full2, U, beta, grid, n_max=4, refine_starts=0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict == "holds_within_tol"


def test_minmax_monotone_in_grid(full3):
    U = ce.family_of_words(full3, 1, [["0", "1"], ["1", "2"]], "cover")
    X = ce.trivial_partition(full3, 1)
    g1 = [ce.bernoulli(full3, [1 / 3, 1 / 3, 1 / 3])]
    g2 = g1 + [ce.bernoulli(full3, [0.2, 0.6, 0.2])]
    r1 = ce.minmax_check(full3, U, X, g1, n_max=4, refine_starts=0)
    r2 = ce.minmax_check(full3, U, X, g2, n_max=4, refine_starts=0)
    assert r2.lhs >= r1.lhs - 1e-12  # larger grid, larger inner sup


def test_variational_search_rejects_fewer_than_one_start(full2):
    U = ce.cylinder_partition(full2, 1)
    X = ce.trivial_partition(full2, 1)
    for starts in (0, -1):
        with pytest.raises(ValueError, match=f"starts must be >= 1, got {starts}"):
            ce.variational_search(full2, U, X, n_max=3, starts=starts)


def test_variational_search_rejects_fewer_than_one_iteration(full2):
    U = ce.cylinder_partition(full2, 1)
    X = ce.trivial_partition(full2, 1)
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        ce.variational_search(full2, U, X, n_max=3, max_iter=0)


def test_minmax_rejects_an_empty_measure_grid(full2):
    U = ce.cylinder_partition(full2, 1)
    X = ce.trivial_partition(full2, 1)
    for empty in ([], iter([])):
        with pytest.raises(ValueError, match="measure_grid must hold at least one"):
            ce.minmax_check(full2, U, X, empty, n_max=3)


def test_minmax_rejects_negative_refine_starts(full2):
    U = ce.cylinder_partition(full2, 1)
    X = ce.trivial_partition(full2, 1)
    grid = [ce.bernoulli(full2, [0.5, 0.5])]
    with pytest.raises(ValueError, match="refine_starts must be >= 0, got -1"):
        ce.minmax_check(full2, U, X, grid, n_max=3, refine_starts=-1)


def _simplex_cases():
    # seeded objectives on dims 1-4: quadratic, Rosenbrock and a floor of a
    # quadratic whose plateaus tie vertex values; zeros in x0 take the 0.00025
    # branch of the first simplex; both callers' tolerances, maxiter 1-200
    rng = np.random.default_rng(2024)
    for case in range(120):
        dim = int(rng.integers(1, 5))
        c = rng.normal(size=dim)
        kind = case % 3
        if kind == 0:
            def f(x, c=c):
                return float(np.sum((x - c) ** 2))
        elif kind == 1:
            def f(x, c=c):
                y = x + c
                return float(np.sum(100 * (y[1:] - y[:-1] ** 2) ** 2 + (1 - y[:-1]) ** 2)
                             + (y[0] - 1) ** 2)
        else:
            def f(x, c=c):
                return float(np.floor(4 * np.sum((x - c) ** 2)))
        x0 = rng.normal(size=dim)
        x0[rng.random(dim) < 0.3] = 0.0
        tol = (1e-4, 1e-10) if rng.random() < 0.5 else (1e-3, 1e-9)
        yield f, x0, int(rng.integers(1, 201)), tol


def test_simplex_search_matches_scipy_nelder_mead():
    # scipy is the oracle: the port repeats its arithmetic and its sorts, so
    # x, fun and nfev agree in every bit
    from scipy import optimize
    for f, x0, maxiter, (xatol, fatol) in _simplex_cases():
        res = optimize.minimize(
            f, x0, method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol},
        )
        x, fun, nfev = principles._nelder_mead(f, x0.copy(), maxiter, xatol, fatol)
        assert np.array_equal(x, res.x)
        assert type(fun) is np.float64 and fun == res.fun
        assert type(nfev) is int and nfev == res.nfev


def test_minmax_refinement_values_are_pinned(gm):
    # the grid's measure is far from the maximizer, so both candidates' sups
    # come from the simplex refinement; values recorded with scipy's
    # Nelder-Mead, so a drift of the search shows here without scipy
    mu = ce.markov(gm, [[0.9, 0.1], [1.0, 0.0]])
    U = ce.family_of_words(gm, 2, [["00", "10"], ["01", "10"]], "cover")
    beta = ce.cylinder_partition(gm, 1)
    rep = ce.minmax_check(gm, U, beta, [mu], n_max=4, refine_starts=2,
                          refine_iter=20, seed=1)
    assert rep.details["per_candidate_sup"] == [0.12030294990208995,
                                                0.1203029562646476]
    unrefined = ce.minmax_check(gm, U, beta, [mu], n_max=4, refine_starts=0)
    assert unrefined.details["per_candidate_sup"] == [0.07388249395260188] * 2


def test_variational_search_report_is_pinned(gm):
    # recorded with scipy's Nelder-Mead, as above
    U = ce.family_of_words(gm, 2, [["00", "10"], ["01", "10"]], "cover")
    beta = ce.cylinder_partition(gm, 1)
    rep = ce.variational_search(gm, U, beta, n_max=6, starts=2, max_iter=25, seed=7)
    assert rep.details["trace"] == [
        {"seed": 2029167940, "value": 0.080201970840677, "evaluations": 46},
        {"seed": 1342382291, "value": 0.08020197041990866, "evaluations": 48},
    ]
    assert rep.details["best_P"].tolist() == [
        [0.6180371731626934, 0.3819628268373067], [1.0, 0.0]
    ]
    assert rep.rhs == 0.080201970840677


def test_bracket_partition_width_zero(gm, parry):
    alpha = ce.cylinder_partition(gm, 1)
    X = ce.trivial_partition(gm, 1)
    rep = ce.cover_rate_bracket(parry, alpha, X, n_max=5, windows=(1,))
    assert rep.gap == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict == "holds_within_tol"


def test_bracket_reports_certified_prefix(full3):
    mu = ce.bernoulli(full3, [1 / 3, 1 / 3, 1 / 3])
    U = ce.family_of_words(full3, 1, [["0", "1"], ["1", "2"]], "cover")
    X = ce.trivial_partition(full3, 1)
    rep = ce.cover_rate_bracket(mu, U, X, n_max=4, windows=(1,), node_budget=2000)
    assert rep.details["certified_n_max"] >= 2
    assert rep.lhs <= rep.rhs + 1e-9  # joined rate below the candidate rate


def test_bracket_zero_when_conditioner_refines(full2):
    ber = ce.bernoulli(full2, [0.5, 0.5])
    U = ce.family_of_words(full2, 1, [["0"], ["1"]], "cover")
    beta = ce.cylinder_partition(full2, 1)
    rep = ce.cover_rate_bracket(ber, U, beta, n_max=4, windows=(1, 2))
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_ergodic_additivity_single_component(gm, parry):
    comps = [measures.ErgodicComponent(1.0, parry)]
    alpha = ce.cylinder_partition(gm, 1)
    X = ce.trivial_partition(gm, 1)
    rep = ce.ergodic_additivity_check(comps, alpha, X, n_max=6)
    assert rep.gap <= 1e-12 and rep.verdict == "holds_within_tol"


def test_ergodic_additivity_two_blocks():
    blk = ce.sft([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
    P = np.array([[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0],
                  [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]])
    c1 = measures.InvariantMeasure(
        measures.MARKOV, blk, pi=np.array([0.5, 0.5, 0.0, 0.0]), P=P
    )
    c2 = measures.InvariantMeasure(
        measures.MARKOV, blk, pi=np.array([0.0, 0.0, 0.5, 0.5]), P=P
    )
    comps = [measures.ErgodicComponent(0.3, c1), measures.ErgodicComponent(0.7, c2)]
    alpha = ce.cylinder_partition(blk, 1)
    X = ce.trivial_partition(blk, 1)
    rep = ce.ergodic_additivity_check(comps, alpha, X, n_max=8)
    # both classes run at log 2, so the weighted limit is log 2 exactly
    assert rep.lhs == pytest.approx(LOG2, abs=1e-9)
    assert rep.rhs == pytest.approx(LOG2, abs=1e-9)
    assert rep.gap <= 1e-6
    # the mixture's per-window values exceed the weighted sums by exactly the
    # component-weight entropy (concavity with disjoint supports)
    extra = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
    mixed = rep.details["per_window_mixed"]
    weighted = rep.details["per_window_weighted"]
    for m, s in zip(mixed[1:], weighted[1:]):
        assert m - s == pytest.approx(extra, abs=1e-9)


def test_factor_conditioned_profile_constant_code(gm):
    mu = ce.markov(gm, [[0.7, 0.3], [1.0, 0.0]])
    const = ce.FactorMap(gm, ce.full_shift(1), 1, (0, 0))
    U = ce.family_of_words(gm, 2, [["00", "01"], ["01", "10"]], "cover")
    rep = ce.factor_conditioned_profile(mu, const, U, windows=(1, 2), n_max=4)
    unconditioned = ce.cover_entropy(mu, U).nats
    for v in rep.details["static_values"]:
        assert v == pytest.approx(unconditioned, abs=1e-12)


def test_factor_conditioned_profile_identity_code(gm):
    mu = ce.markov(gm, [[0.7, 0.3], [1.0, 0.0]])
    idc = ce.identity_code(gm)
    U = ce.family_of_words(gm, 2, [["00", "01"], ["01", "10"]], "cover")
    rep = ce.factor_conditioned_profile(mu, idc, U, windows=(2, 3), n_max=4)
    for v in rep.details["static_values"]:
        assert v == pytest.approx(0.0, abs=1e-12)


def test_factor_conditioned_profile_strict_decrease(gm):
    # frozen instance: three-element cover, 2-to-1 letter merge of the
    # golden-mean 2-block recoding, generic Markov measure
    mu = ce.markov(gm, [[0.7, 0.3], [1.0, 0.0]])
    code = ce.FactorMap(gm, ce.full_shift(2), 2, (0, 1, 1))
    U = ce.family_of_words(
        gm, 3, [["000", "001"], ["001", "010", "100"], ["100", "101"]], "cover"
    )
    rep = ce.factor_conditioned_profile(mu, code, U, windows=(1, 2, 3), n_max=4)
    vals = rep.details["static_values"]
    assert vals[0] > vals[1] > vals[2]
    assert vals[0] == pytest.approx(0.19509682, abs=1e-6)
    assert vals[2] == pytest.approx(0.09597362, abs=1e-6)


def test_report_serialization(gm, parry):
    idc = ce.identity_code(gm)
    U = ce.cylinder_partition(gm, 1)
    X = ce.trivial_partition(gm, 1)
    rep = ce.factor_invariance_check(idc, parry, U, X, n_max=4)
    d = rep.to_json_dict()
    assert d["verdict"] == "holds_within_tol"
    assert "codomain_entropy" in d["estimates"]
    row = rep.summary_row()
    assert row[0] == "factor_invariance" and row[4] == "holds_within_tol"
