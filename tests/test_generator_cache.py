"""The (basis, G) cache behind conditional_moment, joint_moment, PricingModel
and SimplexIndexModel, and the manifold_defects cache beside it: keyed by
value, bounded in bytes, and invisible except as speed.  Every test starts
with empty caches (tests/conftest.py)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydiff import (
    DegreeTooHigh,
    FullSpace,
    LognormalIndexPricer,
    ModelCoefficients,
    NotPolynomialOnE,
    Polynomial,
    PricingModel,
    Quadric,
    Simplex,
    SimplexIndexModel,
    SimplexParams,
    assemble_model,
    bond_price,
    check_necessary,
    check_sufficient,
    conditional_moment,
    constituent_option_price,
    generator,
    generator_matrix,
    joint_moment,
    monomial_basis,
    short_rate,
    validate_params,
    variance_swap_rate,
)
from polydiff.generator import _ByteLRU, _ENTRY_BYTES, _basis_and_generator, manifold_defects

from conftest import MATRIX_POINTS, MODEL_MATRIX, jacobi_model, ou_model, simplex3_model, simplex_params

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@pytest.fixture()
def builds(monkeypatch):
    """Counts of the basis and generator builds the package makes."""
    count = {"basis": 0, "G": 0}
    basis_fn, g_fn = generator.monomial_basis, generator.generator_matrix

    def counted_basis(*args):
        count["basis"] += 1
        return basis_fn(*args)

    def counted_g(*args):
        count["G"] += 1
        return g_fn(*args)

    monkeypatch.setattr(generator, "monomial_basis", counted_basis)
    monkeypatch.setattr(generator, "generator_matrix", counted_g)
    return count


def uncached(monkeypatch):
    """Switch the cache off: a budget of 0 keeps nothing, so every call builds."""
    monkeypatch.setattr(generator, "_cache", _ByteLRU(0))


def bits(value):
    return float(value).hex()


def charge(space, degree):
    """What an entry of this key is charged against the budget."""
    n = len(monomial_basis(space, degree))
    return n * n * 8 + _ENTRY_BYTES


def held_degrees():
    return [key[-1] for key in generator._cache._entries]


class TestHits:
    def test_repeat_moment_builds_once(self, builds):
        model, space = jacobi_model()
        p = Polynomial.variable(0, 1) ** 3
        first = conditional_moment(model, space, 5, p, [0.3], 0.5)
        second = conditional_moment(model, space, 5, p, [0.3], 0.5)
        assert bits(first) == bits(second)
        assert builds == {"basis": 1, "G": 1}
        # another point, horizon or payoff of the same degree reuses the entry
        conditional_moment(model, space, 4, 2.0 * p, [0.7], 1.5)
        assert builds == {"basis": 1, "G": 1}
        # a payoff of another degree is another key
        conditional_moment(model, space, 6, p * p, [0.3], 0.5)
        assert builds == {"basis": 2, "G": 2}

    def test_equal_models_built_twice_share_an_entry(self, builds):
        (m1, s1), (m2, s2) = jacobi_model(), jacobi_model()
        assert m1 is not m2 and m1 == m2 and hash(m1) == hash(m2)
        assert _basis_and_generator(m1, s1, 4) is _basis_and_generator(m2, s2, 4)
        assert builds["G"] == 1

    def test_pricing_models_share_basis_and_generator(self, builds):
        model, space = jacobi_model()
        p = Polynomial.one(1) + Polynomial.variable(0, 1)
        pm1 = PricingModel(model, space, degree=5, p=p, alpha=0.05)
        pm2 = PricingModel(*jacobi_model(), degree=5, p=2.0 * p)
        assert pm1.gm is pm2.gm and pm1.basis is pm2.basis
        assert builds["G"] == 1
        # the moment formula on the same key reuses the pricing model's entry
        joint_moment(model, space, 5, [0.3], [0.5], [(2,)])
        assert builds["G"] == 1

    def test_index_models_share_basis_and_generator(self, builds):
        pricer = LognormalIndexPricer(spot=1.0, rate=0.02, vol=0.3)
        sims = [SimplexIndexModel(params=simplex_params(), T_star=2.0, degree=4, pricer=pricer) for _ in range(2)]
        assert sims[0].statespace is not sims[1].statespace
        assert sims[0].gm is sims[1].gm
        assert builds["G"] == 1

    def test_the_public_generator_matrix_is_not_cached(self, builds):
        model, space = jacobi_model()
        basis = monomial_basis(space, 3)
        assert generator_matrix(model, basis) is not generator_matrix(model, basis)
        assert len(generator._cache) == 0


class TestKey:
    def test_value_equal_simplices_share_one_entry(self, builds):
        model, space = simplex3_model()
        other = Simplex(3)
        assert other is not space
        p = Polynomial.variable(0, 3) * Polynomial.variable(1, 3)
        x = [0.2, 0.3, 0.5]
        assert bits(conditional_moment(model, space, 2, p, x, 0.5)) == \
            bits(conditional_moment(model, other, 2, p, x, 0.5))
        assert len(generator._cache) == 1 and builds["G"] == 1

    @pytest.mark.parametrize("name", sorted(MODEL_MATRIX))
    def test_equal_state_spaces_share_one_entry(self, name, builds):
        (m1, s1), (m2, s2) = MODEL_MATRIX[name](), MODEL_MATRIX[name]()
        assert s1 is not s2
        assert _basis_and_generator(m1, s1, 3) is _basis_and_generator(m2, s2, 3)
        assert len(generator._cache) == 1 and builds["G"] == 1

    @pytest.mark.parametrize("make, wider", [(simplex3_model, Simplex(4)), (ou_model, FullSpace(2))],
                             ids=["simplex", "full"])
    def test_dimension_mismatch_raises_with_a_warm_cache(self, make, wider, builds):
        # spec_dict() of these families names no dimension; the key's dim keeps them apart
        model, space = make()
        _basis_and_generator(model, space, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="^model and basis dimensions differ$"):
                _basis_and_generator(model, wider, 2)
        assert len(generator._cache) == 1

    def test_quadric_orientations_do_not_share(self, builds):
        Q = np.eye(2)
        inside, outside = Quadric(Q, "inside"), Quadric(Q, "outside")
        one, zero = Polynomial.one(2), Polynomial.zero(2)
        model = ModelCoefficients([[one, zero], [zero, one]], [-1.0 * Polynomial.variable(i, 2) for i in range(2)])
        p = Polynomial.variable(0, 2) ** 2
        conditional_moment(model, inside, 2, p, [0.3, 0.2], 0.5)
        conditional_moment(model, outside, 2, p, [1.5, 0.3], 0.5)
        assert len(generator._cache) == 2 and builds["G"] == 2

    def test_term_order_is_part_of_the_key(self, builds):
        # equal polynomials, terms listed in another order: G may sum them in
        # another order, so the models differ
        one = Polynomial.one(1)
        b1 = Polynomial(1, {(0,): 0.3, (1,): -1.0})
        b2 = Polynomial(1, {(1,): -1.0, (0,): 0.3})
        assert b1 == b2
        m1, m2 = ModelCoefficients([[one]], [b1]), ModelCoefficients([[one]], [b2])
        assert m1 != m2
        _basis_and_generator(m1, FullSpace(1), 3)
        _basis_and_generator(m2, FullSpace(1), 3)
        assert len(generator._cache) == 2

    def test_unhashable_degree_builds_without_the_cache(self, builds):
        model, space = jacobi_model()
        got = joint_moment(model, space, np.array(4), [0.3], [0.5], [(2,)])
        assert bits(got) == bits(joint_moment(model, space, 4, [0.3], [0.5], [(2,)]))
        assert held_degrees() == [4]


class TestBudget:
    def test_least_recently_used_entry_goes_first(self, monkeypatch, builds):
        model, space = jacobi_model()
        budget = charge(space, 2) + charge(space, 3)
        monkeypatch.setattr(generator, "_cache", _ByteLRU(budget))
        _basis_and_generator(model, space, 2)
        _basis_and_generator(model, space, 3)
        assert held_degrees() == [2, 3] and generator._cache.held == budget
        _basis_and_generator(model, space, 2)  # a hit makes degree 2 the most recent
        assert builds["G"] == 2
        _basis_and_generator(model, space, 1)
        assert held_degrees() == [2, 1]
        assert generator._cache.held == charge(space, 2) + charge(space, 1) <= budget
        _basis_and_generator(model, space, 3)  # evicted, so built again
        assert builds["G"] == 4

    def test_oversize_generator_is_returned_but_not_kept(self, monkeypatch, builds):
        model, space = jacobi_model()
        monkeypatch.setattr(generator, "_cache", _ByteLRU(charge(space, 3)))
        _basis_and_generator(model, space, 3)  # exactly the budget: kept
        assert held_degrees() == [3]
        basis, gm = _basis_and_generator(model, space, 4)
        assert np.array_equal(gm.matrix, generator_matrix(model, monomial_basis(space, 4)).matrix)
        # neither kept nor a cause of eviction
        assert held_degrees() == [3] and generator._cache.held == charge(space, 3)
        _basis_and_generator(model, space, 4)
        assert builds["G"] == 3

    def test_default_budget_holds_a_working_set(self, builds):
        # every conftest model at degrees 0-6: 42 keys, G's of up to N = 28
        keys = [(name, degree) for name in sorted(MODEL_MATRIX) for degree in range(7)]
        for _ in range(2):
            for name, degree in keys:
                _basis_and_generator(*MODEL_MATRIX[name](), degree)
        assert builds["G"] == len(generator._cache) == len(keys)


class TestSharedArraysAreReadOnly:
    def test_matrix_and_basis_arrays(self):
        model, space = jacobi_model()
        basis, gm = _basis_and_generator(model, space, 3)
        for array in (gm.matrix, basis.exponents, basis.degrees):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        # the propagation and pricing routes only read them
        pm = PricingModel(model, space, degree=3, p=Polynomial.one(1))
        assert pm.gm is gm
        assert np.isfinite(bond_price(pm, [0.3], 0.0, 1.0))


class TestInvisible:
    """The same float bits cold, hot and with the cache switched off."""

    @pytest.mark.parametrize("name", sorted(MODEL_MATRIX))
    def test_moments(self, name, monkeypatch):
        model, space = MODEL_MATRIX[name]()
        x = MATRIX_POINTS[name]
        payoffs = [Polynomial.variable(0, space.dim) ** k for k in range(5)]
        queries = [lambda p=p: conditional_moment(model, space, 4, p, x, 0.7) for p in payoffs]
        queries += [lambda k=k: joint_moment(model, space, 4, x, [0.25, 0.5], [(k,) + (0,) * (space.dim - 1)] * 2)
                    for k in range(3)]
        cold = [bits(q()) for q in queries]
        hot = [bits(q()) for q in queries]
        uncached(monkeypatch)
        assert cold == hot == [bits(q()) for q in queries]

    def test_prices(self, monkeypatch):
        def prices():
            model, space = jacobi_model()
            pm = PricingModel(model, space, degree=5, p=Polynomial.one(1) + Polynomial.variable(0, 1), alpha=0.05)
            model, space = ou_model()
            vs = PricingModel(model, space, degree=6, p=Polynomial.constant(1, 0.1) + Polynomial.monomial((2,)))
            sim = SimplexIndexModel(params=simplex_params(), T_star=2.0, degree=6,
                                    pricer=LognormalIndexPricer(spot=1.0, rate=0.02, vol=0.3))
            return [bits(v) for v in (bond_price(pm, [0.3], 0.0, 1.5), short_rate(pm, [0.3]),
                                      variance_swap_rate(vs, [0.4], 0.0, 1.0),
                                      constituent_option_price(sim, None, 0, 1.0, 1.0, [0.4, 0.6], residual_warn=1e-3))]

        cold, hot = prices(), prices()
        uncached(monkeypatch)
        assert cold == hot == prices()

    @PROPERTY
    @given(st.sampled_from(sorted(MODEL_MATRIX)), st.integers(0, 4), st.sampled_from([0.0, 0.125, 0.7, 2.0]))
    def test_cold_and_hot_moments_are_equal(self, name, k, tau):
        model, space = MODEL_MATRIX[name]()
        p = Polynomial.variable(space.dim - 1, space.dim) ** k + 0.375 * Polynomial.variable(0, space.dim)
        generator._cache.clear()
        cold = conditional_moment(model, space, 4, p, MATRIX_POINTS[name], tau)
        hot = conditional_moment(model, space, 4, p, MATRIX_POINTS[name], tau)
        assert bits(cold) == bits(hot)

    @PROPERTY
    @given(st.sampled_from(sorted(MODEL_MATRIX)), st.integers(0, 4),
           st.lists(st.floats(-1.0, 1.0), min_size=70, max_size=70), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_semigroup_on_cached_generators(self, name, m, coefs, s, t):
        model, space = MODEL_MATRIX[name]()
        basis, gm = _basis_and_generator(model, space, 4)
        n = len(monomial_basis(space, m))
        v = np.zeros(len(basis))
        v[:n] = coefs[:n]
        lhs = gm.propagate(s + t, v)
        rhs = gm.propagate(s, gm.propagate(t, v))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)


class TestFailedBuilds:
    """A failed build is not stored, so every repeat raises the same exception."""

    def repeat(self, call, exc, builds):
        messages = []
        for _ in range(3):
            with pytest.raises(exc) as info:
                call()
            messages.append(str(info.value))
        assert len(set(messages)) == 1
        assert len(generator._cache) == 0
        return messages[0]

    def test_not_polynomial_on_e(self, builds):
        # identity diffusion pushes mass off the simplex hyperplane
        one, zero = Polynomial.one(2), Polynomial.zero(2)
        model, space = ModelCoefficients([[one, zero], [zero, one]], [zero, zero]), Simplex(2)
        message = self.repeat(lambda: conditional_moment(model, space, 2, Polynomial.variable(0, 2), [0.5, 0.5], 1.0),
                              NotPolynomialOnE, builds)
        assert "does not vanish on the manifold" in message
        assert builds["G"] == 3
        self.repeat(lambda: PricingModel(model, space, degree=2, p=one), NotPolynomialOnE, builds)

    def test_degree_too_high(self, builds):
        model, space = jacobi_model()
        self.repeat(lambda: conditional_moment(model, space, 1, Polynomial.variable(0, 1) ** 2, [0.3], 1.0),
                    DegreeTooHigh, builds)
        assert builds["G"] == 0

    def test_overflow(self, builds):
        # G x^4 carries 6 a x^2, which overflows for a = 1e308
        model = ModelCoefficients([[Polynomial.monomial((2,), 1e308)]], [Polynomial.zero(1)])
        space = FullSpace(1)
        message = self.repeat(lambda: conditional_moment(model, space, 4, Polynomial.monomial((4,)), [0.5], 1.0),
                              ValueError, builds)
        assert "overflow" in message
        self.repeat(lambda: PricingModel(model, space, degree=4, p=Polynomial.one(1)), ValueError, builds)


@pytest.fixture()
def reductions(monkeypatch):
    """The number of tangency reductions manifold_defects runs."""
    count = [0]
    reduce_fn = generator._reduced_defects

    def counted(*args):
        count[0] += 1
        return reduce_fn(*args)

    monkeypatch.setattr(generator, "_reduced_defects", counted)
    return count


class TestManifoldDefects:
    """One tangency reduction per (model, space), kept apart from the G's."""

    def test_one_reduction_per_model_and_space(self, reductions):
        space, params = Simplex(2), simplex_params()
        model = assemble_model(space, params)
        validate_params(space, params)
        check_necessary(model, space)
        check_sufficient(model, space)
        generator_matrix(model, monomial_basis(space, 2))
        SimplexIndexModel(params=params, T_star=2.0, degree=3, pricer=LognormalIndexPricer(1.0, 0.02, 0.3))
        assert reductions == [1]
        assert len(generator._defects) == 1 and len(generator._cache) == 1

    def test_value_equal_spaces_share_an_entry(self, reductions):
        (m1, s1), (m2, s2) = simplex3_model(), simplex3_model()
        assert m1 is not m2 and s1 is not s2
        assert manifold_defects(m1, s1) == manifold_defects(m2, s2)
        assert reductions == [1] and len(generator._defects) == 1

    def test_spaces_without_equalities_are_not_kept(self, reductions):
        model, space = jacobi_model()
        assert manifold_defects(model, space) == []
        assert reductions == [0] and len(generator._defects) == 0

    def test_callers_get_their_own_list(self, reductions):
        model, space = simplex3_model()
        first = manifold_defects(model, space)
        want = list(first)
        first.clear()
        assert manifold_defects(model, space) == want and len(want) == 1
        assert reductions == [1]

    def test_not_polynomial_on_e_repeats(self, reductions):
        one, zero = Polynomial.one(2), Polynomial.zero(2)
        model, space = ModelCoefficients([[one, zero], [zero, one]], [zero, zero]), Simplex(2)
        messages = set()
        for _ in range(3):
            with pytest.raises(NotPolynomialOnE) as info:
                generator_matrix(model, monomial_basis(space, 2))
            messages.add(str(info.value))
        assert len(messages) == 1 and reductions == [1]

    def test_fresh_models_stay_within_the_budget(self, reductions):
        cache = generator._defects
        for k in range(200):
            beta = 0.25 + k / 1024
            params = SimplexParams(alpha=[[0.0, 1.0], [1.0, 0.0]], beta=[beta, beta],
                                   B=[[-1.0 - beta, 1.0 - beta], [1.0 - beta, -1.0 - beta]])
            space = Simplex(2)
            manifold_defects(assemble_model(space, params), space)
            assert cache.held == len(cache) * _ENTRY_BYTES <= cache.budget
        assert reductions == [200] and len(cache) == cache.budget // _ENTRY_BYTES

    def test_concurrent_callers_agree(self, monkeypatch):
        # four models on a budget of two entries, so entries keep being evicted
        one, zero = Polynomial.one(2), Polynomial.zero(2)
        cases = [(assemble_model(Simplex(2), simplex_params()), Simplex(2)), simplex3_model(),
                 (ModelCoefficients([[one, zero], [zero, one]], [zero, zero]), Simplex(2)),
                 (ModelCoefficients([[one, zero], [zero, one]], [one, -1.0 * one]), Simplex(2))]
        want = [manifold_defects(*case) for case in cases]
        monkeypatch.setattr(generator, "_defects", _ByteLRU(2 * _ENTRY_BYTES))
        assert in_threads(lambda: [manifold_defects(*case) for case in cases]) == [want] * 80
        cache = generator._defects
        assert cache.held == len(cache) * _ENTRY_BYTES <= cache.budget


def in_threads(work):
    """work() ten times in each of eight threads, more than the cores, switching
    often; the list of its results, after every thread has ended."""
    got = []
    threads = [threading.Thread(target=lambda: got.extend(work() for _ in range(10))) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return got


def test_concurrent_callers_agree(monkeypatch):
    # on a budget that keeps evicting, every value is the serial one and the
    # held bytes stay the entries' sum
    cases = [MODEL_MATRIX[name]() + (MATRIX_POINTS[name],) for name in sorted(MODEL_MATRIX)]

    def moments():
        return [bits(conditional_moment(model, space, 3, Polynomial.variable(0, space.dim) ** 3, x, 0.5))
                for model, space, x in cases]

    want = moments()
    monkeypatch.setattr(generator, "_cache", _ByteLRU(3 * _ENTRY_BYTES))
    assert in_threads(moments) == [want] * 80
    cache = generator._cache
    assert 0 < len(cache) < len(cases)
    assert cache.held == sum(nbytes for _, nbytes in cache._entries.values()) <= cache.budget
