import random
from math import isqrt

import pytest

from polymix import (
    LaurentPoly,
    ParseError,
    frobenius_power,
    make_poly,
)
from polymix.jsonio import from_json_dict, to_json_dict
from polymix.laurent import MAX_PRIME, _is_prime

from conftest import random_poly
from reference import poly_pow


class TestConstruction:
    def test_basic_triangle(self):
        g = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)])
        assert g.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_coefficient_reduces_to_zero(self):
        g = make_poly(2, 2, [((0, 0), 2)])
        assert g.is_zero

    def test_coefficient_reduced_mod_p(self):
        g = make_poly(3, 1, [((-1,), 4)])
        assert g.terms == {(-1,): 1}

    def test_duplicate_exponents_summed(self):
        g = make_poly(3, 1, [((2,), 1), ((2,), 1), ((0,), 1)])
        assert g.terms == {(2,): 2, (0,): 1}
        h = make_poly(2, 1, [((1,), 1), ((1,), 1)])
        assert h.is_zero

    @pytest.mark.parametrize("p", [1, 4, 6, 9, 15])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError):
            make_poly(p, 1, [((0,), 1)])

    def test_rejects_wrong_exponent_length(self):
        with pytest.raises(ValueError):
            make_poly(2, 2, [((0, 0, 0), 1)])

    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 97):
            assert LaurentPoly(p, 1).p == p


def primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


def trial_division(n, primes):
    for q in primes:
        if q * q > n:
            return n >= 2
        if n % q == 0:
            return False
    raise AssertionError(f"{n} is beyond the listed primes")


class TestPrimality:
    def test_agrees_with_trial_division(self):
        primes = primes_below(isqrt(10 ** 11) + 1)
        rng = random.Random(11)
        sample = [*range(10 ** 5), *(rng.randrange(10 ** 11) for _ in range(3000))]
        assert [n for n in sample if _is_prime(n) != trial_division(n, primes)] == []

    @pytest.mark.parametrize("n", [3_215_031_751, 3_825_123_056_546_413_051])
    def test_rejects_strong_pseudoprimes(self, n):
        # strong pseudoprimes to the bases 2..7 and 2..23 respectively
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="not a prime"):
            LaurentPoly(n, 1)

    def test_large_primes(self):
        for p in (10 ** 18 + 3, 2 ** 61 - 1, 2 ** 31 - 1):
            assert LaurentPoly(p, 1).p == p
        assert not _is_prime((2 ** 31 - 1) * (2 ** 61 - 1))

    def test_refuses_primes_beyond_the_limit(self):
        with pytest.raises(ValueError, match=str(MAX_PRIME)):
            LaurentPoly(2 ** 89 - 1, 1)
        with pytest.raises(ValueError, match="too large"):
            LaurentPoly(MAX_PRIME, 1)


class TestArithmetic:
    def test_char2_squaring(self):
        g = make_poly(2, 1, [((0,), 1), ((1,), 1)])
        assert (g * g).terms == {(0,): 1, (2,): 1}

    def test_add_zero_identity(self):
        g = make_poly(3, 2, [((1, 2), 2), ((0, 0), 1)])
        assert g + LaurentPoly(3, 2) == g

    def test_trinomial_squaring(self):
        g = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)])
        assert (g * g).terms == {(0, 0): 1, (2, 0): 1, (0, 2): 1}

    def test_field_mismatch_rejected(self):
        g = make_poly(2, 1, [((0,), 1)])
        h = make_poly(3, 1, [((0,), 1)])
        with pytest.raises(ValueError):
            g + h
        with pytest.raises(ValueError):
            g * h

    def test_dimension_mismatch_rejected(self):
        g = make_poly(2, 1, [((0,), 1)])
        h = make_poly(2, 2, [((0, 0), 1)])
        with pytest.raises(ValueError):
            g + h

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_ring_axioms_randomized(self, p):
        rng = random.Random(1000 + p)
        for _ in range(200):
            g = random_poly(rng, p, 2, lo=-2, hi=2)
            h = random_poly(rng, p, 2, lo=-2, hi=2)
            k = random_poly(rng, p, 2, lo=-2, hi=2)
            assert g + h == h + g
            assert g * h == h * g
            assert (g + h) + k == g + (h + k)
            assert (g * h) * k == g * (h * k)
            assert g * (h + k) == g * h + g * k


class TestFrobenius:
    def test_char2_square(self):
        g = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)])
        assert frobenius_power(g, 1).terms == {(0, 0): 1, (2, 0): 1, (0, 2): 1}

    def test_iterate(self):
        g = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)])
        assert frobenius_power(g, 2).terms == {(0, 0): 1, (4, 0): 1, (0, 4): 1}

    def test_k_zero_identity(self):
        g = make_poly(5, 1, [((2,), 3), ((-1,), 4)])
        assert frobenius_power(g, 0) == g

    def test_negative_k_rejected(self):
        g = make_poly(2, 1, [((0,), 1)])
        with pytest.raises(ValueError):
            frobenius_power(g, -1)

    def test_linearity(self):
        rng = random.Random(7)
        for p in (2, 3, 5):
            for _ in range(30):
                g = random_poly(rng, p, 2, lo=-2, hi=2)
                h = random_poly(rng, p, 2, lo=-2, hi=2)
                for k in (1, 2):
                    assert frobenius_power(g + h, k) == (
                        frobenius_power(g, k) + frobenius_power(h, k)
                    )

    def test_equals_repeated_multiplication(self):
        # p^k <= 81 keeps the mul-based oracle cheap; Laurent exponents
        # are cleared first since poly_pow needs n >= 0 only
        rng = random.Random(8)
        cases = [(2, range(0, 7)), (3, range(0, 5)), (5, range(0, 3))]
        for p, ks in cases:
            for _ in range(5):
                g = random_poly(rng, p, 2, max_terms=3, lo=0, hi=2)
                for k in ks:
                    assert frobenius_power(g, k) == poly_pow(g, p ** k)


class TestSupport:
    def test_triangle(self):
        g = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)])
        assert g.support() == {(0, 0), (1, 0), (0, 1)}

    def test_zero(self):
        assert LaurentPoly(2, 2).support() == frozenset()

    def test_four_terms(self):
        g = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((2, 0), 1), ((0, 1), 1)])
        assert g.support() == {(0, 0), (1, 0), (2, 0), (0, 1)}

    def test_product_support_in_minkowski_sum(self):
        rng = random.Random(9)
        for p in (2, 3, 5):
            for _ in range(40):
                g = random_poly(rng, p, 2, lo=-2, hi=2)
                h = random_poly(rng, p, 2, lo=-2, hi=2)
                minkowski = {
                    tuple(a + b for a, b in zip(e1, e2))
                    for e1 in g.support()
                    for e2 in h.support()
                }
                assert (g * h).support() <= minkowski


class TestJson:
    def test_round_trip(self):
        g = make_poly(3, 2, [((0, 0), 1), ((-1, 2), 2)])
        assert from_json_dict(to_json_dict(g)) == g

    def test_rejects_wrong_exponent_length(self):
        # the constructor checks exponents, so the error is its ValueError
        data = {"p": 2, "d": 2, "terms": [{"e": [0], "c": 1}]}
        with pytest.raises(ValueError, match=r"exponent vector \[0\] has wrong dimension"):
            from_json_dict(data)

    def test_rejects_non_prime(self):
        data = {"p": 4, "d": 1, "terms": []}
        with pytest.raises(ValueError):
            from_json_dict(data)

    def test_rejects_missing_keys(self):
        with pytest.raises(ParseError):
            from_json_dict({"p": 2, "terms": []})

    def test_rejects_non_integer_entries(self):
        data = {"p": 2, "d": 1, "terms": [{"e": [0.5], "c": 1}]}
        with pytest.raises(ValueError, match=r"exponent vector \[0.5\] has non-integer entries"):
            from_json_dict(data)
