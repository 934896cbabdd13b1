import random
import sys
import threading
from itertools import product
from unittest import mock

import pytest

from polymix import (
    BudgetExceededError,
    CylinderSpec,
    LaurentPoly,
    TrivialQuotientError,
    cylinder_measure,
    frobenius_certificate,
    frobenius_power,
    joint_measure,
    make_poly,
    mixing_bounds,
    monomial,
    normalize,
    reduce,
    search_relations,
)
from polymix import budgets, quotient
from polymix.quotient import (
    grlex_key,
    leading_term,
    monomial_residue,
    nf,
    power_residue,
)

from conftest import divide_from_scratch, generic_poly, random_poly
from reference import poly_pow

# total degrees on both sides of the packed width steps: 8 bits up to 127,
# 16 bits up to 2^15 - 1, 48 bits for 2^39 up to 2^47 - 1
WIDTH_STEPS = [(127, 8), (128, 16), (2 ** 15 - 1, 16), (2 ** 15, 24),
               (2 ** 39 - 1, 40), (2 ** 39, 48), (2 ** 40 - 1, 48), (2 ** 40, 48)]


class TestTermOrder:
    def test_last_variable_wins_degree_ties(self):
        # the order must make u2 the leading term of 1 + u1 + u2
        assert grlex_key((0, 1)) > grlex_key((1, 0))
        assert grlex_key((2, 0)) > grlex_key((0, 1))  # degree first

    def test_leading_term_of_triangle(self, ledrappier):
        assert leading_term(ledrappier) == ((0, 1), 1)

    def test_one_is_minimal(self):
        assert grlex_key((0, 0)) < grlex_key((1, 0))

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(100):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 4) for _ in range(3))
            if grlex_key(a) < grlex_key(b):
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert grlex_key(ac) < grlex_key(bc)


class TestNormalize:
    def test_laurent_shift(self):
        g = make_poly(2, 2, [((-1, 0), 1), ((0, 1), 1)])
        poly, shift = normalize(g)
        assert shift == (-1, 0)
        assert poly.terms == {(0, 0): 1, (1, 1): 1}

    def test_already_normalized(self):
        g = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1)])
        poly, shift = normalize(g)
        assert shift == (0, 0) and poly == g

    def test_monomial(self):
        g = monomial(2, 2, (3, 0))
        poly, shift = normalize(g)
        assert shift == (3, 0)
        assert poly.terms == {(0, 0): 1}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize(LaurentPoly(2, 2))


class TestReduce:
    def test_modulus_reduces_to_zero(self, ledrappier):
        assert reduce(ledrappier, ledrappier).is_zero

    def test_multiple_of_modulus(self, ledrappier):
        g = monomial(2, 2, (1, 0)) * ledrappier
        assert reduce(g, ledrappier).is_zero

    def test_nonmember_keeps_hand_remainder(self, ledrappier):
        g = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1)])
        r = reduce(g, ledrappier)
        assert r.value == g  # leading term u2 of f divides no term of 1+u1
        assert not r.is_zero

    def test_trivial_quotient_errors(self, ledrappier):
        with pytest.raises(TrivialQuotientError):
            reduce(ledrappier, LaurentPoly(2, 2))
        with pytest.raises(TrivialQuotientError):
            reduce(ledrappier, monomial(2, 2, (1, 0)))

    def test_remainder_has_no_divisible_term(self, all_fixtures):
        rng = random.Random(11)
        for f in all_fixtures:
            lt, _ = leading_term(normalize(f)[0])
            for _ in range(50):
                g = random_poly(rng, f.p, 2, max_terms=5, lo=-2, hi=4)
                r = reduce(g, f).value
                for e in r.terms:
                    assert not all(a >= b for a, b in zip(e, lt))

    def test_idempotent(self, all_fixtures):
        rng = random.Random(12)
        for f in all_fixtures:
            for _ in range(50):
                g = random_poly(rng, f.p, 2, max_terms=5, lo=-2, hi=4)
                r = reduce(g, f)
                assert reduce(r.value, f) == r


class TestIdealMembership:
    def test_frobenius_identity(self, ledrappier):
        # the dilated-support relation: f^(p^k) stays in <f>
        assert reduce(frobenius_power(ledrappier, 3), ledrappier).is_zero

    def test_non_dilation_fails(self, ledrappier):
        g = make_poly(2, 2, [((0, 0), 1), ((3, 0), 1), ((0, 3), 1)])
        assert not reduce(g, ledrappier).is_zero
        # u2^3 = (1+u1)^3 mod f, so the sum leaves u1 + u1^2
        assert nf(g, ledrappier).terms == {(1, 0): 1, (2, 0): 1}

    def test_zero_polynomial(self, ledrappier):
        assert reduce(LaurentPoly(2, 2), ledrappier).is_zero

    def test_quotient_normal_form_property(self, all_fixtures):
        # reduce(q*f + h) == reduce(h) for polynomial q, h
        rng = random.Random(13)
        for f in all_fixtures:
            for _ in range(60):
                q = random_poly(rng, f.p, 2, max_terms=3, lo=0, hi=2)
                h = random_poly(rng, f.p, 2, max_terms=4, lo=0, hi=3)
                assert reduce(q * f + h, f) == reduce(h, f)

    def test_monomial_shift_invariance(self, all_fixtures):
        rng = random.Random(14)
        for f in all_fixtures:
            for _ in range(60):
                g = random_poly(rng, f.p, 2, max_terms=4, lo=-3, hi=3)
                if rng.random() < 0.3:
                    g = g * f  # exercise the ideal-member branch too
                m = tuple(rng.randint(-3, 3) for _ in range(2))
                assert reduce(g.shift(m), f).is_zero == reduce(g, f).is_zero


def _divides_by_linear_system(g, f):
    """Independent membership oracle: does f divide g as polynomials?

    Writes q * f = g as an exact linear system over the coefficients of
    q (whose support box is pinned by the axiswise min/max degrees of a
    product in a domain) and checks consistency mod p.  No division.
    """
    import numpy as np

    from polymix.gfp import rank

    if g.is_zero:
        return True
    p = f.p
    lo = [a - b for a, b in zip(g.min_exponents(), f.min_exponents())]
    hi = [a - b for a, b in zip(g.max_exponents(), f.max_exponents())]
    if any(l > h for l, h in zip(lo, hi)):
        return False
    q_monos = [
        (x, y)
        for x in range(lo[0], hi[0] + 1)
        for y in range(lo[1], hi[1] + 1)
    ]
    prod_monos = sorted(
        {tuple(a + b for a, b in zip(qm, fm)) for qm in q_monos for fm in f.terms}
        | set(g.terms)
    )
    row_of = {m: i for i, m in enumerate(prod_monos)}
    a = np.zeros((len(prod_monos), len(q_monos)), dtype=np.int64)
    for col, qm in enumerate(q_monos):
        for fm, c in f.terms.items():
            a[row_of[tuple(x + y for x, y in zip(qm, fm))], col] += c
    b = np.zeros((len(prod_monos), 1), dtype=np.int64)
    for m, c in g.terms.items():
        b[row_of[m], 0] = c
    return rank(a % p, p) == rank(np.hstack([a, b]) % p, p)


def _member_oracle(g, f):
    """Laurent-ideal membership by the linear-system route."""
    from polymix.quotient import normalize

    if g.is_zero:
        return True
    fhat, _ = normalize(f)
    ghat, _ = normalize(g)
    return _divides_by_linear_system(ghat, fhat)


class TestMembershipOracle:
    def test_against_division_on_randoms(self, all_fixtures):
        rng = random.Random(19)
        for f in all_fixtures:
            agreements = 0
            for _ in range(80):
                g = random_poly(rng, f.p, 2, max_terms=4, lo=-2, hi=3)
                if rng.random() < 0.4 and not g.is_zero:
                    g = g * f  # force genuine members into the mix
                assert reduce(g, f).is_zero == _member_oracle(g, f)
                agreements += 1
            assert agreements == 80

    def test_against_division_on_random_moduli(self):
        rng = random.Random(20)
        for p in (2, 3, 5):
            for _ in range(15):
                f = random_poly(rng, p, 2, max_terms=4, lo=0, hi=2, nonzero=True)
                if f.is_monomial:
                    continue
                g = random_poly(rng, p, 2, max_terms=4, lo=0, hi=3)
                if rng.random() < 0.4 and not g.is_zero:
                    g = g * f
                assert reduce(g, f).is_zero == _member_oracle(g, f)


class TestResidueShortcuts:
    def test_monomial_residue_matches_division(self, all_fixtures):
        rng = random.Random(15)
        for f in all_fixtures:
            for _ in range(25):
                e = tuple(rng.randint(0, 6) for _ in range(2))
                assert monomial_residue(e, f) == nf(monomial(f.p, 2, e), f)

    def test_power_residue_matches_division(self, all_fixtures):
        rng = random.Random(16)
        for f in all_fixtures:
            for _ in range(10):
                g = random_poly(rng, f.p, 2, max_terms=3, lo=0, hi=2, nonzero=True)
                n = rng.randint(0, 6)
                assert power_residue(g, n, f) == nf(poly_pow(g, n), f)

    def test_huge_monomial_residue(self, ledrappier):
        # u2^(2^12) = (1 + u1)^(2^12) = 1 + u1^4096 in the quotient
        r = monomial_residue((0, 4096), ledrappier)
        assert r.terms == {(0, 0): 1, (4096, 0): 1}

    def test_wrong_length_exponents_rejected_and_never_kept(self, ledrappier):
        tables = quotient._prepared(ledrappier).sets
        for e in ((3, 4, 5), (3,)):
            with pytest.raises(ValueError, match="wrong dimension"):
                monomial_residue(e, ledrappier)
            assert not tables
        assert monomial_residue((3, 4), ledrappier) == nf(monomial(2, 2, (3, 4)), ledrappier)

    def test_laurent_modulus_defines_same_ideal(self, ledrappier):
        # monomials are units: u^m * f generates the same ideal as f
        shifted = ledrappier.shift((-1, 2))
        rng = random.Random(18)
        for _ in range(25):
            g = random_poly(rng, 2, 2, max_terms=4, lo=-2, hi=3)
            assert reduce(g, shifted).is_zero == reduce(g, ledrappier).is_zero


def _moduli(all_fixtures):
    """The fixtures plus seeded generic 5-term polynomials over F_5 and F_7."""
    rng = random.Random(31)
    return list(all_fixtures) + [generic_poly(rng, p) for p in (5, 7) for _ in range(4)]


class TestPreparedModulus:
    def test_nf_matches_division_from_scratch(self, all_fixtures):
        rng = random.Random(32)
        for f in _moduli(all_fixtures):
            for _ in range(30):
                g = random_poly(rng, f.p, 2, max_terms=6, lo=-2, hi=5)
                if rng.random() < 0.3:
                    g = g * f + random_poly(rng, f.p, 2, max_terms=2)
                assert nf(g, f) == divide_from_scratch(g, f)

    def test_monomial_residue_matches_division_from_scratch(self, all_fixtures):
        rng = random.Random(33)
        for f in _moduli(all_fixtures):
            exps = [tuple(rng.randint(0, 9) for _ in range(2)) for _ in range(20)]
            for e in exps + exps[:5]:  # the repeats come from the kept residues
                assert monomial_residue(e, f) == divide_from_scratch(monomial(f.p, 2, e), f)

    def test_rectangle_walk_steps_from_neighbours(self, all_fixtures, monkeypatch):
        # in lexicographic order every point after the first has a kept
        # neighbour u^(e - e_i), so square-and-multiply runs only once
        calls = []
        real = quotient._product
        monkeypatch.setattr(quotient, "_product", lambda *a: calls.append(a) or real(*a))
        for f in _moduli(all_fixtures):
            counts = []
            for e in sorted(product(range(3, 9), range(2, 8))):
                before = len(calls)
                assert monomial_residue(e, f) == divide_from_scratch(monomial(f.p, 2, e), f)
                counts.append(len(calls) - before)
            assert counts[0] > 0 and not any(counts[1:])

    def test_residues_across_width_steps(self, ledrappier):
        # one modulus asked on both sides of the 8/16- and 16/24-bit steps,
        # so the packed tables are seeded wider twice, then a rectangle
        # walk through window_residues across the 8/16-bit step: every
        # residue is the division's and the count is the one-table count
        exps = [(100, 27), (101, 27), (0, 127), (0, 128), (64, 63), (64, 64),
                (2 ** 15 - 6, 5), (2 ** 15 - 5, 5), (2 ** 15 - 40, 39), (2 ** 15 - 39, 39)]
        random.Random(33).shuffle(exps)
        assert [quotient._width(sum(e)) for e in exps[:5]] == [8, 8, 16, 16, 24]
        for e in exps:
            assert monomial_residue(e, ledrappier) == divide_from_scratch(
                monomial(2, 2, e), ledrappier)
        walk = sorted(product(range(120, 126), range(2, 8)))
        residues, top = quotient.window_residues(walk, ledrappier)
        width = (top.bit_length() - 1) // 3
        assert width == 24 and all(k < top for r in residues for k in r)
        for e, r in zip(walk, residues):
            expected = divide_from_scratch(monomial(2, 2, e), ledrappier).terms
            assert {_unpack(k, 2, width): c for k, c in r.items()} == expected
        assert quotient._prepared(ledrappier).residue.used == 936

    def test_moduli_used_in_turn_keep_their_own_residues(self, all_fixtures):
        rng = random.Random(34)
        moduli = _moduli(all_fixtures)
        for _ in range(60):
            f = rng.choice(moduli)
            e = (rng.randint(0, 7), rng.randint(0, 7))
            assert monomial_residue(e, f) == divide_from_scratch(monomial(f.p, 2, e), f)
            g = random_poly(rng, f.p, 2, max_terms=4, lo=0, hi=6)
            assert nf(g, f) == divide_from_scratch(g, f)

    def test_equal_moduli_in_different_objects_agree(self, ledrappier):
        twin = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)])
        for e in [(5, 3), (0, 9), (4, 4)]:
            assert monomial_residue(e, ledrappier) == monomial_residue(e, twin)

    def test_residue_budget_counts_one_modulus_term_pairs(self, ledrappier, monkeypatch):
        # u2^(2^12): twelve squares of 1 + u1^(2^j), 4 term pairs each, one
        # product of 1 with the last (2 pairs), and no division step
        monkeypatch.setenv("POLYMIX_BUDGET", "49")
        with pytest.raises(BudgetExceededError, match="^residue budget: 50 "):
            monomial_residue((0, 4096), ledrappier)
        monkeypatch.setenv("POLYMIX_BUDGET", "50")
        twin = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)])
        assert monomial_residue((0, 4096), twin).terms == {(0, 0): 1, (4096, 0): 1}
        # the count stays with the modulus, so a whole query is bounded: the
        # neighbour step from u2^4096 adds its 2 pairs
        with pytest.raises(BudgetExceededError, match="^residue budget: 52 "):
            monomial_residue((0, 4097), twin)

    def test_trivial_moduli_still_raise(self, ledrappier):
        for f in (LaurentPoly(2, 2), monomial(2, 2, (1, 0)), monomial(2, 2, (0, 0))):
            for _ in range(2):  # a failed preparation leaves nothing behind
                with pytest.raises(TrivialQuotientError):
                    reduce(ledrappier, f)
                with pytest.raises(TrivialQuotientError):
                    monomial_residue((2, 1), f)
                with pytest.raises(TrivialQuotientError):
                    power_residue(ledrappier, 3, f)

    def test_every_modulus_user_raises_trivial_quotient(self, ledrappier):
        # one rule and one error class, which callers may catch as ValueError
        assert issubclass(TrivialQuotientError, ValueError)
        cell = CylinderSpec.from_pairs([((0, 0), 0)])
        uses = [
            lambda f: reduce(ledrappier, f),
            lambda f: monomial_residue((2, 1), f),
            lambda f: cylinder_measure(f, cell, method="exact"),
            lambda f: cylinder_measure(f, cell, method="box"),
            lambda f: joint_measure(f, [((0, 0), cell), ((1, 0), cell)]),
            mixing_bounds,
            lambda f: frobenius_certificate(f, 3),
            lambda f: search_relations(f, 2, 1),
        ]
        message = "^modulus is zero or a monomial, quotient ring is trivial$"
        for f in (LaurentPoly(2, 2), monomial(2, 2, (1, 0))):
            for use in uses:
                with pytest.raises(TrivialQuotientError, match=message):
                    use(f)

    def test_residue_limit_read_once_per_modulus(self, square_f3, monkeypatch):
        # the 156 residues of a 13 x 12 window each charge the count, against
        # the limit read when the modulus was prepared
        monkeypatch.delenv("POLYMIX_BUDGET", raising=False)
        cyl = CylinderSpec.from_pairs(((x, y), 0) for x in range(13) for y in range(12))
        with mock.patch.object(budgets, "_override", wraps=budgets._override) as reads:
            assert cylinder_measure(square_f3, cyl).exponent is not None
        assert reads.call_count == 1

    def test_modulus_keeps_equality_and_immutability(self, square_f3):
        twin = make_poly(3, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 2)])
        terms_before = dict(square_f3.terms)
        monomial_residue((6, 5), square_f3)
        nf(monomial(3, 2, (3, 3)), square_f3)
        assert square_f3 == twin and twin == square_f3
        assert square_f3 != square_f3 * monomial(3, 2, (0, 0), 2)
        assert square_f3.terms == terms_before
        with pytest.raises(AttributeError):
            square_f3.terms = {}
        with pytest.raises(AttributeError):
            square_f3._modulus = None
        with pytest.raises(TypeError):
            hash(square_f3)
        # the residues handed out are values too
        r = monomial_residue((6, 5), square_f3)
        with pytest.raises(AttributeError):
            r.terms = {}

    def test_threads_sharing_a_fresh_modulus(self):
        # every thread fills the same lazily prepared modulus at once; the
        # answers must be those of one thread working on an equal modulus
        rng = random.Random(35)
        f = make_poly(3, 2, [((0, 0), 1), ((1, 0), 2), ((1, 2), 1)])
        twin = make_poly(3, 2, f.terms.items())
        exps = [(rng.randint(0, 300), rng.randint(0, 300)) for _ in range(12)]
        # total degrees on both sides of 127/128: some threads seed the
        # 16-bit tables while others still walk the 8-bit ones
        exps += [(60, 60), (64, 63), (0, 127), (64, 64), (127, 1), (100, 40)]
        expected = {e: monomial_residue(e, twin) for e in exps}
        start = threading.Barrier(6)
        wrong = []

        def work(seed):
            order = list(exps)
            random.Random(seed).shuffle(order)
            start.wait(timeout=30)
            try:
                for e in order:
                    if monomial_residue(e, f) != expected[e]:
                        wrong.append(e)
            except Exception as exc:  # pytest would only warn about it
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def _scaled_division(rng, p, d, degree):
    """A modulus g(u^s) and a dividend of total degree ``degree`` on the same scale.

    The dividend's terms are s a + r with a small and one offset r per
    term, so the division takes a few steps however large s is.
    """
    s = degree // (3 * d + 3)
    while True:
        g = random_poly(rng, p, d, max_terms=3, lo=0, hi=2, nonzero=True)
        if not g.is_monomial:
            break
    f = make_poly(p, d, [(tuple(s * x for x in e), c) for e, c in g.terms.items()])
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = [s * rng.randint(0, 3) + rng.randint(0, 2) for _ in range(d)]
        terms[tuple(e)] = rng.randint(1, p - 1)
    top = max(terms, key=sum)
    terms[top[:-1] + (top[-1] + degree - sum(top),)] = terms.pop(top)
    return f, make_poly(p, d, terms.items())


def _unpack(key, d, width):
    # e_1 ... e_d from the low fields of a packed key
    return tuple(key >> i * width & (1 << width) - 1 for i in range(d))


class TestPackedDivision:
    """The division on packed keys against tuple arithmetic."""

    def test_width_steps(self):
        for degree, width in WIDTH_STEPS:
            assert quotient._width(degree) == width

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_divide_matches_division_from_scratch(self, d):
        rng = random.Random(70 + d)
        for degree, width in WIDTH_STEPS:
            for p in (2, 3, 7):
                f, g = _scaled_division(rng, p, d, degree)
                assert max(map(sum, g.terms)) == degree
                m = quotient._prepared(f)
                frame = m.frame(width)
                packed = {quotient._pack(e, frame.weights): c for e, c in g.terms.items()}
                q_packed = {}
                remainder = quotient._divide(packed, m, frame, q_packed)
                q_expected = {}
                expected = divide_from_scratch(g, f, q_expected)
                for result, terms in ((remainder, expected.terms), (q_packed, q_expected)):
                    assert {_unpack(k, d, width): c for k, c in result.items()} == terms
                assert nf(g, f) == expected

    def test_packed_order_is_grlex(self):
        rng = random.Random(75)
        for d in (1, 2, 3, 5):
            for degree, width in WIDTH_STEPS:
                bound = degree // d
                vectors = {tuple(rng.choice((0, 1, bound - 1, bound, rng.randint(0, bound)))
                                 for _ in range(d)) for _ in range(40)}
                weights = quotient._weights(d, width)
                keys = {e: quotient._pack(e, weights) for e in vectors}
                assert sorted(vectors, key=keys.get) == sorted(vectors, key=grlex_key)
                guard = sum(1 << (i * width + width - 1) for i in range(d + 1))
                for a in vectors:
                    assert _unpack(keys[a], d, width) == a
                    for b in vectors:
                        divisible = ((keys[a] | guard) - keys[b]) & guard == guard
                        assert divisible == all(x >= y for x, y in zip(a, b))
                        if sum(a) + sum(b) <= degree:
                            ab = tuple(x + y for x, y in zip(a, b))
                            assert keys[a] + keys[b] == quotient._pack(ab, weights)
