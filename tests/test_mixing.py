import heapq
import math
import random
import time
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from polymix import (
    BudgetExceededError,
    InternalInconsistencyError,
    LaurentPoly,
    frobenius_certificate,
    make_poly,
    mixing_bounds,
    monomial,
    poly_pow,
    search_relations,
    zero,
)
from polymix import laurent, quotient
from polymix.cli import main
from polymix.laurent import frobenius_power
from polymix.mixing import _candidate_count, relation_value
from polymix.jsonio import load_poly
from polymix.quotient import (
    leading_term,
    monomial_residue,
    nf,
    normalize,
)

from conftest import FIXTURES, divide_from_scratch, generic_poly, random_poly


def scalar(p, d, c):
    return make_poly(p, d, [((0,) * d, c)])


class TestMixingBounds:
    def test_triangle_fixture(self, ledrappier):
        bounds, poly = mixing_bounds(ledrappier)
        assert bounds.vertex_count == 3
        assert bounds.support_size == 3
        assert (bounds.lower, bounds.upper) == (2, 2)
        assert bounds.polytope_tight is True
        assert bounds.conclusion == "M=S=2"
        assert poly.affine_dim == 2

    def test_tight_with_gap(self, quad):
        bounds, _ = mixing_bounds(quad)
        assert bounds.vertex_count == 3
        assert bounds.support_size == 4
        assert (bounds.lower, bounds.upper) == (2, 3)
        assert bounds.polytope_tight is True
        assert bounds.conclusion == "M=S within [2,3]"

    def test_square_bounds_coincide(self, square_f3):
        bounds, _ = mixing_bounds(square_f3)
        assert bounds.vertex_count == 4
        assert bounds.support_size == 4
        assert (bounds.lower, bounds.upper) == (3, 3)
        assert bounds.polytope_tight is False
        assert bounds.conclusion == "M=S=3"

    def test_not_tight_open_bounds(self):
        # pentagon-supported polynomial: not tight, lower < upper
        f = make_poly(
            2,
            2,
            [((0, 0), 1), ((2, 0), 1), ((3, 1), 1), ((1, 3), 1), ((0, 2), 1), ((1, 1), 1)],
        )
        bounds, _ = mixing_bounds(f)
        assert bounds.vertex_count == 5
        assert bounds.support_size == 6
        assert bounds.polytope_tight is False
        assert bounds.conclusion == "M in [4,?], S in [?,5]"

    def test_monomial_rejected(self):
        with pytest.raises(ValueError):
            mixing_bounds(monomial(2, 2, (1, 0)))
        with pytest.raises(ValueError):
            mixing_bounds(zero(2, 2))

    def test_lower_never_exceeds_upper(self):
        rng = random.Random(51)
        for p in (2, 3):
            for _ in range(20):
                f = random_poly(rng, p, 2, max_terms=6, lo=-2, hi=3, nonzero=True)
                if len(f.terms) < 2:
                    continue
                bounds, _ = mixing_bounds(f)
                assert 1 <= bounds.lower <= bounds.upper


class TestFrobeniusCertificate:
    def test_triangle_k10(self, ledrappier):
        cert = frobenius_certificate(ledrappier, 10)
        assert cert.shape == ((0, 0), (0, 1), (1, 0))
        assert cert.verified_k == tuple(range(11))
        assert cert.frobenius_family

    def test_four_point_shape(self, quad):
        cert = frobenius_certificate(quad, 6)
        assert len(cert.shape) == 4
        assert cert.verified_k == tuple(range(7))

    def test_k_zero(self, square_f3):
        cert = frobenius_certificate(square_f3, 0)
        assert cert.verified_k == (0,)

    def test_never_fails_across_fields(self):
        rng = random.Random(52)
        for p in (2, 3, 5):
            for _ in range(5):
                f = random_poly(rng, p, 2, max_terms=4, lo=-2, hi=2, nonzero=True)
                if f.is_monomial:
                    continue
                cert = frobenius_certificate(f, 4)
                assert cert.verified_k == tuple(range(5))

    def test_monomial_rejected(self):
        with pytest.raises(ValueError):
            frobenius_certificate(monomial(2, 2, (1, 0)), 3)

    @pytest.mark.parametrize("p, exps", [
        (37, [(0, 0), (30, 0), (0, 30)]),
        (1009, [(0,), (1000,)]),
        (101, [(0, 0), (20, 0), (0, 20)]),
    ], ids=["f37_u30", "f1009_u1000", "f101_u20"])
    def test_sparse_exponents_fit_the_division_budget(self, monkeypatch, p, exps):
        # the division stays on the lattice of the exponents' gcds, whose
        # monomials the budget counts: its full box would be over 10^6
        monkeypatch.delenv("POLYMIX_BUDGET", raising=False)
        f = make_poly(p, len(exps[0]), [(e, 1) for e in exps])
        cert = frobenius_certificate(f, 3)
        assert cert.verified_k == (0, 1, 2, 3) and cert.frobenius_family


def frobenius_residue(g, k, f):
    """Residue of g**(p^k), via k reduce-then-Frobenius rounds.

    Valid because (a + qf)^p = a^p + (q^p f^{p-1}) f in characteristic p,
    so reducing between successive p-th powers never changes the coset.
    Each round is term surgery plus one division; carried over the
    support monomials it is the residue walk below.  Its residues grow
    like p^k for a generic f.
    """
    r = nf(g, f)
    for _ in range(k):
        r = nf(frobenius_power(r, 1), f)
    return r


def residue_walk(f, k_max):
    """Per-k verdicts of the k-round residue walk, independent of the identity.

    Each monomial u^(n - base) of the support is reduced, then carried one
    Frobenius round per k; the coefficient-weighted sum must reduce to 0.
    """
    shape = sorted(f.terms)
    base = f.min_exponents()
    residues = [monomial_residue(tuple(a - b for a, b in zip(n, base)), f) for n in shape]
    verdicts = []
    for k in range(k_max + 1):
        if k:
            residues = [frobenius_residue(r, 1, f) for r in residues]
        acc = zero(f.field, f.dim)
        for n, r in zip(shape, residues):
            acc = acc + r.scale(f.terms[n])
        verdicts.append(nf(acc, f).is_zero)
    return verdicts


def _cross_check_cases():
    cases = [
        pytest.param(make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)]), 8,
                     id="ledrappier"),
        pytest.param(make_poly(2, 2, [((0, 0), 1), ((1, 0), 1), ((2, 0), 1), ((0, 1), 1)]), 8,
                     id="quad"),
        pytest.param(make_poly(3, 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 2)]), 8,
                     id="square_f3"),
    ]
    rng = random.Random(55)
    for p in (5, 7):
        for nterms in (4, 5, 6):
            cases.append(pytest.param(generic_poly(rng, p, nterms), 3,
                                      id=f"generic_f{p}_{nterms}"))
    for p in (2, 3):
        for i in range(3):
            cases.append(pytest.param(generic_poly(rng, p, 3, span=2), 8,
                                      id=f"trinomial_f{p}_{i}"))
    return cases


def product_identity_holds(f, k):
    """Product identity oracle: fhat^(p^k) by products is fhat(u^(p^k)), which lies in <f>.

    ``laurent.frobenius_power`` is looked up at call time so that the
    mutation tests can replace it.
    """
    fhat, _ = normalize(f)
    dilated = laurent.frobenius_power(fhat, k)
    return poly_pow(fhat, f.p ** k) == dilated and nf(dilated, f).is_zero


def _small_power_cases():
    rng = random.Random(56)
    return [(generic_poly(rng, p, 4, span=2), k) for p, k in ((2, 3), (3, 2), (5, 1), (7, 1))]


class TestResidueWalk:
    def test_frobenius_residue_matches_division(self, all_fixtures):
        rng = random.Random(17)
        for f in all_fixtures:
            for _ in range(8):
                g = random_poly(rng, f.p, 2, max_terms=3, lo=0, hi=2, nonzero=True)
                for k in (0, 1, 2):
                    assert frobenius_residue(g, k, f) == nf(poly_pow(g, f.p ** k), f)


class TestIdentityCertificate:
    @pytest.mark.parametrize("f, k_max", _cross_check_cases())
    def test_agrees_with_residue_walk(self, f, k_max):
        cert = frobenius_certificate(f, k_max)
        assert cert.verified_k == tuple(range(k_max + 1))
        assert cert.frobenius_family
        assert cert.shape == tuple(sorted(f.terms))
        assert cert.coefficients == tuple(f.terms[n] for n in cert.shape)
        assert residue_walk(f, k_max) == [True] * (k_max + 1)

    def test_substitution_step_on_small_powers(self):
        # the step from k = 1 to every k: fhat^(p^k) is fhat(u^(p^k))
        for f, k in _small_power_cases():
            assert product_identity_holds(f, k)

    @pytest.mark.parametrize("p", [11, 13, 31])
    def test_division_certificate_agrees_with_product_identity(self, p):
        rng = random.Random(57 + p)
        for nterms in (3, 5):
            f = generic_poly(rng, p, nterms)
            assert frobenius_certificate(f, 6).verified_k == tuple(range(7))
            assert product_identity_holds(f, 1)

    def test_generic_f7_reaches_k12(self):
        # the residue walk would need minutes for this polynomial at k = 12
        f = load_poly(str(FIXTURES / "generic_f7.json"))
        assert frobenius_certificate(f, 12).verified_k == tuple(range(13))


def _dropping_mul(orig):
    def mul(self, other):
        out = orig(self, other)
        if len(out.terms) > 1:
            terms = dict(out.terms)
            del terms[max(terms)]
            out = LaurentPoly(out.field, out.dim, terms)
        return out

    return mul


def _dilate_by_p_squared(g, k):
    return frobenius_power(g, 2 * k)


def _dilate_and_shift(g, k):
    return frobenius_power(g, k).shift((0,) * (g.dim - 1) + (1,)) if k else g


_PRODUCT = quotient._product
_FRAME = quotient._Modulus.frame


def _product_dropping_a_term(a, b, p):
    out = _PRODUCT(a, b, p)
    if len(out) > 1:
        del out[max(out)]
    return out


def _frame_dropping_a_tail_term(m, width):
    frame = _FRAME(m, width)
    return frame._replace(tail=frame.tail[1:])


# a division that never revisits the terms its steps create
_HEAPQ_LOSING_PUSHES = SimpleNamespace(
    heapify=heapq.heapify, heappop=heapq.heappop, heappush=lambda heap, item: None
)


_CERTIFICATE_MUTANTS = pytest.mark.parametrize(
    "target, mutant",
    [
        ("polymix.quotient._product", _product_dropping_a_term),
        ("polymix.mixing.frobenius_power", _dilate_by_p_squared),
        ("polymix.mixing.frobenius_power", _dilate_and_shift),
        ("polymix.quotient._Modulus.frame", _frame_dropping_a_tail_term),
        ("polymix.quotient.heapq", _HEAPQ_LOSING_PUSHES),
    ],
    ids=[
        "mul_drops_a_term",
        "dilates_by_p_squared",
        "dilation_shifted",
        "divide_drops_a_tail_term",
        "divide_loses_new_terms",
    ],
)


class TestCertificateMutations:
    """Each mutant fails the certificate and the product identity oracle.

    The certificate divides f(u^p) by f and multiplies the quotient back
    into the relation read off the shape, so a wrong division, product or
    dilation makes it raise.
    """

    @pytest.mark.parametrize(
        "target, mutant",
        [
            ("polymix.laurent.LaurentPoly.__mul__", _dropping_mul(LaurentPoly.__mul__)),
            ("polymix.laurent.frobenius_power", _dilate_by_p_squared),
            ("polymix.laurent.frobenius_power", _dilate_and_shift),
        ],
        ids=["mul_drops_a_term", "dilates_by_p_squared", "dilation_shifted"],
    )
    def test_product_identity_oracle_fails(self, monkeypatch, target, mutant):
        monkeypatch.setattr(target, mutant)
        for f, k in _small_power_cases():
            assert not product_identity_holds(f, k)

    @_CERTIFICATE_MUTANTS
    def test_certificate_raises(self, monkeypatch, ledrappier, square_f3, target, mutant):
        monkeypatch.setattr(target, mutant)
        for f in (ledrappier, square_f3):
            with pytest.raises(InternalInconsistencyError):
                frobenius_certificate(f, 3)

    @_CERTIFICATE_MUTANTS
    def test_certify_exits_4(self, monkeypatch, capsys, target, mutant):
        monkeypatch.setattr(target, mutant)
        code = main(["certify", str(FIXTURES / "generic_f7.json"), "--max-k", "2"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")


class TestCheckRelation:
    """A relation vanishes along a tuple when ``relation_value(...).is_zero``."""

    def test_frobenius_tuples_all_true(self, ledrappier):
        a = [scalar(2, 2, 1)] * 3
        for j in range(1, 13):
            tup = [(0, 0), (2 ** j, 0), (0, 2 ** j)]
            assert relation_value(a, tup, ledrappier).is_zero

    def test_non_dilation_false(self, ledrappier):
        a = [scalar(2, 2, 1)] * 3
        assert not relation_value(a, [(0, 0), (3, 0), (0, 3)], ledrappier).is_zero

    def test_single_monomial_never_zero(self, ledrappier):
        assert not relation_value([scalar(2, 2, 1)], [(5, 7)], ledrappier).is_zero

    def test_coefficient_in_the_ideal_vanishes_everywhere(self, ledrappier):
        # a coefficient that is 0 mod f adds nothing to a relation's truth
        one = scalar(2, 2, 1)
        for n in [(0, 0), (5, 7), (2 ** 40, 3)]:
            assert relation_value([ledrappier], [n], ledrappier).is_zero
            dilated = [(0, 0), (2, 0), (0, 2), n]
            assert relation_value([one] * 3 + [ledrappier], dilated, ledrappier).is_zero
            apart = [(0, 0), (3, 0), (0, 3), n]
            assert not relation_value([one] * 3 + [ledrappier], apart, ledrappier).is_zero

    def test_dimension_mismatch_rejected(self, ledrappier):
        # a 2-D coefficient with a 1-D or a 3-D exponent vector
        for n in ((0,), (0, 0, 1)):
            with pytest.raises(ValueError, match="wrong dimension"):
                relation_value([scalar(2, 2, 1)], [n], ledrappier)

    def test_generator_rule_consistent_with_certificate(self, all_fixtures):
        # the coefficients of f along k -> p^k S(f)
        for f in all_fixtures:
            shape = sorted(f.terms)
            coeffs = [scalar(f.p, f.dim, f.terms[n]) for n in shape]
            for k in range(0, 6):
                tup = [tuple(f.p ** k * x for x in n) for n in shape]
                assert relation_value(coeffs, tup, f).is_zero

    def test_translation_invariance_of_relation_truth(self, all_fixtures):
        rng = random.Random(53)
        for f in all_fixtures:
            shape = sorted(f.terms)
            coeffs = tuple(scalar(f.p, 2, f.terms[n]) for n in shape)
            for _ in range(10):
                m = (rng.randint(-5, 5), rng.randint(-5, 5))
                k = rng.randint(1, 4)
                base = [tuple(f.p ** k * x for x in n) for n in shape]
                moved = [tuple(x + y for x, y in zip(n, m)) for n in base]
                v1 = relation_value(coeffs, base, f).is_zero
                v2 = relation_value(coeffs, moved, f).is_zero
                assert v1 == v2 == True

    def test_relation_value_matches_direct_reduction(self, all_fixtures):
        # the sum of monomial residues must be the remainder of the whole
        # relation polynomial, shifted by the minimum of m + n_i over the
        # terms u^m of the coefficients (taken before any cancellation)
        rng = random.Random(54)
        for f in all_fixtures:
            for lo in (-1, 0):
                for _ in range(25):
                    r = rng.randint(1, 3)
                    coeffs = [
                        random_poly(rng, f.p, 2, max_terms=2, lo=lo, hi=1, nonzero=True)
                        for _ in range(r)
                    ]
                    exps = [
                        (rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(r)
                    ]
                    shift = tuple(map(min, zip(*(
                        (m[0] + n[0], m[1] + n[1]) for a, n in zip(coeffs, exps) for m in a.terms
                    ))))
                    direct = zero(f.field, 2)
                    for a, n in zip(coeffs, exps):
                        direct = direct + a.shift((n[0] - shift[0], n[1] - shift[1]))
                    value = relation_value(coeffs, exps, f)
                    assert value == divide_from_scratch(direct, f)
                    assert value.is_zero == nf(direct, f).is_zero

    def test_laurent_coefficients_supported(self, ledrappier):
        # coefficients may be Laurent polynomials; u1^{-1} is a unit
        a = make_poly(2, 2, [((-1, 0), 1)])
        assert relation_value([a, a, a], [(0, 0), (2, 0), (0, 2)], ledrappier).is_zero


class TestSearchRelations:
    def test_finds_support_shape(self, ledrappier):
        hits = search_relations(ledrappier, 3, 1, 0)
        shapes = {h.shape for h in hits}
        assert ((0, 0), (0, 1), (1, 0)) in shapes
        frob = [h for h in hits if h.shape == ((0, 0), (0, 1), (1, 0))]
        assert frob[0].coefficients == (1, 1, 1)
        assert frob[0].frobenius_family
        assert frob[0].verified_k == (1, 2, 4)

    def test_dilated_copy_is_candidate_only(self, ledrappier):
        hits = search_relations(ledrappier, 3, 1, 0)
        doubled = [h for h in hits if h.shape == ((0, 0), (0, 2), (2, 0))]
        assert doubled and not doubled[0].frobenius_family

    def test_no_two_point_shape(self, ledrappier):
        assert search_relations(ledrappier, 2, 2, 0) == []

    def test_more_points_than_the_box_builds_no_pool(self, ledrappier):
        # 10 points in a 1-point box: no candidate, so the 2^25 - 1
        # coefficient polynomials of degree 4 are never made
        start = time.perf_counter()
        assert search_relations(ledrappier, 10, 0, 4) == []
        assert time.perf_counter() - start < 1

    def test_radius_zero_empty(self, ledrappier):
        assert search_relations(ledrappier, 2, 0, 0) == []

    def test_r_below_two_rejected(self, ledrappier):
        with pytest.raises(ValueError):
            search_relations(ledrappier, 1, 1, 0)

    def test_budget_enforced(self, ledrappier):
        with pytest.raises(BudgetExceededError):
            search_relations(ledrappier, 3, 12, 0)

    def test_candidate_count_is_exact_up_to_the_limit(self):
        # past the limit it may stop early, but only at a partial product
        # that already passes the limit and never exceeds the true count
        for n, r, p, monos, limit in product(range(13), range(2, 15), (2, 3), (1, 2, 4),
                                             (1, 50, 10 ** 4)):
            exact = math.comb(n, r) * (p ** monos - 1) ** r
            used = _candidate_count(n, r, p, monos, limit)
            assert used == exact if exact <= limit else limit < used <= exact

    def test_deterministic_order(self, ledrappier):
        a = search_relations(ledrappier, 3, 1, 0)
        b = search_relations(ledrappier, 3, 1, 0)
        assert [(h.shape, h.coefficients) for h in a] == [
            (h.shape, h.coefficients) for h in b
        ]

    def test_degree_bounded_coefficients_smoke(self, ledrappier):
        # two-point shapes admit no relation even with degree-1
        # coefficients: the quotient by an irreducible trinomial is a
        # domain, so a + b*u^k = 0 forces a = b = 0
        hits = search_relations(ledrappier, 2, 1, 1)
        assert hits == []

    def test_polynomial_coefficient_serialization(self, ledrappier):
        from polymix.jsonio import certificate_json
        from polymix.mixing import ShapeCertificate

        coeff = make_poly(2, 2, [((0, 0), 1), ((1, 0), 1)])
        cert = ShapeCertificate(((0, 0), (1, 1)), (1, coeff), (1, 2), False)
        data = certificate_json(cert)
        assert data["coeffs"][0] == 1
        assert data["coeffs"][1] == {
            "terms": [{"e": [0, 0], "c": 1}, {"e": [1, 0], "c": 1}]
        }

    def test_f3_search_finds_support(self, square_f3):
        hits = search_relations(square_f3, 4, 1, 0)
        canon = ((0, 0), (0, 1), (1, 0), (1, 1))
        matching = [h for h in hits if h.shape == canon and h.frobenius_family]
        assert matching
        # coefficients proportional to (1, 1, 1, 2) after normalization
        assert matching[0].coefficients in {(1, 1, 1, 2), (2, 2, 2, 1)}


def brute_force_search(f, r, radius, degree):
    """The relation search by its definition, sharing no table with the search.

    Every r-subset of [-radius, radius]^d, translated to minimum 0, is a
    shape; every nonzero coefficient polynomial with exponents in
    [0, degree]^d that is nonzero mod f is a coefficient, the first one
    with grlex-leading coefficient 1.  A candidate is a hit when
    ``relation_value`` reduces to zero at each dilation k in {1, p, p^2}.
    Residues are taken against a fresh copy of f.
    """
    f = make_poly(f.p, f.dim, f.terms.items())
    p, d = f.p, f.dim
    zero_exp = (0,) * d

    def canonical(points):
        base = [min(col) for col in zip(*points)]
        return tuple(sorted(tuple(a - b for a, b in zip(n, base)) for n in points))

    box = product(range(-radius, radius + 1), repeat=d)
    shapes = sorted({canonical(c) for c in combinations(list(box), r)})
    monos = list(product(range(degree + 1), repeat=d))
    pool = [make_poly(p, d, zip(monos, cs)) for cs in product(range(p), repeat=len(monos))]
    pool = [a for a in pool if not a.is_zero and not nf(a, f).is_zero]
    lead_one = [a for a in pool if leading_term(a)[1] == 1]
    ks = (1, p, p * p)
    support = sorted(f.terms)
    canon_support = canonical(support)
    hits = []
    for shape in shapes:
        for coeffs in product(lead_one, *[pool] * (r - 1)):
            if not all(
                relation_value(coeffs, [tuple(k * x for x in n) for n in shape], f).is_zero
                for k in ks
            ):
                continue
            consts = [a.terms.get(zero_exp) if a.is_monomial else None for a in coeffs]
            frob = (
                shape == canon_support
                and None not in consts
                and all(
                    c * f.terms[support[0]] % p == consts[0] * f.terms[n] % p
                    for c, n in zip(consts, support)
                )
            )
            out = tuple(a if c is None else c for a, c in zip(coeffs, consts))
            hits.append((shape, out, ks, frob))
    return hits


def _search_oracle_cases():
    # (polynomial, [(r, radius, coefficient degree), ...]), each brute force
    # under about a second
    def fixture(name):
        return load_poly(str(FIXTURES / f"{name}.json"))

    triangle_f2 = [(2, 0, 0), (3, 1, 0), (4, 1, 0), (3, 2, 0), (2, 1, 1)]
    cases = [
        ("ledrappier", fixture("ledrappier"), triangle_f2 + [(2, 2, 0)]),
        ("quad", fixture("quad"), [(3, 1, 0), (4, 1, 0), (3, 2, 0), (2, 1, 1)]),
        ("square_f3", fixture("square_f3"), [(3, 1, 0), (4, 1, 0), (2, 2, 0), (3, 2, 0)]),
        ("generic_f7", fixture("generic_f7"), [(2, 1, 0), (3, 1, 0), (2, 2, 0), (2, 0, 1)]),
    ]
    rng = random.Random(57)
    cases.append(("generic_f5", generic_poly(rng, 5, 4), [(2, 1, 0), (3, 1, 0), (2, 2, 0)]))
    cases.append(("generic_f7_4", generic_poly(rng, 7, 4), [(2, 1, 0), (2, 2, 0)]))
    for p, grid in ((2, triangle_f2), (3, [(3, 1, 0), (4, 1, 0), (2, 2, 0), (3, 2, 0)])):
        for i in range(2):
            cases.append((f"trinomial_f{p}_{i}", generic_poly(rng, p, 3, span=2), grid))
    return [
        pytest.param(f, r, radius, degree, id=f"{name}-r{r}-radius{radius}-deg{degree}")
        for name, f, grid in cases
        for r, radius, degree in grid
    ]


class TestSearchOracle:
    @pytest.mark.parametrize("f, r, radius, degree", _search_oracle_cases())
    def test_matches_brute_force(self, f, r, radius, degree):
        hits = search_relations(f, r, radius, degree)
        got = [(h.shape, h.coefficients, h.verified_k, h.frobenius_family) for h in hits]
        assert got == brute_force_search(f, r, radius, degree)

    def test_hits_vanish_at_every_listed_dilation(self):
        # with polynomial coefficients a hit at k = 1 and p need not hold at
        # p^2: this search has candidates of each kind, beyond the oracle's reach
        f = make_poly(2, 2, [((0, 0), 1), ((1, 1), 1), ((1, 2), 1)])
        hits = search_relations(f, 3, 1, 1)
        assert len(hits) == 15
        for h in hits:
            coeffs = [c if isinstance(c, LaurentPoly) else scalar(2, 2, c) for c in h.coefficients]
            for k in h.verified_k:
                dilated = [tuple(k * x for x in n) for n in h.shape]
                assert relation_value(coeffs, dilated, f).is_zero


def support_pattern_reference(f, shape, coeffs, canon_support):
    """The support-pattern label as first written, on unconverted coefficients."""
    if shape != canon_support:
        return False
    zero_exp = (0,) * f.dim
    scalars = []
    for c in coeffs:
        if not (c.is_monomial and zero_exp in c.terms):
            return False
        scalars.append(c.terms[zero_exp])
    support_sorted = sorted(f.terms)
    f_scalars = [f.terms[n] for n in support_sorted]
    p = f.p
    ratio = scalars[0] * pow(f_scalars[0], p - 2, p) % p
    return all(
        (ratio * fc) % p == sc for fc, sc in zip(f_scalars, scalars)
    )


def reference_labels(f, hits):
    canon_support = tuple(sorted(normalize(f)[0].terms))
    return [
        support_pattern_reference(f, h.shape, tuple(
            c if isinstance(c, LaurentPoly) else scalar(f.p, f.dim, c) for c in h.coefficients
        ), canon_support)
        for h in hits
    ]


class TestSupportPatternLabel:
    @pytest.mark.parametrize("f, r, radius, degree", _search_oracle_cases())
    def test_agrees_with_reference_on_oracle_cases(self, f, r, radius, degree):
        hits = search_relations(f, r, radius, degree)
        assert [h.frobenius_family for h in hits] == reference_labels(f, hits)

    @pytest.mark.parametrize("seed", range(20))
    def test_generic_support_is_the_one_labelled_hit(self, seed):
        # generic 4-5 term polynomials in [0,2]^2, searched at r = |S(f)|
        rng = random.Random(90 + seed)
        p = (5, 7)[seed % 2]
        f = generic_poly(rng, p, rng.randint(4, 5), span=2)
        hits = search_relations(f, len(f.terms), 1)
        assert [h.frobenius_family for h in hits] == reference_labels(f, hits)
        fhat = normalize(f)[0].terms
        shape = tuple(sorted(fhat))
        inv = pow(fhat[shape[0]], p - 2, p)
        labelled = [(h.shape, h.coefficients) for h in hits if h.frobenius_family]
        assert labelled == [(shape, tuple(fhat[n] * inv % p for n in shape))]
