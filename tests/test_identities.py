import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qident.qcore import ParamPoint, PoleError, qpoch, qpoch_multi
from qident import identities as ident
from qident.identities import (CounterexampleFound, RetryExhausted,
                               eval_sides, get_identity, identity_ids,
                               list_identities, sample_point, verify)

EXPECTED_IDS = (
    "jackson_8phi7", "jackson_6phi5", "watson_transform", "vwp_transform",
    "bailey_10phi9", "singh_quadratic", "schlosser_cr", "schlosser_lemma_n1",
    "sch_8phi7_special", "cr_prop_1", "cr_prop_2", "lebesgue_finite",
    "jacobi_finite", "jacobi_prefactor_relation", "quintuple_finite",
    "quintuple_finite_mn", "quintuple_ccg", "andrews_jain",
)


def rand_rational(rng, bound=1000):
    return ident.random_rational(rng, bound)


def rand_q(rng, bound=1000):
    return ident.random_q(rng, bound)


def test_registry_contents():
    descs = list_identities()
    assert len(descs) == 18
    ids = tuple(d.id for d in descs)
    assert ids == EXPECTED_IDS
    assert len(set(ids)) == 18
    assert "r" in get_identity("schlosser_cr").index_names
    assert "r" in get_identity("cr_prop_1").index_names


def test_lebesgue_finite_2_alias():
    desc = get_identity("lebesgue_finite_2")
    assert desc.id == "lebesgue_finite_2"
    assert desc.symbols == ("a",)
    # b is pinned to 0 by the derive step
    p = ParamPoint({"a": Fraction(3, 5), "q": Fraction(2, 7)}, {"n": 3})
    lhs, rhs = eval_sides("lebesgue_finite_2", p)
    assert lhs == rhs
    # matches andrews_jain evaluated with b = 0 explicitly
    p0 = p.with_symbols(b=0)
    assert eval_sides("andrews_jain", p0) == (lhs, rhs)


def test_unknown_identity():
    with pytest.raises(KeyError):
        get_identity("nope")


def test_eval_sides_missing_symbol():
    from qident.qcore import MissingSymbol
    p = ParamPoint({"a": 2, "q": Fraction(1, 2)}, {"n": 1})
    with pytest.raises(MissingSymbol):
        eval_sides("watson_transform", p)


def test_jackson_trivial_n0():
    p = ParamPoint({"a": 3, "b": Fraction(1, 2), "c": 5, "d": Fraction(1, 7),
                    "q": 2}, {"n": 0})
    assert eval_sides("jackson_8phi7", p) == (1, 1)


def test_jackson_n1_against_hand_summation():
    a, b, c, d, q = Fraction(3), Fraction(1, 2), Fraction(5), Fraction(1, 7), Fraction(2)
    n = 1
    e = a*a*q**(n+1) / (b*c*d)
    # brute force: the two terms of the very-well-poised sum, from raw
    # Pochhammers, with no shared code path beyond qpoch itself
    total = Fraction(0)
    for k in range(n + 1):
        t = (1 - a*q**(2*k)) / (1 - a)
        t *= qpoch_multi([a, b, c, d, e, q**(-n)], q, k) * q**k
        t /= qpoch_multi([q, a*q/b, a*q/c, a*q/d, b*c*d*q**(-n)/a,
                          a*q**(n+1)], q, k)
        total += t
    p = ParamPoint({"a": a, "b": b, "c": c, "d": d, "q": q}, {"n": n})
    lhs, rhs = eval_sides("jackson_8phi7", p)
    assert lhs == total
    assert lhs == rhs


def test_quintuple_trivial_n0():
    p = ParamPoint({"z": Fraction(4, 9), "q": Fraction(3, 2)}, {"n": 0})
    assert eval_sides("quintuple_finite", p) == (1, 1)


def test_jacobi_finite_trivial():
    p = ParamPoint({"z": Fraction(5, 3), "q": Fraction(2, 7)}, {"n": 0, "m": 0})
    assert eval_sides("jacobi_finite", p) == (1, 1)


def test_cr_prop_1_r1_collapses():
    rng = random.Random(8)
    for n in range(4):
        p = ParamPoint({"a": rand_rational(rng), "x1": rand_rational(rng),
                        "q": rand_q(rng)}, {"n": n, "r": 1})
        assert eval_sides("cr_prop_1", p) == (n + 1, n + 1)


def test_cr_prop_2_parity():
    rng = random.Random(88)
    for n in (1, 3, 5):
        p = ParamPoint({"a": rand_rational(rng), "x1": rand_rational(rng),
                        "x2": rand_rational(rng), "q": rand_q(rng)},
                       {"n": n, "r": 2})
        lhs, rhs = eval_sides("cr_prop_2", p)
        assert rhs == 0
        assert lhs == 0


def test_every_identity_verifies_smoke():
    for identity_id in identity_ids():
        report = verify(identity_id, 5, 20240817)
        assert report.status == "PASS"
        assert report.succeeded == 5
        assert report.succeeded + report.rejected <= report.attempted


def test_verify_spec_example():
    report = verify("jackson_8phi7", 20, 42, {"n": (0, 6)})
    assert report.status == "PASS"
    assert (report.attempted, report.succeeded) == (20, 20)


def test_verify_cr_prop_2_with_ranges():
    report = verify("cr_prop_2", 10, 7, {"n": (0, 5), "r": (1, 3)})
    assert report.status == "PASS"
    assert report.succeeded == 10
    # the odd-n branch really is exercised: its right side is exactly 0
    rng = random.Random(7)
    desc = get_identity("cr_prop_2")
    p = sample_point(desc, rng, {"n": (3, 3), "r": (2, 2)})
    assert desc.rhs(p) == 0


def test_verify_rejects_bad_trials():
    with pytest.raises(ValueError):
        verify("jackson_8phi7", 0, 1)


def test_mutation_detected():
    for identity_id in ("jackson_8phi7", "cr_prop_2", "quintuple_finite"):
        with pytest.raises(CounterexampleFound) as info:
            verify(identity_id, 20, 4242, mutate_rhs=True)
        report = info.value.report
        assert report.status == "FAIL"
        assert report.counterexample is not None
        # counterexample points are exact fraction strings
        for v in report.counterexample["symbols"].values():
            Fraction(v)


def test_retry_exhaustion_signals(monkeypatch):
    desc = get_identity("quintuple_finite")
    hopeless = replace(desc, guards=lambda p: [("always", Fraction(0))])
    monkeypatch.setitem(ident._REGISTRY, "quintuple_finite", hopeless)
    with pytest.raises(RetryExhausted):
        verify("quintuple_finite", 3, 7, retry_cap=5)


def test_schlosser_r1_degenerates_to_jackson():
    rng = random.Random(404)
    for n in range(4):
        a, b, c, d, x1 = (rand_rational(rng) for _ in range(5))
        q = rand_q(rng)
        ps = ParamPoint({"a": a, "b": b, "c": c, "d": d, "x1": x1, "q": q},
                        {"n": n, "r": 1})
        pj = ParamPoint({"a": a*x1*x1, "b": b*x1, "c": c*x1, "d": d*x1,
                         "q": q}, {"n": n})
        assert eval_sides("schlosser_cr", ps) == eval_sides("jackson_8phi7", pj)


def test_vwp_consistent_with_watson():
    # applying the q-Whipple transformation to each side of the
    # very-well-poised transformation yields the same value
    rng = random.Random(1001)
    for n in range(4):
        a, b, c, d, e = (rand_rational(rng) for _ in range(5))
        q = rand_q(rng)
        lam = a*a*q / (b*c*d)
        p1 = ParamPoint({"a": a, "b": b, "c": c, "d": d, "e": e, "q": q},
                        {"n": n})
        p2 = ParamPoint({"a": lam, "b": lam*b/a, "c": lam*c/a, "d": lam*d/a,
                         "e": e, "q": q}, {"n": n})
        w1_lhs, w1_rhs = eval_sides("watson_transform", p1)
        w2_lhs, w2_rhs = eval_sides("watson_transform", p2)
        assert w1_lhs == w1_rhs
        assert w2_lhs == w2_rhs
        pre = (qpoch_multi([a*q, lam*q/e], q, n)
               / qpoch_multi([a*q/e, lam*q], q, n))
        assert w1_rhs == pre * w2_rhs
        v_lhs, v_rhs = eval_sides("vwp_transform", p1)
        assert v_lhs == w1_lhs
        assert v_rhs == pre * w2_lhs


def test_quintuple_forms_agree():
    rng = random.Random(55)
    for n in range(5):
        z, q = rand_rational(rng), rand_q(rng)
        p = ParamPoint({"z": z, "q": q}, {"n": n})
        l1, r1 = eval_sides("quintuple_finite", p)
        l2, r2 = eval_sides("quintuple_ccg", p)
        assert l1 == l2 == r1 == r2 == 1


def test_singh_variant_flag():
    p = ParamPoint({"A": Fraction(3, 4), "B": Fraction(-2, 5),
                    "c": Fraction(7, 2), "q": Fraction(3, 5)}, {"n": 3})
    lhs, rhs = eval_sides("singh_quadratic", p)
    assert lhs == rhs


def test_cr_lhs_independent_of_x():
    rng = random.Random(909)
    for signed in (False, True):
        identity_id = "cr_prop_2" if signed else "cr_prop_1"
        desc = get_identity(identity_id)
        p = sample_point(desc, rng, {"n": (2, 2), "r": (3, 3)})
        first = desc.lhs(p)
        resampled = p.with_symbols(x1=rand_rational(rng),
                                   x2=rand_rational(rng),
                                   x3=rand_rational(rng))
        assert desc.lhs(resampled) == first


def test_multisum_cost_guard():
    p = ParamPoint({"a": 2, "x1": 3, "x2": 5, "x3": 7, "x4": 11, "x5": 13,
                    "q": Fraction(1, 2)}, {"n": 6, "r": 5})
    with pytest.raises(ValueError):
        eval_sides("cr_prop_1", p)


def test_guard_violation_raises_pole():
    p = ParamPoint({"a": 2, "x1": 3, "x2": 3, "q": Fraction(1, 2)},
                   {"n": 1, "r": 2})
    with pytest.raises(PoleError):
        eval_sides("cr_prop_1", p)


def test_sch_special_small_cases():
    rng = random.Random(313)
    for n in range(4):
        for _ in range(3):
            p = ParamPoint({"a": rand_rational(rng), "b": rand_rational(rng),
                            "c": rand_rational(rng), "d": rand_rational(rng),
                            "q": rand_q(rng)}, {"n": n})
            try:
                lhs, rhs = eval_sides("sch_8phi7_special", p)
            except PoleError:
                continue
            assert lhs == rhs


def test_schlosser_lemma_r0_is_trivial():
    p = ParamPoint({"a": 2, "b": 3, "c": 5, "d": 7, "q": Fraction(1, 3)},
                   {"r": 0})
    assert eval_sides("schlosser_lemma_n1", p) == (1, 1)


def test_jacobi_prefactor_guard_rejects_z_minus_1():
    # at z = -1 and k < -n both sides are exactly 0, so a right side scaled
    # by q would go unseen; the guard rejects the point instead
    point = ParamPoint({"z": -1, "q": Fraction(-478, 979)},
                       {"n": 0, "m": 3, "k": -3})
    desc = get_identity("jacobi_prefactor_relation")
    assert desc.lhs(point) == desc.rhs(point) == 0
    with pytest.raises(PoleError, match="1 \\+ z"):
        eval_sides("jacobi_prefactor_relation", point)
    lhs, rhs = eval_sides("jacobi_prefactor_relation",
                          point.with_symbols(z=Fraction(-1, 2)))
    assert lhs == rhs


@pytest.mark.parametrize("identity_id", ["cr_prop_1", "cr_prop_2"])
def test_cr_xcheck_draws_within_the_size_bound(monkeypatch, identity_id):
    seen = []
    healthy = ident._cr_lhs

    def recording(point, signed):
        seen.append(point)
        return healthy(point, signed)

    monkeypatch.setattr(ident, "_cr_lhs", recording)
    report = verify(identity_id, 10, 3, {"n": (0, 2), "r": (2, 3)},
                    size_bound=3)
    assert report.succeeded == 10
    # one left side per trial, and one more for the redrawn x-vector
    assert len(seen) >= 20
    for point in seen:
        for i in range(1, point.idx("r") + 1):
            x = point.sym("x%d" % i)
            assert abs(x.numerator) <= 3 and x.denominator <= 3, x
