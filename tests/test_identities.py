import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from qident.qcore import ParamPoint, PoleError, qbinom, qpoch, qpoch_multi
from qident import certs
from qident import identities as ident
from qident.identities import (CounterexampleFound, RetryExhausted,
                               eval_sides, get_identity, identity_ids,
                               list_identities, sample_point, verify)
import reference_loops as ref

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


@pytest.mark.parametrize("identity_id, index_ranges, index", [
    ("jackson_8phi7", {"q": (5, 1)}, "q"),          # not a sampled index
    ("jackson_8phi7", {"n": (3, 1)}, "n"),          # empty
    ("schlosser_cr", {"r": (0, 0)}, "r"),           # below r >= 1
    ("schlosser_cr", {"n": (-2, -1)}, "n"),         # below n >= 0
], ids=["unknown_index", "empty", "r_below_1", "n_below_0"])
def test_verify_refuses_a_bad_index_range(identity_id, index_ranges, index):
    with pytest.raises(ValueError) as info:
        verify(identity_id, 2, 0, index_ranges)
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith("identity %s cannot draw %s from "
                              % (identity_id, index)), message


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
    with pytest.raises(RetryExhausted) as info:
        verify("quintuple_finite", 3, 7, retry_cap=5)
    report = info.value.report
    assert (report.status, report.succeeded, report.rejected,
            report.point_rejections) == ("ERROR", 0, 3, 15)


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


def test_jacobi_prefactor_draws_k_between_minus_m_and_n():
    desc = get_identity("jacobi_prefactor_relation")
    rng = random.Random(12)
    seen = set()
    for _ in range(400):
        indices = sample_point(desc, rng, {"n": (0, 3), "m": (0, 2)}).indices
        assert list(indices) == ["n", "m", "k"]
        assert -indices["m"] <= indices["k"] <= indices["n"]
        seen.add((indices["n"], indices["m"], indices["k"]))
    # every (n, m, k) with k in [-m, n] occurs
    assert seen == {(n, m, k) for n in range(4) for m in range(3)
                    for k in range(-m, n + 1)}


def test_cr_xcheck_pole_redraws_the_point(monkeypatch):
    desc = get_identity("cr_prop_1")
    outcomes = []

    def recording(point, rng, size_bound):
        try:
            sides = desc.xcheck(point, rng, size_bound)
        except PoleError:
            outcomes.append("pole")
            raise
        outcomes.append("ran")
        return sides

    monkeypatch.setitem(ident._REGISTRY, "cr_prop_1",
                        replace(desc, xcheck=recording))
    report = verify("cr_prop_1", 50, 1, size_bound=3)
    # every passing trial ran its cross-check; each pole there was a redraw
    assert report.succeeded == outcomes.count("ran") == 50
    assert report.point_rejections == outcomes.count("pole") == 2
    assert report.rejected == 0


# ---------------------------------------------------------------------------
# the per-k loops that four one-sided sums used before they moved onto the
# hyper kernel, and the lemma's closed form before it shared the C_r
# per-axis product: the references for the kernel forms
# ---------------------------------------------------------------------------

_div, _xs, pair_product = ident._div, ident._xs, ref.pair_product


def reference_sch_special_lhs(p):
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    n = p.idx("n")
    total = Fraction(0)
    for k in range(n + 1):
        t = Fraction(-1)**k * q**(k*(k+1)//2 - k*n) * qbinom(n, k, q)
        t *= _div(1 - a*q**(2*k), qpoch(a*q**k, q, n + 1))
        t *= qpoch_multi([a*q/b, a*q/c, a*q/d, b*c*d*q**(n-2)/a], q, k)
        t = _div(t, qpoch_multi([b, c, d, a*a*q**(3-n)/(b*c*d)], q, k))
        total += t
    return total


def reference_andrews_jain_lhs(p):
    a, b, q = (p.sym(s) for s in "abq")
    n = p.idx("n")
    q2 = q*q
    total = Fraction(0)
    for k in range(n + 1):
        t = qpoch_multi([a, b], q, k) * qpoch(q**(-2*n), q2, k) * q**k
        den = qpoch(q, q, k) * qpoch(a*b*q, q2, k) * qpoch(q**(-2*n), q, k)
        total += _div(t, den)
    return total


def reference_quintuple_ccg_lhs(p):
    z, q = p.sym("z"), p.sym("q")
    n = p.idx("n")
    total = Fraction(0)
    for k in range(n + 1):
        t = (1 + z*q**k) * qbinom(n, k, q) * qpoch(z, q, n + 1)
        t = _div(t, qpoch(z*z*q**k, q, n + 1))
        total += t * z**k * q**(k*k)
    return total


def reference_schlosser_lemma_lhs(p):
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    r = p.idx("r")
    xs = _xs(p, r)
    pair_den = pair_product(a*q, q, xs, [0] * r)
    total = Fraction(0)
    for ss in itertools.product((0, 1), repeat=r):
        t = _div(pair_product(a, q, xs, ss), pair_den, "lemma pair denominator")
        for i in range(r):
            xi, si = xs[i], ss[i]
            t *= Fraction(-1) ** si
            t *= qpoch_multi([b*xi, c*xi, d*xi, a*a*xi*q**(3-r)/(b*c*d)], q, si)
            t = _div(t, qpoch_multi([a*xi*q/b, a*xi*q/c, a*xi*q/d,
                                     b*c*d*xi*q**(r-2)/a], q, si))
        total += t
    return total


def reference_schlosser_lemma_rhs(p):
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    r = p.idx("r")
    xs = _xs(p, r)
    t = Fraction(1)
    for i in range(1, r + 1):
        xi = xs[i - 1]
        t *= _div(qpoch_multi([a*xi*xi*q, a*q**(2-i)/(b*c),
                               a*q**(2-i)/(b*d), a*q**(2-i)/(c*d)], q, 1),
                  qpoch_multi([a*q**(2-r)/(b*c*d*xi), a*xi*q/b,
                               a*xi*q/c, a*xi*q/d], q, 1))
    return t


def _value_or_pole(fn, p):
    try:
        return fn(p)
    except PoleError:
        return PoleError


# (identity, side, reference)
KERNEL_FORMS = [
    ("sch_8phi7_special", "lhs", reference_sch_special_lhs),
    ("andrews_jain", "lhs", reference_andrews_jain_lhs),
    ("quintuple_ccg", "lhs", reference_quintuple_ccg_lhs),
    ("schlosser_lemma_n1", "lhs", reference_schlosser_lemma_lhs),
    ("schlosser_lemma_n1", "rhs", reference_schlosser_lemma_rhs),
    ("jacobi_finite", "lhs", ref._jacobi_finite_lhs),
    ("quintuple_finite_mn", "lhs", ref._quintuple_mn_lhs),
] + [(identity_id, side, reference) for (identity_id, side), reference
     in ref.FRACTION_SIDES.items()]

# the bilateral sums past their default ranges: m > n + 1 makes the index
# n + k + 1 negative, as k > m does m - k
BILATERAL_RANGES = {"n": (0, 7), "m": (0, 6)}


@pytest.mark.parametrize("bound", [2, 3, 1000])
@pytest.mark.parametrize("identity_id,side,reference", KERNEL_FORMS)
def test_kernel_forms_match_the_per_k_loops(identity_id, side, reference,
                                            bound):
    """Each side against its per-k loop, or against its Fraction expression
    (``ref.FRACTION_SIDES``): the same value, or a PoleError at the same
    point, with the same message where the reference is the Fraction
    expression; the derived symbols are the same Fractions."""
    desc = get_identity(identity_id)
    bilateral = "m" in desc.index_names
    exact = (identity_id, side) in ref.FRACTION_SIDES
    same = ref.outcome if exact else _value_or_pole
    derive = ref.FRACTION_DERIVES.get(identity_id, desc.derive)
    rng = random.Random(bound)
    poles = negative = 0
    for _ in range(300):
        p = sample_point(desc, rng, BILATERAL_RANGES if bilateral else {},
                         bound)
        expected_p = p if derive is None else derive(p)
        got_p = p if desc.derive is None else desc.derive(p)
        assert got_p.symbols == expected_p.symbols, p
        assert all(type(v) is Fraction for v in got_p.symbols.values())
        expected = same(reference, expected_p)
        assert same(getattr(desc, side), got_p) == expected, p
        poles += expected is PoleError or isinstance(expected, tuple)
        negative += bilateral and p.idx("m") > p.idx("n") + 1
    if bound == 2 and side == "lhs":
        assert poles > 0
    assert negative > 0 or not bilateral


BILATERAL_FORMS = [("jacobi_finite", ref._jacobi_finite_lhs),
                   ("quintuple_finite_mn", ref._quintuple_mn_lhs)]


@pytest.mark.parametrize("identity_id,reference", BILATERAL_FORMS)
def test_bilateral_sums_on_their_pole_set_match_the_per_k_loops(identity_id,
                                                                reference):
    # z = +-t^e puts every factor 1 + z q^i, 1 + q^i/z, 1 - z^2 q^i and
    # 1 - q^i/z^2 of the denominators on its zero, also where the size
    # bounded draws cannot reach it; t^2 = q, or t = -q
    desc = get_identity(identity_id)
    t = Fraction(2, 3)
    outcomes = set()
    for q in (t*t, -t):
        for n in range(5):
            for m in range(5):
                for e in range(-10, 11):
                    for z in (t**e, -t**e):
                        p = ParamPoint({"z": z, "q": q}, {"n": n, "m": m})
                        expected = _value_or_pole(reference, p)
                        assert _value_or_pole(desc.lhs, p) == expected, p
                        outcomes.add(expected is PoleError)
    assert outcomes == {True, False}


@pytest.mark.parametrize("identity_id,reference", BILATERAL_FORMS)
def test_bilateral_sums_at_q_minus_1_match_the_per_k_loops(identity_id,
                                                           reference):
    # random_q never draws q = -1, but a point may hold it: there the
    # q-binomial [m+n, j] is 0 at some j for m + n = 2, and the per-k loop
    # divides by 1 - q^2 = 0 for m + n >= 4
    desc = get_identity(identity_id)
    rng = random.Random(1)
    outcomes = set()
    for n in range(5):
        for m in range(4):
            for _ in range(12):
                z = _draw(rng, rng.choice((2, 3, 1000)), nonzero=True)
                p = ParamPoint({"z": z, "q": -1}, {"n": n, "m": m})
                expected = _value_or_pole(reference, p)
                assert _value_or_pole(desc.lhs, p) == expected, p
                outcomes.add(expected is PoleError)
    assert outcomes == {True, False}


def test_lebesgue_finite_2_matches_the_per_k_loop():
    desc = get_identity("lebesgue_finite_2")
    rng = random.Random(7)
    for _ in range(100):
        p = desc.derive(sample_point(desc, rng, {}, 3))
        assert (_value_or_pole(desc.lhs, p)
                == _value_or_pole(reference_andrews_jain_lhs, p)), p


@pytest.mark.parametrize("identity_id", [
    "jackson_8phi7", "jackson_6phi5", "watson_transform", "vwp_transform",
    "bailey_10phi9"])
def test_very_well_poised_anchor_1_is_a_pole(identity_id):
    # no guard names a = 1: the well-poised factor (1 - a q^{2k})/(1 - a)
    # raises there, and a trial counts that as one rejection
    rng = random.Random(11)
    desc = get_identity(identity_id)
    p = sample_point(desc, rng, {"n": (2, 2)}).with_symbols(a=1)
    with pytest.raises(PoleError, match="anchor"):
        eval_sides(identity_id, p)


# ---------------------------------------------------------------------------
# the int-pair loops against the per-operation Fraction loops they replaced
# ---------------------------------------------------------------------------

def _draw(rng, bound, nonzero=False):
    """A rational of size at most bound, or one of 0 (unless nonzero), 1
    and -1."""
    if rng.random() < 0.2:
        return Fraction(rng.choice((1, -1) if nonzero else (0, 1, -1)))
    return rand_rational(rng, bound)


@pytest.mark.parametrize("bound", [2, 3, 1000])
def test_well_poised_matches_the_fraction_loop(bound):
    # the pair form on int pairs each of whose den divides the next: the
    # terms of the Fraction loop, its pole, and each den yielded divides the
    # next
    rng = random.Random(bound)
    poles = 0
    for _ in range(400):
        a, q = _draw(rng, bound), _draw(rng, bound)
        pairs, den = [], 1
        for _ in range(rng.randint(0, 7)):
            den *= _draw(rng, bound, nonzero=True).numerator
            pairs.append((_draw(rng, bound).numerator, den))
        expected = ref.drain(ref._well_poised(
            a, q, (Fraction(num, den) for num, den in pairs)))
        got, error = ref.drain(ident._well_poised(a, q, iter(pairs)))
        assert ([Fraction(num, den) for num, den in got], error) == expected
        assert all(d % c == 0 for (_, c), (_, d) in zip(got, got[1:]))
        poles += error is not None
    assert poles > 0                        # the anchor a = 1


@pytest.mark.parametrize("bound", [2, 3, 1000])
def test_pair_product_matches_the_fraction_loop(bound):
    """The pair product's two readers: the no-shift normalizer of the C_r
    sums and the lemma, a one-entry pair table, and the certificate's ratio
    at shifts in {0, 1}^r over it, which raises PoleError where the
    normalizer vanishes."""
    rng = random.Random(bound)
    zeros = 0
    for _ in range(400):
        r = rng.randint(0, 4)
        a, q = _draw(rng, bound), _draw(rng, bound, nonzero=True)
        xs = [_draw(rng, bound) for _ in range(r)]
        shifts = [rng.randint(0, 1) for _ in range(r)]
        expected = ref.pair_product(a, q, xs, [0] * r)
        [(ks, num)], den = ident._pair_table(a, q, xs, 0)
        assert (ks, Fraction(num, den)) == ((0,) * r, expected)
        ratio = ref.outcome(lambda: ident._div(
            ref.pair_product(a, q, xs, shifts), expected))
        assert ref.outcome(certs._pair_ratio, a, q, xs, shifts) == ratio
        zeros += expected == 0
    assert zeros > 0


@pytest.mark.parametrize("bound", [2, 3, 1000])
def test_pair_table_matches_the_fraction_loop(bound):
    rng = random.Random(bound)
    for _ in range(60):
        r, n = rng.randint(0, 4), rng.randint(0, 3)
        a, q = _draw(rng, bound), _draw(rng, bound, nonzero=True)
        xs = [_draw(rng, bound) for _ in range(r)]
        table, den = ident._pair_table(a, q, xs, n)
        assert ([ks for ks, _ in table]
                == list(itertools.product(range(n + 1), repeat=r)))
        for ks, num in table:
            assert Fraction(num, den) == ref.pair_product(a, q, xs, ks)


@pytest.mark.parametrize("bound", [2, 3, 1000])
@pytest.mark.parametrize("identity_id", ["cr_prop_1", "cr_prop_2"])
def test_cr_lhs_matches_the_fraction_loop(identity_id, bound):
    signed = identity_id == "cr_prop_2"
    desc = get_identity(identity_id)
    rng = random.Random(bound)
    poles = 0
    for _ in range(80):
        p = sample_point(desc, rng, {"n": (0, 3), "r": (1, 4)}, bound)
        expected = ref.outcome(ref._cr_lhs, p, signed)
        assert ref.outcome(ident._cr_lhs, p, signed) == expected, p
        poles += isinstance(expected, tuple)
    if bound == 2:
        assert poles > 0


# the x-vectors drawn at size 2 where three values are left: the same as
# before the draw was bounded
SIZE_2_X_VECTORS = {1: ["-2", "-1", "2"], 4: ["2", "-1", "-2"],
                    5: ["2", "-1", "-1/2"]}


@pytest.mark.parametrize("seed", range(1, 7))
def test_certificate_x_vector_that_cannot_fit_is_refused(seed):
    # at size 2 only six values exist, and a, b, c, d and q take up to five
    # of them: where fewer than three are left the draw raises instead of
    # looping
    cert = certs.get_certificate("schlosser")
    start = time.monotonic()
    try:
        point = certs.sample_certificate_point(cert, random.Random(seed), 2,
                                               (3, 3))
    except ValueError as exc:
        assert seed not in SIZE_2_X_VECTORS
        assert str(exc).startswith("cannot draw r=3 distinct x values of "
                                   "size at most 2 (admissible values: ")
    else:
        xs = [str(x) for x in _xs(point, 3)]
        assert xs == SIZE_2_X_VECTORS[seed]
    assert time.monotonic() - start < 1
