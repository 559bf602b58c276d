import collections
import itertools
import random
from fractions import Fraction

import pytest

from qident.qcore import ParamPoint, PoleError, qpoch, qpoch_multi
from qident.hyper import contiguous_alpha, contiguous_beta
from qident import certs, cli
from qident import identities as ident
from qident.certs import (bailey_alpha, boundary_check, certificate_ids,
                          get_certificate, inductive_replay, jackson_gamma,
                          list_certificates, sample_certificate_point,
                          schlosser_coeff_residual, schlosser_split_residual,
                          singh_first_order_residual, telescoping_residual,
                          term_recurrence_residual, watson_beta)
from qident.identities import random_q, random_rational
import reference_loops as ref

SINGLE_CERTS = ("jackson", "watson", "bailey", "singh", "lebesgue", "quintuple")
TELESCOPING_CERTS = ("watson", "bailey", "singh")


def square_point(rng, cert_id):
    """Random point for a certificate, with a = s^2 so that the square-root
    parameter pairing of the classical printing is exactly representable."""
    cert = get_certificate(cert_id)
    s = random_rational(rng)
    symbols = {name: random_rational(rng) for name in cert.symbols}
    symbols["q"] = random_q(rng)
    symbols["a"] = s * s
    return ParamPoint(symbols, {}), s


def test_registry():
    assert len(list_certificates()) == 7
    assert certificate_ids() == ("jackson", "watson", "bailey", "singh",
                                 "lebesgue", "quintuple", "schlosser")
    with pytest.raises(KeyError):
        get_certificate("gauss")


def test_replace_keeps_every_other_certificate_field():
    for cert in list_certificates():
        planted = cert._replace(steps=cert.steps[::-1])
        assert type(planted) is type(cert)
        assert planted.steps == cert.steps[::-1]
        for name in cert._fields:
            if name != "steps":
                assert getattr(planted, name) is getattr(cert, name), name
        assert (planted.symbols, planted.multi, planted.order) == \
            (cert.symbols, cert.multi, cert.order)


def test_out_of_range_k_is_trivially_zero():
    rng = random.Random(3)
    for cert_id in SINGLE_CERTS:
        cert = get_certificate(cert_id)
        point = sample_certificate_point(cert, rng)
        n = max(2, cert.order)
        for k in (-2, -1, n + max(dk for *_, dk in cert.steps) + 1):
            assert term_recurrence_residual(cert, point, n, k) == 0


def test_term_recurrences_vanish():
    rng = random.Random(71)
    for cert_id in SINGLE_CERTS:
        cert = get_certificate(cert_id)
        for _ in range(3):
            point = sample_certificate_point(cert, rng)
            for n in range(cert.order, 5):
                for k in range(n + 1):
                    assert term_recurrence_residual(cert, point, n, k) == 0, \
                        (cert_id, n, k)


def test_term_recurrence_rejects_small_n():
    rng = random.Random(4)
    point = sample_certificate_point("jackson", rng)
    with pytest.raises(ValueError):
        term_recurrence_residual("jackson", point, 0, 0)
    point = sample_certificate_point("singh", rng)
    with pytest.raises(ValueError):
        term_recurrence_residual("singh", point, 1, 0)


def test_singh_first_order_relation():
    rng = random.Random(5)
    point = sample_certificate_point("singh", rng)
    for n in range(1, 5):
        for k in range(-1, n + 2):
            assert singh_first_order_residual(point, n, k) == 0


def test_singh_first_order_relation_builds_each_row_once(monkeypatch):
    # the half-shifted point (Aq, Bq, cq) is kept on its point, as every
    # shift is: over the loop above, levels 0..4 at the point and 0..3 at
    # the half shift are each built once
    builds = _count_builds(monkeypatch)
    point = sample_certificate_point("singh", random.Random(5))
    for n in range(1, 5):
        for k in range(-1, n + 2):
            assert singh_first_order_residual(point, n, k) == 0
    assert set(builds) == {"singh_lhs_row"}
    assert len(builds["singh_lhs_row"]) == 5 + 4
    assert set(builds["singh_lhs_row"].values()) == {1}


def test_singh_first_order_relation_refuses_n_0():
    # the relation runs as a term recurrence of order 1, which refuses n = 0
    point = sample_certificate_point("singh", random.Random(5))
    with pytest.raises(ValueError, match=r"^term recurrence needs n >= 1$"):
        singh_first_order_residual(point, 0, 0)


def test_telescoping_and_boundary():
    rng = random.Random(72)
    for cert_id in TELESCOPING_CERTS:
        cert = get_certificate(cert_id)
        for _ in range(3):
            point = sample_certificate_point(cert, rng)
            for n in range(cert.order, 5):
                for k in range(n + 1):
                    assert telescoping_residual(cert, point, n, k) == 0, \
                        (cert_id, n, k)
                assert boundary_check(cert, point, n)


def test_telescoping_requires_anti_difference():
    rng = random.Random(6)
    point = sample_certificate_point("jackson", rng)
    with pytest.raises(ValueError):
        telescoping_residual("jackson", point, 2, 1)
    with pytest.raises(ValueError):
        boundary_check("lebesgue", point, 2)


def test_residual_generators_refuse_at_the_call():
    # nothing here iterates a generator: the refusal comes from the call
    rng = random.Random(6)
    point = sample_certificate_point("jackson", rng)
    with pytest.raises(ValueError,
                       match="^certificate jackson has no anti-difference$"):
        certs.telescoping_residuals("jackson", point, 2)
    with pytest.raises(ValueError, match="^term recurrence needs n >= 1$"):
        certs.term_recurrence_residuals("jackson", point, 0)
    point = sample_certificate_point("singh", rng)
    with pytest.raises(ValueError, match="^telescoping needs n >= 2$"):
        certs.telescoping_residuals("singh", point, 1)
    with pytest.raises(ValueError, match="^term recurrence needs n >= 2$"):
        certs.term_recurrence_residuals("singh", point, 1)


def test_spec_example_points():
    # fixed point from the summation example family
    p = ParamPoint({"a": 3, "b": Fraction(1, 2), "c": 5, "d": Fraction(1, 7),
                    "q": 2}, {})
    assert term_recurrence_residual("jackson", p, 3, 2) == 0
    rng = random.Random(9)
    w = sample_certificate_point("watson", rng)
    assert telescoping_residual("watson", w, 2, 1) == 0
    b = sample_certificate_point("bailey", rng)
    assert telescoping_residual("bailey", b, 3, 0) == 0
    s = sample_certificate_point("singh", rng)
    assert term_recurrence_residual("singh", s, 4, 3) == 0
    assert telescoping_residual("singh", s, 4, 2) == 0
    assert boundary_check("singh", s, 4)


def test_inductive_replay_all_single():
    rng = random.Random(73)
    for cert_id in SINGLE_CERTS:
        cert = get_certificate(cert_id)
        for _ in range(2):
            point = sample_certificate_point(cert, rng)
            assert inductive_replay(cert, point, 5), cert_id


def test_quintuple_replay_depth_6_constant_rhs():
    rng = random.Random(64)
    cert = get_certificate("quintuple")
    point = sample_certificate_point(cert, rng)
    # the closed form is 1 at every level and every shifted point
    for n in range(7):
        assert cert.rhs_value(point, n) == 1
    assert inductive_replay(cert, point, 6)


def test_inductive_replay_schlosser():
    rng = random.Random(74)
    for r in (1, 2, 3):
        point = sample_certificate_point("schlosser", rng, r_range=(r, r))
        assert inductive_replay("schlosser", point, 3)


def test_schlosser_replay_refuses_n_above_its_cap():
    point = sample_certificate_point("schlosser", random.Random(74),
                                     r_range=(1, 1))
    with pytest.raises(ValueError, match="^replay cost guard: n <= 3$"):
        inductive_replay("schlosser", point, ident.MULTISUM_MAX_N + 1)


def test_replay_rejects_corrupt_closed_form(monkeypatch):
    rng = random.Random(75)
    cert = get_certificate("jackson")
    point = sample_certificate_point(cert, rng)
    assert inductive_replay(cert, point, 4)
    # the certificate reads its closed form from the registry
    desc = ident.get_identity(cert.identity)
    monkeypatch.setitem(ident._REGISTRY, cert.identity, desc._replace(
        rhs=lambda p: desc.rhs(p) * (p.sym("q") if p.idx("n") else 1)))
    assert not inductive_replay(cert, point, 4)


def test_schlosser_term_recurrence_vectors():
    rng = random.Random(76)
    for r in (1, 2, 3):
        point = sample_certificate_point("schlosser", rng, r_range=(r, r))
        for n in (1, 2, 3):
            for ks in itertools.product(range(n + 1), repeat=r):
                assert term_recurrence_residual("schlosser", point, n, ks) == 0
    # scalar k accepted when r = 1
    point = sample_certificate_point("schlosser", rng, r_range=(1, 1))
    assert term_recurrence_residual("schlosser", point, 2, 1) == 0


def test_schlosser_split_residual():
    rng = random.Random(77)
    for r in (1, 2, 3):
        point = sample_certificate_point("schlosser", rng, r_range=(r, r))
        for n in (0, 1, 2):
            for i in range(1, r + 1):
                for k_i in range(n + 2):   # includes the k_i = n + 1 edge
                    assert schlosser_split_residual(point, n, i, k_i) == 0


def test_cr_replay_tests_the_public_residuals(monkeypatch):
    # at r = 2 and levels 1..3 the replay tests 2 (2 + 3 + 4) split residuals
    # and 3 * 2^2 coefficient residuals, each through its public function
    calls = collections.Counter()
    for name in ("schlosser_split_residual", "schlosser_coeff_residual"):
        def counting(*args, residual=getattr(certs, name), name=name):
            calls[name] += 1
            return residual(*args)
        monkeypatch.setattr(certs, name, counting)
    point = sample_certificate_point("schlosser", random.Random(79),
                                     r_range=(2, 2))
    assert inductive_replay("schlosser", point, 3)
    assert calls == {"schlosser_split_residual": 18,
                     "schlosser_coeff_residual": 12}


def test_schlosser_coeff_residual():
    rng = random.Random(78)
    for r in (1, 2, 3):
        point = sample_certificate_point("schlosser", rng, r_range=(r, r))
        for n in (0, 1, 2):
            for ss in itertools.product((0, 1), repeat=r):
                assert schlosser_coeff_residual(point, n, ss) == 0
    with pytest.raises(ValueError):
        schlosser_coeff_residual(point, 1, (0, 2, 0))


def test_jackson_coefficient_matches_generic_alpha():
    rng = random.Random(80)
    for n in (1, 2, 4):
        point, s = square_point(rng, "jackson")
        a, b, c, d, q = (point.sym(x) for x in "abcdq")
        a_list = [a, q*s, -q*s, b, c, d, a*a*q**n/(b*c*d), q**(-n)]
        assert contiguous_alpha(a_list, q, q) == jackson_gamma(point, n)


def test_bailey_coefficient_matches_generic_alpha():
    rng = random.Random(81)
    for n in (1, 3):
        point, s = square_point(rng, "bailey")
        a, b, c, d, e, f, q = (point.sym(x) for x in "abcdefq")
        lam = a*a*q / (b*c*d)
        a_list = [a, q*s, -q*s, b, c, d, e, f, lam*a*q**n/(e*f), q**(-n)]
        assert contiguous_alpha(a_list, q, q) == bailey_alpha(point, n)


def test_watson_coefficient_matches_generic_beta():
    rng = random.Random(82)
    for n in (1, 2, 4):
        point, s = square_point(rng, "watson")
        a, b, c, d, e, q = (point.sym(x) for x in "abcdeq")
        z = a*a*q**(n+1) / (b*c*d*e)
        a_list = [a, q*s, -q*s, b, c, d, e, q**(-n)]
        assert contiguous_beta(a_list, q, z) == watson_beta(point, n)


def test_sample_point_shapes():
    rng = random.Random(83)
    p = sample_certificate_point("schlosser", rng, r_range=(2, 2))
    assert p.idx("r") == 2
    assert p.sym("x1") != p.sym("x2")
    p = sample_certificate_point("singh", rng)
    for name in ("A", "B", "c", "q"):
        p.sym(name)


STEP_CASES = [(cert_id, i) for cert_id in SINGLE_CERTS
              for i in range(len(get_certificate(cert_id).steps))]


@pytest.mark.parametrize("cert_id,step", STEP_CASES)
def test_checks_and_replay_read_the_same_steps(cert_id, step):
    cert = get_certificate(cert_id)
    coeff, dn, s, dk = cert.steps[step]
    scaled = (lambda p, n: coeff(p, n) * Fraction(102, 101), dn, s, dk)
    faulty = cert._replace(steps=cert.steps[:step] + (scaled,)
                           + cert.steps[step + 1:])
    point = sample_certificate_point(cert, random.Random(90))
    sweep = [(n, k) for n in range(cert.order, 5) for k in range(n + 1)]
    assert all(term_recurrence_residual(cert, point, n, k) == 0
               for n, k in sweep)
    assert inductive_replay(cert, point, 4)
    assert any(term_recurrence_residual(faulty, point, n, k) != 0
               for n, k in sweep)
    assert not inductive_replay(faulty, point, 4)


REPLAY_STEP_CASES = [
    (cert_id, step) for cert_id, step in STEP_CASES
    if get_certificate(cert_id).steps[step][0] is not certs._one]


@pytest.mark.parametrize("cert_id,step", REPLAY_STEP_CASES)
def test_a_step_wrong_only_away_from_the_point_fails_the_replay(cert_id, step):
    # the sweeps read every coefficient at the sampled point itself; only the
    # replay's propagation reads them at the shifted points j >= 1
    cert = get_certificate(cert_id)
    coeff, dn, s, dk = cert.steps[step]
    point = sample_certificate_point(cert, random.Random(90))

    def shifted_only(p, n):
        c = coeff(p, n)
        return c if p.symbols == point.symbols else c * Fraction(102, 101)
    faulty = cert._replace(steps=cert.steps[:step]
                           + ((shifted_only, dn, s, dk),)
                           + cert.steps[step + 1:])
    ranges = certs.check_ranges(cert, 4, 1)
    healthy_counts, failure = certs.check_point(cert, point, ranges)
    assert failure is None and healthy_counts["replay"] == 1
    counts, failure = certs.check_point(faulty, point, ranges)
    assert failure == {"check": "inductive_replay",
                       "point": ident.serialize_point(point)}
    assert counts == dict(healthy_counts, replay=0)


@pytest.mark.parametrize("bound", [2, 3, 1000])
def test_cr_replay_residuals_match_the_fraction_forms(bound):
    """The C_r split residual, split coefficient, alpha_s and coefficient
    residual on the point's int pairs against their Fraction forms: the same
    value, or the same PoleError with the same message."""
    rng = random.Random(400 + bound)
    cases = poles = leaks = 0
    for r in (1, 2, 3):
        for _ in range(8):
            symbols = ident._sample_symbols(rng, "abcd", {"r": r}, bound)
            for n in range(3):
                p = ParamPoint(symbols, {"r": r})
                for i in range(1, r + 1):
                    for k_i in range(n + 2):
                        expected = ref.outcome(ref.schlosser_split_residual,
                                               p, n, i, k_i)
                        assert ref.outcome(schlosser_split_residual, p, n, i,
                                           k_i) == expected, (p, n, i, k_i)
                        cases += 1
                for ss in itertools.product((0, 1), repeat=r):
                    for mine, theirs in (
                            (certs.schlosser_split_coeff,
                             ref.schlosser_split_coeff),
                            (lambda *a: certs._div(
                                certs._schlosser_alpha_s(*a), 1),
                             ref.schlosser_alpha_s),
                            (schlosser_coeff_residual,
                             ref.schlosser_coeff_residual)):
                        expected = ref.outcome(theirs, p, n, ss)
                        if expected == (ZeroDivisionError, "Fraction(1, 0)"):
                            # the Fraction form's (1 - a x_i^2 q^{n+2})^{-1}
                            # leaked the error; the int form has the factor
                            # in the denominator it checks
                            expected = PoleError, "denominator vanished"
                            leaks += 1
                        assert ref.outcome(mine, p, n, ss) == expected, \
                            (p, n, ss)
                        poles += isinstance(expected, tuple)
                        cases += 1
    assert cases > 500
    if bound <= 3:
        assert poles > 0
    if bound == 2:
        assert leaks > 0


# ---------------------------------------------------------------------------
# the anti-differences as printed, Pochhammer products evaluated per k: the
# reference for the kernel rows behind cert.anti_diff
# ---------------------------------------------------------------------------

def _div(num, den):
    if den == 0:
        raise PoleError("denominator vanished")
    return num / den


def watson_anti_diff(p, n, k):
    if k < 0:
        return Fraction(0)
    a, b, c, d, e, q = (p.sym(s) for s in "abcdeq")
    pre = _div(qpoch(a*q, q, n - 1) * qpoch(a*q/(d*e), q, n),
               qpoch_multi([a*q/d, a*q/e], q, n))
    num = (qpoch_multi([a*q/(b*c), q**(1-n)], q, k)
           * qpoch_multi([d, e], q, k + 1))
    den = (qpoch_multi([q, a*q/b, a*q/c], q, k)
           * qpoch(d*e*q**(-n)/a, q, k + 1))
    return pre * _div(num, den)


def bailey_anti_diff(p, n, k):
    if k < 0:
        return Fraction(0)
    a, b, c, d, e, f, q = (p.sym(s) for s in "abcdefq")
    lam = a*a*q / (b*c*d)
    g = lam*a*q**(n+1) / (e*f)
    pre = _div(
        (1 - a*lam*q**(2*n)/(e*f))
        * qpoch_multi([a*q, lam*q/e, lam*q/f], q, n - 1)
        * qpoch(a*q/(e*f), q, n),
        qpoch_multi([a*q/e, a*q/f, lam*q/(e*f), lam], q, n))
    num = ((1 - lam*q**k/a)
           * qpoch_multi([lam*b/a, lam*c/a, lam*d/a, g, q**(1-n)], q, k)
           * qpoch_multi([lam, e, f], q, k + 1))
    den = (qpoch_multi([q, a*q/b, a*q/c, a*q/d, lam*q/e, lam*q/f], q, k)
           * qpoch_multi([e*f*q**(-n)/a, lam*q**n], q, k + 1))
    return pre * _div(num, den)


def singh_anti_diff(p, n, k):
    # at k = 0 the printed denominator carries (q^2;q^2)_{-1}, a vanishing
    # reciprocal, so the value is 0 there just as for k < 0
    if k < 1:
        return Fraction(0)
    A, B, c, q = (p.sym(s) for s in "ABcq")
    q2 = q*q
    num = (-(1 - q**(2*k-1)) * qpoch_multi([A, B], q2, k)
           * qpoch(q**(4-2*n), q2, k - 1) * qpoch(c*c, q2, k + 1)
           * q**(2 - 2*n))
    den = (qpoch(q2, q2, k - 1) * qpoch(A*B*q, q2, k)
           * qpoch(-c*q**(-n), q, 2*k + 2))
    return _div(num, den)


ANTI_DIFF_REFERENCES = {"watson": watson_anti_diff, "bailey": bailey_anti_diff,
                        "singh": singh_anti_diff}


def _value_or_pole(fn, *args):
    try:
        return fn(*args)
    except PoleError:
        return PoleError


@pytest.mark.parametrize("bound", [2, 3, 5, 1000])
@pytest.mark.parametrize("cert_id", TELESCOPING_CERTS)
def test_anti_diff_rows_match_products(cert_id, bound):
    cert = get_certificate(cert_id)
    reference = ANTI_DIFF_REFERENCES[cert_id]
    rng = random.Random(bound)
    cases = poles = 0
    for _ in range(40):
        point = sample_certificate_point(cert, rng, bound)
        for n in range(cert.order, 7):
            row = cert.anti_diff(point, n)
            for k in range(-1, n + 1):
                expected = _value_or_pole(reference, point, n, k)
                assert _value_or_pole(row.term, k) == expected, \
                    (point, n, k)
                cases += 1
                poles += expected is PoleError
    assert cases > 900
    if bound <= 3:
        assert poles > 0


def _row_outcome(build, point):
    """The row's terms, pole message and total, or the error raised before
    the row existed."""
    row = ref.outcome(build, point)
    if isinstance(row, tuple):
        return row
    return (row.n, [Fraction(*pair) for pair in row.pairs], row.pole,
            ref.outcome(row.total))


@pytest.mark.parametrize("bound", [2, 3, 1000])
@pytest.mark.parametrize("cert_id", sorted(ref.FRACTION_COEFFICIENTS))
def test_coefficients_and_anti_diffs_match_the_fraction_expressions(cert_id,
                                                                    bound):
    """The step coefficient and the anti-difference row built from the
    point's ints against their Fraction expressions: the same value, or the
    same PoleError with the same message."""
    cert = get_certificate(cert_id)
    coefficient = getattr(certs, COSTLY_COEFFICIENTS[cert_id])
    anti_diff = ref.FRACTION_ANTI_DIFFS.get(cert_id)
    rng = random.Random(200 + bound)
    poles = 0
    for _ in range(60):
        point = sample_certificate_point(cert, rng, bound)
        for n in range(7):
            expected = ref.outcome(ref.FRACTION_COEFFICIENTS[cert_id], point, n)
            assert ref.outcome(coefficient, point, n) == expected, (point, n)
            poles += isinstance(expected, tuple)
            if anti_diff is None or n < 1:
                continue
            ip = certs._identity_point(cert.identity, point, n)
            expected = _row_outcome(anti_diff, ip)
            build = getattr(certs, anti_diff.__name__)
            assert _row_outcome(build, ip) == expected, (point, n)
            poles += isinstance(expected, tuple) or bool(expected[2])
    if bound == 2:
        assert poles > 0


@pytest.mark.parametrize("bound", [2, 3, 1000])
@pytest.mark.parametrize("cert_id", certificate_ids())
def test_level_residuals_match_per_k(cert_id, bound):
    """Each level's residuals equal the one-k checks up to the first pole,
    and a one-k check at that k raises too."""
    cert = get_certificate(cert_id)
    rng = random.Random(100 + bound)
    checks = [(term_recurrence_residual, certs.term_recurrence_residuals)]
    if cert.anti_diff is not None:
        checks.append((telescoping_residual, certs.telescoping_residuals))
    read = poles = 0
    for _ in range(6):
        point = sample_certificate_point(cert, rng, bound, (1, 2))
        for n in range(cert.order, (3 if cert.multi else 5) + 1):
            for one_k, level in checks:
                ks = (list(itertools.product(range(n + 1),
                                             repeat=point.idx("r")))
                      if cert.multi else list(range(n + 1)))
                yielded = []
                try:
                    for k, residual in level(cert, point, n):
                        yielded.append((k, residual))
                except PoleError:
                    poles += 1
                    with pytest.raises(PoleError):
                        one_k(cert, point, n, ks[len(yielded)])
                assert [k for k, _ in yielded] == ks[:len(yielded)]
                for k, residual in yielded:
                    assert residual == one_k(cert, point, n, k) == 0
                    read += 1
                if len(yielded) == len(ks) and cert.anti_diff is not None \
                        and one_k is telescoping_residual:
                    assert boundary_check(cert, point, n)
    assert read > 0
    if bound == 2:
        assert poles > 0


@pytest.mark.parametrize("n_max", [2, 5, 6, 9])
@pytest.mark.parametrize("cert_id", certificate_ids())
def test_check_ranges_and_counts(cert_id, n_max):
    cert = get_certificate(cert_id)
    ranges = certs.check_ranges(cert, n_max, 1)
    if cert.multi:
        n = min(n_max, ident.MULTISUM_MAX_N)
        assert ranges == (n, n, (1, 1))
    else:
        assert ranges == (n_max, min(n_max, certs.REPLAY_N_MAX), None)
    rng = random.Random(n_max)
    while True:
        point = sample_certificate_point(cert, rng, r_range=ranges.r)
        try:
            counts, failure = certs.check_point(cert, point, ranges)
        except PoleError:
            continue
        break
    assert failure is None
    r = point.idx("r") if cert.multi else 1
    sweep = sum((n + 1) ** r for n in range(cert.order, ranges.sweep_n + 1))
    telescoped = cert.anti_diff is not None
    assert counts == {
        "term_recurrence": sweep, "telescoping": sweep if telescoped else 0,
        "boundary": ranges.sweep_n - cert.order + 1 if telescoped else 0,
        "replay": 1}


ROWS = ("jackson_row", "watson_row", "watson_rhs_row", "bailey_row",
        "bailey_rhs_row", "singh_lhs_row", "singh_rhs_row", "lebesgue_row",
        "quintuple_row", "schlosser_row")
COSTLY_COEFFICIENTS = {"jackson": "jackson_gamma", "watson": "watson_beta",
                       "bailey": "bailey_alpha", "singh": "singh_gamma"}


def _counting(build, name, builds):
    def counting(point, *args):
        key = (tuple(sorted(point.symbols.items())),
               tuple(sorted(point.indices.items())), args)
        builds[name][key] += 1
        return build(point, *args)
    return counting


def _count_builds(monkeypatch):
    """Per name, the number of builds at each (point, n) key of every summand
    row, wrapped where the readers look it up, and of each costly step
    coefficient, wrapped in the steps of its certificate."""
    builds = collections.defaultdict(collections.Counter)
    for name in ROWS:
        monkeypatch.setattr(ident, name,
                            _counting(getattr(ident, name), name, builds))
    for cert in list_certificates():
        steps = tuple((_counting(c, c.__name__, builds)
                       if c.__name__ == COSTLY_COEFFICIENTS.get(cert.id)
                       else c, dn, s, dk)
                      for c, dn, s, dk in cert.steps)
        monkeypatch.setitem(certs._CERTS, cert.id, cert._replace(steps=steps))
    return builds


@pytest.mark.parametrize("cert_id", certificate_ids())
def test_one_point_builds_each_row_once(monkeypatch, cert_id):
    builds = _count_builds(monkeypatch)
    cert = get_certificate(cert_id)
    rng = random.Random(12)
    ranges = certs.check_ranges(cert, 6, 1)
    while True:
        point = sample_certificate_point(cert, rng, r_range=(1, 1))
        builds.clear()
        try:
            counts, failure = certs.check_point(cert, point, ranges)
        except PoleError:
            continue
        break
    assert failure is None and counts["replay"] == 1
    # at n <= 6 the checks read each row at 23 (point, n) keys: the sweeps
    # read levels 1..6 at the point and 0..5 at its first shift, the replay
    # levels 0..5-j at its j-th shift (singh: 0..4 at the first shift, and
    # the base levels 0 and 1 at every shift).  The C_r proof runs to n = 3,
    # 4 levels at the point and 3 at its shift.
    rows = [name for name in ROWS if builds[name]]
    assert rows
    for name in rows:
        assert len(builds[name]) == (7 if cert.multi else 23), name
        assert set(builds[name].values()) == {1}, name
    # the costly step coefficients are read by the sweep and again by the
    # replay, and evaluated once per (point, n), like the rows
    coefficient = COSTLY_COEFFICIENTS.get(cert_id)
    if coefficient is not None:
        assert set(builds[coefficient].values()) == {1}, coefficient


# builds of each summand row and evaluations of each costly step coefficient
# in one certify run.  The anti-difference rows are not kept on the point:
# the telescoping check reads each (point, n) once.  The boundary sum is
# taken in the telescoping pass, so it reads no row or coefficient.
CERTIFY_RUN_BUILDS = {
    "bailey_alpha": 48, "bailey_row": 69, "bailey_rhs_row": 69,
    "jackson_gamma": 48, "jackson_row": 69,
    "lebesgue_row": 69, "quintuple_row": 69,
    "schlosser_row": 21,
    "singh_gamma": 33, "singh_lhs_row": 69, "singh_rhs_row": 69,
    "watson_beta": 48, "watson_row": 69, "watson_rhs_row": 69}


def test_row_builds_of_a_certify_run(monkeypatch):
    # certify --proof all --n-max 6 --r-max 1 --trials 3 --seed 7
    builds = _count_builds(monkeypatch)
    status, _ = cli.run(cli.RunConfig(
        command="certify", proof_ids=certificate_ids(), cert_trials=3,
        seed=7, n_max=6, r_max=1))
    assert status == 0
    assert {name: sum(keys.values()) for name, keys in builds.items()
            } == CERTIFY_RUN_BUILDS


def test_split_coefficients_are_evaluated_once_per_point_n_and_s(monkeypatch):
    # certify --proof schlosser --r-max 4 --n-max 3 --trials 3 --seed 3 draws
    # r = 4, 4 and 3; the sweep and the replay both read the 2^r coefficients
    # of each lower level 0..2, and every point has one pair-ratio table
    calls = collections.Counter()
    for name in ("schlosser_split_coeff", "_pair_ratios"):
        def counting(*args, healthy=getattr(certs, name), name=name):
            calls[name] += 1
            return healthy(*args)
        monkeypatch.setattr(certs, name, counting)
    status, report = cli.run(cli.RunConfig(
        command="certify", proof_ids=("schlosser",), cert_trials=3, seed=3,
        n_max=3, r_max=4))
    assert status == 0 and report["items"][0]["point_rejections"] == 0
    assert calls == {"schlosser_split_coeff": 3 * (16 + 16 + 8),
                     "_pair_ratios": 3}


def test_level_yields_each_k_before_a_later_pole():
    # a = q^{-3}: at n = 2 the shifted row (a q^2, level 1) has the prefactor
    # 1/(a q^2;q)_2 = 1/((1 - q^{-1})(1 - 1)), a pole first read at k = 1
    q = Fraction(2, 3)
    point = ParamPoint({"a": q**-3, "q": q}, {})
    cert = get_certificate("lebesgue")
    keep, dn, s, dk = cert.steps[0]
    faulty = cert._replace(steps=((lambda p, n: keep(p, n) * Fraction(102, 101),
                                  dn, s, dk),) + cert.steps[1:])
    for c, healthy in ((cert, True), (faulty, False)):
        level = certs.term_recurrence_residuals(c, point, 2)
        k, residual = next(level)
        assert k == 0 and (residual == 0) == healthy
        with pytest.raises(PoleError):
            next(level)


# ---------------------------------------------------------------------------
# the C_r summand as two loops evaluated it before they became one row: the
# reference for identities.schlosser_row
# ---------------------------------------------------------------------------

def reference_axis_rows(p):
    """Per-axis summand rows of schlosser_cr: row i holds, for k_i = 0..n,
    the factors of the summand that depend on x_i and k_i alone, as the
    terms ``ref.drain`` collected and the error that ended them, if any."""
    a, b, c, d, q = (p.sym(s) for s in "abcdq")
    n, r = p.idx("n"), p.idx("r")
    rows = []
    for xi in ident._xs(p, r):
        nums = [a*xi*xi, b*xi, c*xi, d*xi, a*a*xi*q**(n-r+2)/(b*c*d), q**(-n)]
        dens = [q, a*xi*q/b, a*xi*q/c, a*xi*q/d,
                b*c*d*xi*q**(r-n-1)/a, a*xi*xi*q**(n+1)]
        rows.append(ref.drain(ref._well_poised(
            a*xi*xi, q, ref.poch_ratio_terms(nums, dens, q, q, n + 1))))
    return tuple(rows)


def reference_axis_term(row, n, k):
    """Entry k of a reference axis row: 0 outside [0, n], PoleError past
    the terms a pole cut short."""
    terms, error = row
    if k < 0 or k > n:
        return Fraction(0)
    if k >= len(terms):
        raise PoleError(error[1])
    return terms[k]


def reference_schlosser_lhs(p):
    a, q = p.sym("a"), p.sym("q")
    n, r = p.idx("n"), p.idx("r")
    ident._require_multisum_budget(n, r)
    xs = ident._xs(p, r)
    pair_den = ref.pair_product(a, q, xs, [0] * r)
    if pair_den == 0:
        raise PoleError("pair-interaction denominator vanished")
    tables = [[reference_axis_term(row, n, k) for k in range(n + 1)]
              for row in reference_axis_rows(p)]
    total = Fraction(0)
    for ks in itertools.product(range(n + 1), repeat=r):
        t = ref.pair_product(a, q, xs, ks)
        for i in range(r):
            t *= tables[i][ks[i]]
        total += t
    return total / pair_den


def _pair_ratio(a, q, xs, shifts):
    """The pair-interaction product at the given shifts over its value at
    no shift."""
    return _div(ref.pair_product(a, q, xs, shifts),
                ref.pair_product(a, q, xs, [0] * len(xs)))


def reference_cr_term(p, axes, ks):
    """Level n of the C_r summand at p, read by k-vector: the
    pair-interaction ratio times one entry of each axis row."""
    n = p.idx("n")
    xs = tuple(ident._xs(p, p.idx("r")))
    ks = (ks,) if isinstance(ks, int) else tuple(ks)
    if len(ks) != len(xs):
        raise ValueError("need a k-vector of length r=%d" % len(xs))
    if any(k < 0 or k > n for k in ks):
        return Fraction(0)
    t = _pair_ratio(p.sym("a"), p.sym("q"), xs, ks)
    for row, k in zip(axes, ks):
        t *= reference_axis_term(row, n, k)
    return t


@pytest.mark.parametrize("bound", [2, 3, 1000])
def test_schlosser_row_matches_the_reference_loops(bound):
    rng = random.Random(300 + bound)
    cases = poles = 0
    for r in (1, 2, 3):
        for _ in range(6):
            # x_1..x_r distinct from each other only: a certificate point's
            # x-vector must also avoid a, b, c, d and q, which bound 2 cannot
            # always satisfy at r = 3
            symbols = ident._sample_symbols(rng, "abcd", {"r": r}, bound)
            for n in range(4):
                p = ParamPoint(symbols, {"n": n, "r": r})
                row = ident.schlosser_row(p)
                expected = _value_or_pole(reference_schlosser_lhs, p)
                assert _value_or_pole(row.total) == expected, p
                poles += expected is PoleError
                axes = reference_axis_rows(p)
                for ks in itertools.product(range(-1, n + 2), repeat=r):
                    assert (_value_or_pole(row.term, ks)
                            == _value_or_pole(reference_cr_term, p, axes, ks)), \
                        (p, ks)
                    cases += 1
    assert cases > 1000
    if bound <= 3:
        assert poles > 0


def test_schlosser_row_raises_a_vanished_pair_denominator_on_read():
    # 1 - a x1 x2 = 0 at a = 1/6, x1 = 2, x2 = 3
    point = ParamPoint({"a": Fraction(1, 6), "b": 5, "c": 7,
                        "d": Fraction(1, 11), "q": Fraction(2, 3),
                        "x1": 2, "x2": 3}, {"n": 2, "r": 2})
    row = ident.schlosser_row(point)
    assert row.term((0, 3)) == 0
    with pytest.raises(PoleError, match="pair-interaction"):
        row.term((0, 0))
    with pytest.raises(PoleError, match="pair-interaction"):
        row.total()
    with pytest.raises(PoleError, match="pair-interaction"):
        ident.schlosser_lhs(point)
    # the certificate's level reader hands back the row itself, not an
    # int-indexed empty row, so the pole surfaces on read there too
    level = get_certificate("schlosser").term(point, 2)
    assert isinstance(level, ident.CrRow)
    with pytest.raises(PoleError, match="pair-interaction"):
        level.term((1, 1))
    with pytest.raises(PoleError):
        term_recurrence_residual("schlosser", point, 2, (1, 1))


# proof -> (symbols, order, multi), derived from the identity and the steps
CERT_FACTS = {
    "jackson": (("a", "b", "c", "d"), 1, False),
    "watson": (("a", "b", "c", "d", "e"), 1, False),
    "bailey": (("a", "b", "c", "d", "e", "f"), 1, False),
    "singh": (("A", "B", "c"), 2, False),
    "lebesgue": (("a",), 1, False),
    "quintuple": (("z",), 1, False),
    "schlosser": (("a", "b", "c", "d"), 1, True),
}


def test_certificate_facts_derived_from_the_registry():
    assert {cert.id: (cert.symbols, cert.order, cert.multi)
            for cert in list_certificates()} == CERT_FACTS


# (proof, level reader, identities row builder it reads)
CERT_ROWS = [("jackson", "term", "jackson_row"),
             ("watson", "term", "watson_row"),
             ("watson", "rhs_term", "watson_rhs_row"),
             ("bailey", "term", "bailey_row"),
             ("bailey", "rhs_term", "bailey_rhs_row"),
             ("singh", "term", "singh_lhs_row"),
             ("singh", "rhs_term", "singh_rhs_row"),
             ("lebesgue", "term", "lebesgue_row"),
             ("quintuple", "term", "quintuple_row"),
             ("schlosser", "term", "schlosser_row")]


@pytest.mark.parametrize("cert_id,reader,row_name", CERT_ROWS)
def test_level_reader_looks_up_the_row_builder_when_read(monkeypatch, cert_id,
                                                          reader, row_name):
    cert = get_certificate(cert_id)
    point = sample_certificate_point(cert, random.Random(5), r_range=(1, 1))
    marker, built = object(), []
    monkeypatch.setattr(ident, row_name, lambda p: built.append(p) or marker)
    assert getattr(cert, reader)(point, 3) is marker
    assert [p.idx("n") for p in built] == [3]
