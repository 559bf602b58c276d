"""The fault catalogue: one row per fault planted in a layer of the program,
naming the identity and the certificate check that must report it.

A row plants its fault in every module that reads the faulty function, or
on its class for a method such as ``Ratio.__truediv__``.  It asserts that
the healthy run passes and that the planted run fails:
``verify`` finds a counterexample of the identity, and ``certs.check_point``
reports the named check for the proof.  A fault in a certificate's own data
(a row of ``STEP_FAULTS``) leaves the identity passing and fails the proof.
A wrong right side of a single-index proof's identity (``CLOSED_FORM_PROOFS``)
is planted in the identity registry; the proof's replay reports it.
A fault that no check catches at the default n is a row of ``KNOWN_GAPS``,
asserted to pass there and to fail at the n that reveals it, so that the gap
stays visible.  Faults are scaled by 102/101, so they stay exact.
"""

import math
import random
from fractions import Fraction

import pytest

from qident import certs, hyper, identities, qcore
from qident.identities import CounterexampleFound, derive_trial_seed, verify
from qident.qcore import PoleError, Ratio, _ints

SEED = 20250808
SCALE = Fraction(102, 101)


def _step_ratio_from(k0):
    """The kernel's ratio T_{k0}/T_{k0-1} times 102/101: every term from k0
    on."""
    def plant(kernel):
        def planted(*args):
            for k, (num, den) in enumerate(kernel(*args)):
                yield ((num * SCALE.numerator, den * SCALE.denominator)
                       if k >= k0 else (num, den))
        return planted
    return plant


def _scaled_c(kernel):
    """``linear`` with its c times 102/101: every factor 1 - c p^k."""
    def planted(pairs, c, p):
        cn, cd = _ints(c)
        return kernel(pairs, Ratio(cn * SCALE.numerator,
                                   cd * SCALE.denominator), p)
    return planted


def _scaled_where(test):
    """The function's value times 102/101 wherever test(*args) holds."""
    def plant(fn):
        def planted(*args):
            value = fn(*args)
            return value * SCALE if test(*args) else value
        return planted
    return plant


def _last_denominator_scaled(kernel):
    """``wp_pairs`` with its last implied denominator d = a_1 q/a_{r+1} times
    102/101: each term times (d;q)_k/(d 102/101;q)_k."""
    def planted(a_list, q, z, terms):
        pairs = kernel(a_list, q, z, terms)
        (an, ad), (qn, qd), (ln, ld) = map(_ints, (a_list[0], q, a_list[-1]))
        d = Fraction(an * qn * ld, ad * qd * ln)
        for (num, den), (fn, fd) in zip(pairs, hyper.poch_ratio_pairs(
                [d], [d * SCALE], q, 1, terms)):
            yield num * fn, den * fd
    return planted


def _last_pair_dropped(kernel):
    """``pair_sum`` without its last pair."""
    def planted(pairs, *pre):
        return kernel(list(pairs)[:-1], *pre)
    return planted


# (layer, fault) -> (function, plant, identity, proof, the check that must
# report it); the function is planted in every module that reads it
FAULTS = {
    ("kernel", "step ratio x 102/101 at k = 2"): (
        "poch_ratio_pairs", _step_ratio_from(2),
        "jackson_8phi7", "jackson", "term_recurrence"),
    # the term recurrence alone misses this one: the well-poised factor goes
    # wrong by (1 - c' q^{2k})/(1 - a q^{2k}) at c' = a 102/101, and the shift
    # a -> a q^2 with k -> k - 1 keeps that factor, so every F in one
    # residual carries the same one; the anti-difference's factor does not
    ("kernel", "linear's c x 102/101"): (
        "linear", _scaled_c, "bailey_10phi9", "bailey", "telescoping"),
    ("kernel", "wp_pairs' last denominator x 102/101"): (
        "wp_pairs", _last_denominator_scaled,
        "jackson_8phi7", "jackson", "term_recurrence"),
    ("kernel", "pair_sum drops its last pair"): (
        "pair_sum", _last_pair_dropped,
        "watson_transform", "watson", "inductive_replay"),
    # lebesgue's right side (-q;q)_n / (a;q^2)_{n+1} goes wrong at n = 1
    # only, where the two planted factors do not cancel
    ("qcore", "qpoch x 102/101 at n >= 2"): (
        "qpoch", _scaled_where(lambda a, q, n: n >= 2),
        "lebesgue_finite", "lebesgue", "inductive_replay"),
    # every quotient of Ratio int pairs: the parameters a*q/(b*c) the sides
    # and the step coefficients are built from
    ("qcore", "Ratio.__truediv__ x 102/101"): (
        "Ratio.__truediv__", _scaled_where(lambda *args: True),
        "jackson_8phi7", "jackson", "term_recurrence"),
    # the C_r product side: no sweep reads it, the replay's base case does
    ("replay alone", "_schlosser_axes_rhs x 102/101"): (
        "_schlosser_axes_rhs", _scaled_where(lambda *args: True),
        "schlosser_cr", "schlosser", "inductive_replay"),
}

# (layer, fault) -> (function, plant, identity, proof, n, check): faults that
# no check sees at the default n <= 6, nor the identity's trials; the sweep
# and the trials up to n report them, the proof at that check
KNOWN_GAPS = {
    ("kernel", "step ratio x 102/101 at k = 7"): (
        "poch_ratio_pairs", _step_ratio_from(7),
        "jackson_8phi7", "jackson", 12, "term_recurrence"),
}


# the single-index proofs, each with a row for its identity's right side
# (closed form or sum) x 102/101 at n >= 1: only the identity's trials and the
# proof's replay read that side, the sweeps read the summand rows
CLOSED_FORM_PROOFS = ("jackson", "watson", "bailey", "singh", "lebesgue",
                      "quintuple")


# (proof, step index) -> a wrong k-offset for that step, off by one: only the
# proof reads it, and its term recurrence fails at the first level it checks
STEP_FAULTS = {
    ("singh", 2): 1,        # gamma's dk 2 -> 1
    ("jackson", 1): 0,      # gamma's dk 1 -> 0
}


def _plant(monkeypatch, name, plant):
    owner, _, method = name.rpartition(".")
    if owner:                       # a method, planted on its qcore class
        cls = getattr(qcore, owner)
        monkeypatch.setattr(cls, method, plant(getattr(cls, method)))
        return
    modules = (qcore, hyper, identities, certs)
    healthy = next(getattr(m, name) for m in modules if hasattr(m, name))
    for module in modules:
        if getattr(module, name, None) is healthy:
            monkeypatch.setattr(module, name, plant(healthy))


def _certificate_point(cert):
    rng = random.Random(derive_trial_seed(SEED, "catalogue:%s" % cert.id, 0))
    for _ in range(100):
        point = certs.sample_certificate_point(cert, rng)
        try:
            cert.lhs_value(point, 2)
        except PoleError:
            continue
        return point
    raise RuntimeError("no pole-free point found for %s" % cert.id)


def _runs(identity_id, proof_id, n_max=None):
    """(the identity's verdict, the check that failed the proof's point, or
    None), with n up to n_max; by default the identity draws its own n and
    the proof sweeps n <= 4."""
    try:
        verdict = verify(identity_id, 10, SEED,
                         n_max and {"n": (0, n_max)}).status
    except CounterexampleFound:
        verdict = "FAIL"
    cert = certs.get_certificate(proof_id)
    _, failure = certs.check_point(cert, _certificate_point(cert),
                                   certs.check_ranges(cert, n_max or 4, 1))
    return verdict, failure and failure["check"]


@pytest.mark.parametrize("fault", sorted(FAULTS), ids=" / ".join)
def test_planted_fault_is_reported(monkeypatch, fault):
    name, plant, identity_id, proof_id, check = FAULTS[fault]
    assert _runs(identity_id, proof_id) == ("PASS", None)
    _plant(monkeypatch, name, plant)
    assert _runs(identity_id, proof_id) == ("FAIL", check)


@pytest.mark.parametrize("proof_id", CLOSED_FORM_PROOFS)
def test_planted_right_side_fails_the_replay(monkeypatch, proof_id):
    cert = certs.get_certificate(proof_id)
    desc = identities.get_identity(cert.identity)
    assert _runs(desc.id, proof_id) == ("PASS", None)
    planted = _scaled_where(lambda p: p.idx("n") >= 1)(desc.rhs)
    monkeypatch.setitem(identities._REGISTRY, desc.id,
                        desc._replace(rhs=planted))
    assert _runs(desc.id, proof_id) == ("FAIL", "inductive_replay")


@pytest.mark.parametrize("proof_id,step", sorted(STEP_FAULTS))
def test_step_k_offset_off_by_one_fails_the_term_recurrence(monkeypatch,
                                                             proof_id, step):
    cert = certs.get_certificate(proof_id)
    assert _runs(cert.identity, proof_id) == ("PASS", None)
    coeff, dn, s, _ = cert.steps[step]
    steps = list(cert.steps)
    steps[step] = coeff, dn, s, STEP_FAULTS[proof_id, step]
    planted = cert._replace(steps=tuple(steps))
    monkeypatch.setitem(certs._CERTS, proof_id, planted)
    assert _runs(cert.identity, proof_id) == ("PASS", "term_recurrence")
    _, failure = certs.check_point(planted, _certificate_point(planted),
                                   certs.check_ranges(planted, 4, 1))
    assert failure["n"] == cert.order


@pytest.mark.parametrize("fault", sorted(KNOWN_GAPS), ids=" / ".join)
def test_known_gap_passes_at_the_default_n(monkeypatch, fault):
    name, plant, identity_id, proof_id, n_max, check = KNOWN_GAPS[fault]
    assert _runs(identity_id, proof_id, n_max) == ("PASS", None)
    _plant(monkeypatch, name, plant)
    assert _runs(identity_id, proof_id, 6) == ("PASS", None)
    assert _runs(identity_id, proof_id, n_max) == ("FAIL", check)


def test_closed_form_gap_passes_below_n_7(monkeypatch):
    # jackson_8phi7's right side times 1 + prod_{j=0}^{6} (1 - q^{n-j}): the
    # product has the factor 1 - q^0 at every n <= 6, so the fault shows at
    # n >= 7 only.  The trials draw n <= 6, and the proof reads the right
    # side only in its replay, at n <= 5.  A replay to --n-max (ROADMAP item
    # 6) or a check of the closed form's own recurrence (item 10) closes it.
    desc = identities.get_identity("jackson_8phi7")

    def planted(p, healthy=desc.rhs):
        q, n = p.sym("q"), p.idx("n")
        return healthy(p) * (1 + math.prod(1 - q**(n - j) for j in range(7)))
    monkeypatch.setitem(identities._REGISTRY, desc.id,
                        desc._replace(rhs=planted))
    assert verify(desc.id, 20, SEED).status == "PASS"
    cert = certs.get_certificate("jackson")
    _, failure = certs.check_point(cert, _certificate_point(cert),
                                   certs.check_ranges(cert, 12, 1))
    assert failure is None
    with pytest.raises(CounterexampleFound):
        verify(desc.id, 20, SEED, {"n": (7, 7)})
