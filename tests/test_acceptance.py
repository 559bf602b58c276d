"""Acceptance suite: every criterion at its stated tolerance (exact equality
throughout), one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import copy
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from qident.qcore import PoleError
from qident.hyper import TermRow, contiguous_residual_1, contiguous_residual_2
from qident import certs
from qident import cli
from qident import identities
from qident.identities import (CounterexampleFound, derive_trial_seed,
                               identity_ids, random_q, random_rational,
                               verify)
from qident.psers import SERIES_IDENTITIES, infinite_identity_residual

SEED = 20250808

IDENTITY_RANGES = {
    "jacobi_finite": {"n": (0, 6), "m": (0, 4)},
    "quintuple_finite_mn": {"n": (0, 6), "m": (0, 4)},
    "jacobi_prefactor_relation": {"n": (0, 6), "m": (0, 4)},
    "schlosser_cr": {"n": (0, 3), "r": (1, 3)},
    "cr_prop_1": {"n": (0, 3), "r": (1, 3)},
    "cr_prop_2": {"n": (0, 3), "r": (1, 3)},
    "schlosser_lemma_n1": {"r": (1, 3)},
}


def _line(criterion: str, ok: bool, detail: str) -> None:
    print("ACCEPTANCE %-4s %-24s %s" % ("PASS" if ok else "FAIL",
                                        criterion, detail))


def test_identity_suite():
    start = time.monotonic()
    failures = []
    for identity_id in identity_ids():
        ranges = IDENTITY_RANGES.get(identity_id, {"n": (0, 6)})
        try:
            report = verify(identity_id, 20, SEED, ranges)
        except CounterexampleFound as exc:
            failures.append((identity_id, exc.report.counterexample))
            continue
        if report.status != "PASS" or report.succeeded != 20:
            failures.append((identity_id, report.as_dict()))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    _line("identity-suite", ok,
          "18 identities x 20 exact trials, %.1fs (budget 120s)%s"
          % (elapsed, "" if not failures else " failures=%r" % failures))
    assert not failures
    assert elapsed < 120


def test_contiguous_relation_suite():
    start = time.monotonic()
    bad = []
    checked = 0
    for r in range(1, 10):
        for k in range(0, 9):
            for trial in range(20):
                rng = random.Random(derive_trial_seed(
                    SEED, "contig:%d:%d" % (r, k), trial))
                t = (tuple(random_rational(rng) for _ in range(r + 1)),
                     random_q(rng), random_rational(rng))
                try:
                    if r >= 2 and contiguous_residual_1(*t, k) != 0:
                        bad.append(("rel1", r, k))
                    if contiguous_residual_2(*t, k) != 0:
                        bad.append(("rel2", r, k))
                    checked += 1
                except PoleError:
                    if r >= 2:
                        bad.append(("pole", r, k))
    # at r = 1 the first relation's coefficient is identically singular
    # (its denominator carries 1 - a_1/a_r with a_r = a_1), so that cell is
    # excluded by pole; confirm it really is a pole, not silently skipped
    rng = random.Random(1)
    t1 = ((random_rational(rng), random_rational(rng)),
          random_q(rng), random_rational(rng))
    with pytest.raises(PoleError):
        contiguous_residual_1(*t1, 3)
    elapsed = time.monotonic() - start
    ok = not bad
    _line("contiguous-suite", ok,
          "r in 1..9, k in 0..8, 20 points/shape (%d checks, rel(1) r=1 "
          "identically singular, excluded), %.1fs" % (checked, elapsed))
    assert not bad


def _certificate_point(cert, trial, r_range=(1, 3)):
    rng = random.Random(derive_trial_seed(SEED, "acc-cert:%s" % cert.id, trial))
    for _ in range(100):
        point = certs.sample_certificate_point(cert, rng, r_range=r_range)
        try:
            cert.lhs_value(point, 2)
        except PoleError:
            continue
        return point
    raise RuntimeError("no pole-free point found for %s" % cert.id)


def test_certificate_suite():
    start = time.monotonic()
    bad = []
    for cert in certs.list_certificates():
        for trial in range(20):
            point = _certificate_point(cert, trial)
            try:
                if cert.multi:
                    r = point.idx("r")
                    for n in range(1, identities.MULTISUM_MAX_N + 1):
                        for ks in itertools.product(range(n + 1), repeat=r):
                            if certs.term_recurrence_residual(cert, point, n, ks) != 0:
                                bad.append((cert.id, "term", n, ks))
                else:
                    for n in range(cert.order, 7):
                        for k in range(n + 1):
                            if certs.term_recurrence_residual(cert, point, n, k) != 0:
                                bad.append((cert.id, "term", n, k))
                            if cert.anti_diff is not None and \
                                    certs.telescoping_residual(cert, point, n, k) != 0:
                                bad.append((cert.id, "telescoping", n, k))
                        if cert.anti_diff is not None and \
                                not certs.boundary_check(cert, point, n):
                            bad.append((cert.id, "boundary", n))
                replay_n = certs.check_ranges(cert, 5, 3).replay_n
                if not certs.inductive_replay(cert, point, replay_n):
                    bad.append((cert.id, "replay"))
            except PoleError as exc:
                bad.append((cert.id, "pole", str(exc)))
    elapsed = time.monotonic() - start
    ok = not bad
    _line("certificate-suite", ok,
          "7 certificates x 20 points, residual sweeps 0<=k<=n<=6 "
          "(C_r: r<=3, n<=3) + replay at n_max=5, %.1fs" % elapsed)
    assert not bad


def test_schlosser_internals():
    start = time.monotonic()
    bad = []
    cert = certs.get_certificate("schlosser")
    for r in (1, 2, 3):
        for trial in range(10):
            point = _certificate_point(cert, 100 * r + trial, r_range=(r, r))
            for n in (0, 1, 2, 3):
                for i in range(1, r + 1):
                    for k_i in range(n + 2):
                        if certs.schlosser_split_residual(point, n, i, k_i) != 0:
                            bad.append(("split", r, n, i, k_i))
                for ss in itertools.product((0, 1), repeat=r):
                    if certs.schlosser_coeff_residual(point, n, ss) != 0:
                        bad.append(("coeff", r, n, ss))
    elapsed = time.monotonic() - start
    ok = not bad
    _line("schlosser-internals", ok,
          "split + coefficient residuals, all s in {0,1}^r, r<=3, "
          "10 points each, %.1fs" % elapsed)
    assert not bad


def test_series_suite():
    start = time.monotonic()
    bad = []
    order = 60
    for identity_id in SERIES_IDENTITIES:
        for trial in range(5):
            rng = random.Random(derive_trial_seed(
                SEED, "acc-series:%s" % identity_id, trial))
            if identity_id == "lebesgue_inf":
                params = {"a": random_rational(rng)}
            elif identity_id == "q_kummer":
                params = {"a": random_rational(rng), "b": random_rational(rng)}
            else:
                params = {"z": random_rational(rng)}
            residual = infinite_identity_residual(identity_id, params, order)
            if not residual.is_zero():
                bad.append((identity_id, params))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 30
    _line("series-suite", ok,
          "6 limiting identities to order %d, 5 specializations each, "
          "%.1fs (budget 30s)" % (order, elapsed))
    assert not bad
    assert elapsed < 30


def test_mutation_sensitivity():
    start = time.monotonic()
    missed = []
    for identity_id in identity_ids():
        ranges = IDENTITY_RANGES.get(identity_id, {"n": (0, 6)})
        try:
            verify(identity_id, 20, SEED, ranges, mutate_rhs=True)
        except CounterexampleFound:
            continue
        missed.append(identity_id)
    elapsed = time.monotonic() - start
    ok = not missed
    _line("mutation-sensitivity", ok,
          "RHS x q corruption caught within 20 trials for all 18 identities, "
          "%.1fs%s" % (elapsed, "" if ok else " missed=%r" % missed))
    assert not missed


SCALE = Fraction(102, 101)

def _scaled(pairs, k):
    """The int pairs with entry k times 102/101: the entries after it times
    101/101, so that each den still divides the next."""
    return [(num * (SCALE.numerator if i == k else SCALE.denominator),
             den * SCALE.denominator) if i >= k else (num, den)
            for i, (num, den) in enumerate(pairs)]


def _scaled_anti_diff(cert):
    """The certificate with every entry of its anti-difference rows scaled:
    each numerator times 102 and each denominator times 101."""
    def anti_diff(point, n):
        row = cert.anti_diff(point, n)
        return TermRow([(num * SCALE.numerator, den * SCALE.denominator)
                        for num, den in row.pairs], row.n, row.pole)
    return cert._replace(anti_diff=anti_diff)


def _boundary_only(cert):
    """The certificate with G_{n,n} x 102/101 in its right-side rows and, as
    its anti-difference, the running sum of the planted telescoped
    combination: every telescoping residual is 0 by construction, and only
    the boundary sum, which is that running sum at k = n, sees the fault."""
    def rhs_term(point, n):
        row = cert.rhs_term(point, n)
        return TermRow(_scaled(row.pairs, n), row.n, row.pole)
    planted = cert._replace(rhs_term=rhs_term)
    # against a zero anti-difference each residual is the combination itself
    combos = planted._replace(
        anti_diff=lambda point, n: TermRow([(0, 1)] * (n + 1), n))

    def anti_diff(point, n):
        sums = list(itertools.accumulate(
            c for _, c in certs.telescoping_residuals(combos, point, n)))
        den = math.lcm(*(h.denominator for h in sums))
        return TermRow([(h.numerator * (den // h.denominator), den)
                        for h in sums], n)
    return planted._replace(anti_diff=anti_diff)


# fault -> (proof, planted fault, the check that must report it)
CERT_FAULTS = {
    "jackson": ("jackson", lambda cert: cert._replace(steps=(
        cert.steps[0], (lambda p, n: cert.steps[1][0](p, n) * SCALE, 1, 1, 1))),
        "term_recurrence"),
    "watson": ("watson", _scaled_anti_diff, "telescoping"),
    "bailey": ("bailey", lambda cert: cert._replace(
        shift=dict(a=1, b=1, c=1, d=1, e=1, f=1)),
        "term_recurrence"),
    "bailey_anti_diff": ("bailey", _scaled_anti_diff, "telescoping"),
    "singh_anti_diff": ("singh", _scaled_anti_diff, "telescoping"),
    "watson_boundary": ("watson", _boundary_only, "boundary"),
    "bailey_boundary": ("bailey", _boundary_only, "boundary"),
    "singh_boundary": ("singh", _boundary_only, "boundary"),
}


@pytest.mark.parametrize("fault", sorted(CERT_FAULTS))
def test_certificate_fault_matrix(fault):
    proof_id, plant, check = CERT_FAULTS[fault]
    cert = certs.get_certificate(proof_id)
    point = _certificate_point(cert, 0)
    ranges = certs.check_ranges(cert, 4, 3)
    _, failure = certs.check_point(cert, point, ranges)
    assert failure is None
    _, failure = certs.check_point(plant(cert), point, ranges)
    caught = failure is not None and failure["check"] == check
    _line("cert-fault-%s" % fault, caught,
          "planted fault reported by the %s check" % check)
    assert caught, failure


# shared summand row -> (identity, proof) that both read it
SHARED_ROWS = {
    "jackson_row": ("jackson_8phi7", "jackson"),
    "watson_row": ("watson_transform", "watson"),
    "watson_rhs_row": ("watson_transform", "watson"),
    "bailey_row": ("bailey_10phi9", "bailey"),
    "bailey_rhs_row": ("bailey_10phi9", "bailey"),
    "singh_lhs_row": ("singh_quadratic", "singh"),
    "singh_rhs_row": ("singh_quadratic", "singh"),
    "lebesgue_row": ("lebesgue_finite", "lebesgue"),
    "quintuple_row": ("quintuple_finite", "quintuple"),
}


@pytest.mark.parametrize("row_name", sorted(SHARED_ROWS))
def test_shared_row_fault_fails_identity_and_proof(monkeypatch, row_name):
    identity_id, proof_id = SHARED_ROWS[row_name]
    config = cli.RunConfig(command="all", identity_ids=(identity_id,),
                           proof_ids=(proof_id,), trials=5, cert_trials=1,
                           seed=SEED, n_max=3)
    # the healthy run comes first: no row it built may mask the fault
    status, _ = cli.run(config)
    assert status == 0
    healthy = getattr(identities, row_name)

    def faulty(point):
        # F_{n,1} x 102/101
        row = healthy(point)
        if len(row.pairs) < 2:
            return row
        return TermRow(_scaled(row.pairs, 1), row.n, row.pole)

    monkeypatch.setattr(identities, row_name, faulty)
    status, report = cli.run(config)
    statuses = [item["status"] for item in report["items"]]
    _line("row-fault-%s" % row_name, statuses == ["FAIL", "FAIL"],
          "F_{n,1} x 102/101: %s %s, %s %s" % (identity_id, statuses[0],
                                                proof_id, statuses[1]))
    assert status == 1
    assert statuses == ["FAIL", "FAIL"]


def test_determinism():
    config = cli.RunConfig(
        command="all",
        identity_ids=tuple(identity_ids()),
        proof_ids=tuple(certs.certificate_ids()),
        series_ids=tuple(SERIES_IDENTITIES),
        trials=3, cert_trials=1, series_trials=2,
        seed=SEED, n_max=3, m_max=2, r_max=2, order=25)
    status1, report1 = cli.run(config)
    status2, report2 = cli.run(copy.deepcopy(config))
    for report in (report1, report2):
        for item in report["items"]:
            item["elapsed_s"] = 0.0
    identical = (json.dumps(report1, sort_keys=True)
                 == json.dumps(report2, sort_keys=True))
    ok = identical and status1 == status2 == 0
    _line("determinism", ok,
          "two full runs, seed %d: byte-identical structured reports "
          "modulo timing fields" % SEED)
    assert status1 == status2 == 0
    assert identical
