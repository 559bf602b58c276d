"""Command-line driver: identity verification, certificate replay, and
truncated-series checks, with reproducible seeds and machine-readable reports.

Exit status: 0 when every selected check passed, 1 on any failure, 2 on
configuration errors.  Reports are deterministic for a fixed config modulo
the elapsed_s timing fields.  Counterexample points are printed as exact
fractions.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .qcore import PoleError
from . import identities as ident
from . import certs
from . import psers

DEFAULT_TRIALS = 20
DEFAULT_SEED = 42
SERIES_DEFAULT_TRIALS = 5
SERIES_DEFAULT_ORDER = 60
CERT_DEFAULT_TRIALS = 10
CERT_REPLAY_N_MAX = 5


@dataclass
class RunConfig:
    command: str
    identity_ids: Tuple[str, ...] = ()
    proof_ids: Tuple[str, ...] = ()
    series_ids: Tuple[str, ...] = ()
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    n_max: int = 6
    m_max: int = 4
    r_max: int = 3
    order: int = SERIES_DEFAULT_ORDER
    series_trials: int = SERIES_DEFAULT_TRIALS
    cert_trials: int = CERT_DEFAULT_TRIALS
    max_abs: int = ident.DEFAULT_SIZE_BOUND
    fmt: str = "text"
    out: Optional[str] = None

    def echo(self) -> Dict:
        return {
            "command": self.command,
            "identities": list(self.identity_ids),
            "proofs": list(self.proof_ids),
            "series": list(self.series_ids),
            "trials": self.trials,
            "cert_trials": self.cert_trials,
            "series_trials": self.series_trials,
            "seed": self.seed,
            "n_max": self.n_max,
            "m_max": self.m_max,
            "r_max": self.r_max,
            "order": self.order,
            "max_abs": self.max_abs,
        }


class ConfigError(Exception):
    pass


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _note_n_cap(item_id: str, n_max: int, config: RunConfig,
                what: str = "n") -> None:
    """Say when an item stops short of the requested --n-max."""
    if n_max < config.n_max:
        _progress("# %s: %s capped at %d (--n-max %d)"
                  % (item_id, what, n_max, config.n_max))


# ---------------------------------------------------------------------------
# per-item runners
# ---------------------------------------------------------------------------

def _is_multisum(identity_id: str) -> bool:
    return {"n", "r"} <= set(ident.get_identity(identity_id).index_names)


def _identity_ranges(identity_id: str, config: RunConfig) -> Dict[str, Tuple[int, int]]:
    if _is_multisum(identity_id):
        return {"n": (0, min(config.n_max, ident.MULTISUM_MAX_N)),
                "r": (1, config.r_max)}
    if identity_id == "schlosser_lemma_n1":
        return {"r": (1, config.r_max)}
    return {"n": (0, config.n_max), "m": (0, config.m_max)}


def _verify_item(identity_id: str, config: RunConfig) -> Dict:
    ranges = _identity_ranges(identity_id, config)
    if "n" in ranges:
        _note_n_cap(identity_id, ranges["n"][1], config)
    noisy = _is_multisum(identity_id) and config.r_max >= 3
    if noisy:
        _progress("# %s: multi-sum verification up to r=%d"
                  % (identity_id, config.r_max))
    item = {"kind": "identity", "id": identity_id, "status": "PASS",
            "trials": config.trials, "succeeded": 0, "rejected": 0,
            "point_rejections": 0, "first_failure": None, "elapsed_s": 0.0}
    start = time.monotonic()
    try:
        report = ident.verify(identity_id, config.trials, config.seed, ranges,
                              size_bound=config.max_abs)
    except ident.CounterexampleFound as exc:
        rep = exc.report
        item.update(status="FAIL", succeeded=rep.succeeded,
                    rejected=rep.rejected,
                    point_rejections=rep.point_rejections,
                    first_failure=rep.counterexample)
    except ident.RetryExhausted as exc:
        item.update(status="ERROR", first_failure={"error": str(exc)})
    else:
        item.update(succeeded=report.succeeded, rejected=report.rejected,
                    point_rejections=report.point_rejections)
    item["elapsed_s"] = round(time.monotonic() - start, 6)
    return item


def _sweep_n_max(cert: certs.ProofCertificate, config: RunConfig) -> int:
    """The largest n of the term-recurrence sweep."""
    if cert.multi:
        return min(config.n_max, certs.SCHLOSSER_REPLAY_MAX_N)
    return config.n_max


def _replay_n_max(config: RunConfig) -> int:
    """The largest n of a single-index replay."""
    return min(config.n_max, CERT_REPLAY_N_MAX)


def _certificate_checks(cert: certs.ProofCertificate, point, config: RunConfig
                        ) -> Tuple[Dict[str, int], Optional[Dict]]:
    """Run every check for one sampled point; returns (counts, failure)."""
    counts = {"term_recurrence": 0, "telescoping": 0, "boundary": 0, "replay": 0}

    def fail(check: str, **extra) -> Dict:
        info = {"check": check, "point": ident.serialize_point(point)}
        info.update(extra)
        return info

    for n in range(cert.order, _sweep_n_max(cert, config) + 1):
        for k, residual in certs.term_recurrence_residuals(cert, point, n):
            if residual != 0:
                return counts, fail("term_recurrence", n=n, k=(
                    list(k) if cert.multi else k))
            counts["term_recurrence"] += 1
    if cert.anti_diff is not None:
        for n in range(cert.order, config.n_max + 1):
            for k, residual in certs.telescoping_residuals(cert, point, n):
                if residual != 0:
                    return counts, fail("telescoping", n=n, k=k)
                counts["telescoping"] += 1
            if not certs.boundary_check(cert, point, n):
                return counts, fail("boundary", n=n)
            counts["boundary"] += 1
    if not certs.inductive_replay(cert, point, _replay_n_max(config)):
        return counts, fail("inductive_replay")
    counts["replay"] += 1
    return counts, None


def _certify_item(proof_id: str, config: RunConfig) -> Dict:
    cert = certs.get_certificate(proof_id)
    item = {"kind": "certificate", "id": proof_id, "status": "PASS",
            "trials": config.cert_trials, "succeeded": 0, "rejected": 0,
            "checks": {"term_recurrence": 0, "telescoping": 0,
                       "boundary": 0, "replay": 0},
            "first_failure": None, "elapsed_s": 0.0}
    start = time.monotonic()
    if cert.multi and config.r_max >= 3:
        _progress("# %s: certificate sweep up to r=%d" % (proof_id, config.r_max))
    _note_n_cap(proof_id, _sweep_n_max(cert, config), config)
    if not cert.multi:
        _note_n_cap(proof_id, _replay_n_max(config), config, "replay n")
    for trial in range(config.cert_trials):
        rng = random.Random(ident.derive_trial_seed(
            config.seed, "cert:%s" % proof_id, trial))
        done = False
        for _ in range(ident.DEFAULT_RETRY_CAP):
            point = certs.sample_certificate_point(
                cert, rng, config.max_abs, (1, config.r_max))
            try:
                counts, failure = _certificate_checks(cert, point, config)
            except PoleError:
                item["rejected"] += 1
                continue
            for key, value in counts.items():
                item["checks"][key] += value
            if failure is not None:
                item["status"] = "FAIL"
                item["first_failure"] = failure
                item["elapsed_s"] = round(time.monotonic() - start, 6)
                return item
            item["succeeded"] += 1
            done = True
            break
        if not done and item["succeeded"] == 0 and trial == config.cert_trials - 1:
            item["status"] = "ERROR"
            item["first_failure"] = {"error": "pole retries exhausted"}
    item["elapsed_s"] = round(time.monotonic() - start, 6)
    return item


def _series_symbols(series_id: str, rng: random.Random, bound: int
                    ) -> Dict[str, Fraction]:
    if series_id == "lebesgue_inf":
        return {"a": ident.random_rational(rng, bound)}
    if series_id == "q_kummer":
        return {"a": ident.random_rational(rng, bound),
                "b": ident.random_rational(rng, bound)}
    return {"z": ident.random_rational(rng, bound)}


def _series_item(series_id: str, config: RunConfig) -> Dict:
    item = {"kind": "series", "id": series_id, "status": "PASS",
            "order": config.order, "trials": config.series_trials,
            "succeeded": 0, "first_failure": None, "elapsed_s": 0.0}
    start = time.monotonic()
    for trial in range(config.series_trials):
        rng = random.Random(ident.derive_trial_seed(
            config.seed, "series:%s" % series_id, trial))
        symbols = _series_symbols(series_id, rng, config.max_abs)
        try:
            residual = psers.infinite_identity_residual(
                series_id, symbols, config.order)
        except PoleError as exc:
            item["status"] = "ERROR"
            item["first_failure"] = {"error": str(exc)}
            break
        if not residual.is_zero():
            first_bad = next(i for i, c in enumerate(residual.coeffs) if c != 0)
            item["status"] = "FAIL"
            item["first_failure"] = {
                "symbols": {k: str(v) for k, v in sorted(symbols.items())},
                "first_nonzero_order": first_bad,
                "coefficient": str(residual.coeffs[first_bad]),
            }
            break
        item["succeeded"] += 1
    item["elapsed_s"] = round(time.monotonic() - start, 6)
    return item


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _resolve_selection(requested: Sequence[str], known: Sequence[str],
                       what: str) -> Tuple[str, ...]:
    if not requested or "all" in requested:
        return tuple(known)
    out = []
    for name in requested:
        if name not in known and not (what == "identity"
                                      and name == "lebesgue_finite_2"):
            raise ConfigError("unknown %s %r (known: %s)"
                              % (what, name, ", ".join(known)))
        out.append(name)
    return tuple(out)


def run(config: RunConfig) -> Tuple[int, Dict]:
    """Execute the configured checks; returns (exit_status, report).

    The row memo is cleared first, so that a run's work does not depend on
    what ran before it in the same process."""
    ident.clear_row_memo()
    items: List[Dict] = []
    if config.command in ("verify", "all"):
        for identity_id in config.identity_ids:
            items.append(_verify_item(identity_id, config))
    if config.command in ("certify", "all"):
        for proof_id in config.proof_ids:
            items.append(_certify_item(proof_id, config))
    if config.command in ("series", "all"):
        for series_id in config.series_ids:
            items.append(_series_item(series_id, config))
    summary = {
        "total": len(items),
        "passed": sum(1 for i in items if i["status"] == "PASS"),
        "failed": sum(1 for i in items if i["status"] == "FAIL"),
        "errors": sum(1 for i in items if i["status"] == "ERROR"),
    }
    report = {"config": config.echo(), "items": items, "summary": summary}
    status = 0 if summary["passed"] == summary["total"] else 1
    return status, report


def format_report(report: Dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = []
    for item in report["items"]:
        label = "%s %s" % (item["kind"], item["id"])
        if item["kind"] == "identity":
            detail = "trials=%d/%d rejects=%d" % (
                item["succeeded"], item["trials"], item["point_rejections"])
        elif item["kind"] == "certificate":
            detail = ("points=%d/%d residuals=%d" % (
                item["succeeded"], item["trials"],
                item["checks"]["term_recurrence"] + item["checks"]["telescoping"]))
        else:
            detail = "order=%d specializations=%d/%d" % (
                item["order"], item["succeeded"], item["trials"])
        lines.append("%-4s %-42s %s (%.2fs)" % (
            item["status"], label, detail, item["elapsed_s"]))
        if item["first_failure"]:
            lines.append("     first failure: %s"
                         % json.dumps(item["first_failure"], sort_keys=True))
    s = report["summary"]
    lines.append("summary: %d total, %d passed, %d failed, %d errors"
                 % (s["total"], s["passed"], s["failed"], s["errors"]))
    return "\n".join(lines) + "\n"


def _emit(report: Dict, config: RunConfig) -> None:
    text = format_report(report, config.fmt)
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_env(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("environment variable %s=%r is not an integer"
                          % (name, raw))


def build_parser(default_seed: int, default_trials: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description="Exact verification of terminating q-series identities, "
                    "proof-certificate replay, and truncated-series checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=default_seed)
        p.add_argument("--max-abs", type=int, default=ident.DEFAULT_SIZE_BOUND,
                       help="numerator/denominator size bound for samples")
        p.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text")
        p.add_argument("--out", default=None, help="write the report here "
                       "instead of standard output")

    pv = sub.add_parser("verify", help="verify terminating identities")
    pv.add_argument("--id", action="append", default=None,
                    help="identity id or 'all' (repeatable)")
    pv.add_argument("--trials", type=int, default=default_trials)
    pv.add_argument("--n-max", type=int, default=6)
    pv.add_argument("--m-max", type=int, default=4)
    pv.add_argument("--r-max", type=int, default=3)
    common(pv)

    pc = sub.add_parser("certify", help="replay proof certificates")
    pc.add_argument("--proof", action="append", default=None,
                    help="proof id or 'all' (repeatable)")
    pc.add_argument("--trials", type=int, default=CERT_DEFAULT_TRIALS)
    pc.add_argument("--n-max", type=int, default=CERT_REPLAY_N_MAX)
    pc.add_argument("--r-max", type=int, default=3)
    common(pc)

    ps = sub.add_parser("series", help="check limiting product identities")
    ps.add_argument("--id", action="append", default=None,
                    help="series id or 'all' (repeatable)")
    ps.add_argument("--trials", type=int, default=SERIES_DEFAULT_TRIALS)
    ps.add_argument("--order", type=int, default=SERIES_DEFAULT_ORDER)
    common(ps)

    pa = sub.add_parser("all", help="run every registered check")
    pa.add_argument("--trials", type=int, default=default_trials)
    pa.add_argument("--cert-trials", type=int, default=CERT_DEFAULT_TRIALS)
    pa.add_argument("--series-trials", type=int, default=SERIES_DEFAULT_TRIALS)
    pa.add_argument("--n-max", type=int, default=6)
    pa.add_argument("--m-max", type=int, default=4)
    pa.add_argument("--r-max", type=int, default=3)
    pa.add_argument("--order", type=int, default=SERIES_DEFAULT_ORDER)
    common(pa)
    return parser


def _check_ranges(args: argparse.Namespace) -> None:
    """Reject values that would hang, crash or run no trial at all."""
    # q is drawn from the rationals of size <= max_abs other than 0 and +-1
    least = 1 if args.command == "series" else 2
    if args.max_abs < least:
        raise ConfigError("--max-abs must be at least %d for %s, got %d"
                          % (least, args.command, args.max_abs))
    if getattr(args, "order", 0) < 0:
        raise ConfigError("--order must be at least 0, got %d" % args.order)
    for attr in ("trials", "cert_trials", "series_trials"):
        value = getattr(args, attr, 1)
        if value < 1:
            raise ConfigError("--%s must be at least 1, got %d"
                              % (attr.replace("_", "-"), value))
    # every proof must check at least one recurrence: the deepest has order 2
    least_n = 0 if args.command == "verify" else 2
    for attr, least in (("n_max", least_n), ("m_max", 0), ("r_max", 1)):
        value = getattr(args, attr, least)
        if value < least:
            raise ConfigError("--%s must be at least %d for %s, got %d"
                              % (attr.replace("_", "-"), least, args.command,
                                 value))
    most_r = (ident.MULTISUM_MAX_R if args.command == "verify"
              else certs.SCHLOSSER_REPLAY_MAX_R)
    if getattr(args, "r_max", 1) > most_r:
        raise ConfigError("--r-max must be at most %d for %s, got %d"
                          % (most_r, args.command, args.r_max))


def config_from_args(args: argparse.Namespace) -> RunConfig:
    _check_ranges(args)
    command = args.command
    config = RunConfig(command=command, seed=args.seed, max_abs=args.max_abs,
                       fmt=args.fmt, out=args.out)
    if command == "verify":
        config.identity_ids = _resolve_selection(
            args.id or (), ident.identity_ids(), "identity")
        config.trials = args.trials
        config.n_max, config.m_max, config.r_max = args.n_max, args.m_max, args.r_max
    elif command == "certify":
        config.proof_ids = _resolve_selection(
            args.proof or (), certs.certificate_ids(), "proof")
        config.cert_trials = args.trials
        config.n_max = args.n_max
        config.r_max = args.r_max
    elif command == "series":
        config.series_ids = _resolve_selection(
            args.id or (), psers.SERIES_IDENTITIES, "series identity")
        config.series_trials = args.trials
        config.order = args.order
    else:
        config.identity_ids = tuple(ident.identity_ids())
        config.proof_ids = tuple(certs.certificate_ids())
        config.series_ids = tuple(psers.SERIES_IDENTITIES)
        config.trials = args.trials
        config.cert_trials = args.cert_trials
        config.series_trials = args.series_trials
        config.n_max, config.m_max, config.r_max = args.n_max, args.m_max, args.r_max
        config.order = args.order
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        default_seed = _int_env("QIDENT_SEED", DEFAULT_SEED)
        default_trials = _int_env("QIDENT_TRIALS", DEFAULT_TRIALS)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    parser = build_parser(default_seed, default_trials)
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    status, report = run(config)
    _emit(report, config)
    return status


if __name__ == "__main__":
    sys.exit(main())
