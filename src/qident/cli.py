"""Command-line driver: identity verification, certificate replay, and
truncated-series checks, with reproducible seeds and machine-readable reports.

Every setting is a command-line option, and ``SETTINGS`` gives each integer
option its flag, ``RunConfig`` field and range.  Exit status: 0 when every
selected check passed, 1 on any failure, 2 on configuration errors.  Reports
are deterministic for a fixed config modulo the elapsed_s timing fields.
Counterexample points are printed as exact fractions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import identities as ident
from . import certs
from . import psers


@dataclass
class RunConfig:
    command: str
    identity_ids: Tuple[str, ...] = ()
    proof_ids: Tuple[str, ...] = ()
    series_ids: Tuple[str, ...] = ()
    trials: int = 20
    seed: int = 42
    n_max: int = 6
    m_max: int = 4
    r_max: int = 3
    order: int = 60
    series_trials: int = 5
    cert_trials: int = 10
    max_abs: int = ident.DEFAULT_SIZE_BOUND
    fmt: str = "text"
    out: Optional[str] = None

    def echo(self) -> Dict:
        """The report's copy of the config, without where the report goes."""
        echo = asdict(self)
        del echo["fmt"], echo["out"]
        for field, key in (("identity_ids", "identities"),
                           ("proof_ids", "proofs"), ("series_ids", "series")):
            echo[key] = list(echo.pop(field))
        return echo


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

def _new_item(kind: str, item_id: str, trials: int, **extra) -> Dict:
    """An item's report before its trials: ``ident.run_trials`` gives every
    kind its status, counts and first failure, and ``run`` its elapsed_s."""
    return dict(kind=kind, id=item_id, trials=trials, **extra)


def _verify_item(identity_id: str, config: RunConfig) -> Dict:
    desc = ident.get_identity(identity_id)
    ranges = ident.sampled_ranges(desc, config.n_max, config.m_max,
                                  config.r_max)
    if "n" in ranges:
        _note_n_cap(identity_id, ranges["n"][1], config)
    if desc.multisum and config.r_max >= 3:
        _progress("# %s: multi-sum verification up to r=%d"
                  % (identity_id, config.r_max))
    failure = None
    try:
        report = ident.verify(identity_id, config.trials, config.seed, ranges,
                              size_bound=config.max_abs)
    except ident.CounterexampleFound as exc:
        report, failure = exc.report, exc.report.counterexample
    except ident.RetryExhausted as exc:
        report, failure = exc.report, exc.failure
    return _new_item("identity", identity_id, config.trials,
                     status=report.status, succeeded=report.succeeded,
                     rejected=report.rejected,
                     point_rejections=report.point_rejections,
                     first_failure=failure)


def _certify_item(proof_id: str, config: RunConfig) -> Dict:
    cert = certs.get_certificate(proof_id)
    ranges = certs.check_ranges(cert, config.n_max, config.r_max)
    item = _new_item("certificate", proof_id, config.cert_trials,
                     checks=dict.fromkeys(certs.CHECKS, 0))
    if cert.multi and config.r_max >= 3:
        _progress("# %s: certificate sweep up to r=%d" % (proof_id, config.r_max))
    _note_n_cap(proof_id, ranges.sweep_n, config)
    if ranges.replay_n < ranges.sweep_n:
        _note_n_cap(proof_id, ranges.replay_n, config, "replay n")

    def judge(point, result) -> Optional[Dict]:
        counts, failure = result
        for key, value in counts.items():
            item["checks"][key] += value
        return failure

    item.update(ident.run_trials(
        item["trials"], config.seed, "cert:%s" % proof_id,
        lambda rng: certs.sample_certificate_point(
            cert, rng, config.max_abs, ranges.r),
        lambda point, rng: certs.check_point(cert, point, ranges), judge))
    return item


def _series_item(series_id: str, config: RunConfig) -> Dict:
    item = _new_item("series", series_id, config.series_trials,
                     order=config.order)

    def judge(symbols, residual) -> Optional[Dict]:
        if residual.is_zero():
            return None
        first_bad = next(i for i, c in enumerate(residual.coeffs) if c != 0)
        return {"symbols": {k: str(v) for k, v in sorted(symbols.items())},
                "first_nonzero_order": first_bad,
                "coefficient": str(residual.coeffs[first_bad])}

    item.update(ident.run_trials(
        item["trials"], config.seed, "series:%s" % series_id,
        lambda rng: {name: ident.random_rational(rng, config.max_abs)
                     for name in psers.SERIES[series_id].symbols},
        lambda symbols, rng: psers.infinite_identity_residual(
            series_id, symbols, config.order), judge))
    return item


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _resolve_selection(requested: Sequence[str], known: Sequence[str],
                       lookup: Callable[[str], object], what: str
                       ) -> Tuple[str, ...]:
    """The requested ids, or every known one if 'all' is among them; a
    ConfigError for an id that lookup does not know or that is repeated."""
    for i, name in enumerate(requested):
        if name in requested[:i]:
            raise ConfigError("%s %r given more than once" % (what, name))
        if name != "all":
            try:
                lookup(name)
            except KeyError:
                raise ConfigError("unknown %s %r (known: %s)"
                                  % (what, name, ", ".join(known))) from None
    if not requested or "all" in requested:
        return tuple(known)
    return tuple(requested)


def run(config: RunConfig) -> Tuple[int, Dict]:
    """Execute the configured checks; returns (exit_status, report)."""
    items: List[Dict] = []
    for command, item_ids, run_item in (
            ("verify", config.identity_ids, _verify_item),
            ("certify", config.proof_ids, _certify_item),
            ("series", config.series_ids, _series_item)):
        if config.command not in (command, "all"):
            continue
        for item_id in item_ids:
            start = time.monotonic()
            items.append(run_item(item_id, config))
            items[-1]["elapsed_s"] = round(time.monotonic() - start, 6)
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
            detail = "trials=%d/%d" % (item["succeeded"], item["trials"])
        elif item["kind"] == "certificate":
            detail = ("points=%d/%d residuals=%d" % (
                item["succeeded"], item["trials"],
                item["checks"]["term_recurrence"] + item["checks"]["telescoping"]))
        else:
            detail = "order=%d specializations=%d/%d" % (
                item["order"], item["succeeded"], item["trials"])
        detail += " rejects=%d" % item["point_rejections"]
        lines.append("%-4s %-42s %s (%.2fs)" % (
            item["status"], label, detail, item["elapsed_s"]))
        if item["first_failure"]:
            lines.append("     first failure: %s"
                         % json.dumps(item["first_failure"], sort_keys=True))
    s = report["summary"]
    lines.append("summary: %d total, %d passed, %d failed, %d errors"
                 % (s["total"], s["passed"], s["failed"], s["errors"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class Setting(NamedTuple):
    """A command's integer option: the ``RunConfig`` field it sets, its least
    value (None: any), its most, and a default other than the field's."""
    flag: str
    field: str
    floor: Optional[int]
    most: Optional[int] = None
    default: Optional[int] = None
    help: Optional[str] = None


_SEED = Setting("--seed", "seed", None)
# q is drawn from the rationals of size <= max_abs other than 0 and +-1
_MAX_ABS = Setting("--max-abs", "max_abs", 2,
                   help="numerator/denominator size bound for samples")

# every command's integer options, in --help order
SETTINGS: Dict[str, Tuple[Setting, ...]] = {
    "verify": (Setting("--trials", "trials", 1),
               Setting("--n-max", "n_max", 0),
               Setting("--m-max", "m_max", 0),
               Setting("--r-max", "r_max", 1, ident.MULTISUM_MAX_R),
               _SEED, _MAX_ABS),
    # every proof must check at least one recurrence: the deepest has order 2
    "certify": (Setting("--trials", "cert_trials", 1),
                Setting("--n-max", "n_max", 2, default=certs.REPLAY_N_MAX),
                Setting("--r-max", "r_max", 1, ident.MULTISUM_MAX_R),
                _SEED, _MAX_ABS),
    "series": (Setting("--trials", "series_trials", 1),
               Setting("--order", "order", 0),
               _SEED, _MAX_ABS._replace(floor=1)),
    "all": (Setting("--trials", "trials", 1),
            Setting("--cert-trials", "cert_trials", 1),
            Setting("--series-trials", "series_trials", 1),
            Setting("--n-max", "n_max", 2),
            Setting("--m-max", "m_max", 0),
            Setting("--r-max", "r_max", 1, ident.MULTISUM_MAX_R),
            Setting("--order", "order", 0),
            _SEED, _MAX_ABS),
}

# the fields in the order their values are checked (of several bad values,
# the first is reported), each with whether its message names the command
_CHECKS = {"max_abs": True, "order": False, "trials": False,
           "cert_trials": False, "series_trials": False,
           "n_max": True, "m_max": True, "r_max": True}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description="Exact verification of terminating q-series identities, "
                    "proof-certificate replay, and truncated-series checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", help="verify terminating identities")
    pv.add_argument("--id", dest="identity_ids", metavar="ID",
                    action="append", help="identity id or 'all' (repeatable)")
    pc = sub.add_parser("certify", help="replay proof certificates")
    pc.add_argument("--proof", dest="proof_ids", metavar="PROOF",
                    action="append", help="proof id or 'all' (repeatable)")
    ps = sub.add_parser("series", help="check limiting product identities")
    ps.add_argument("--id", dest="series_ids", metavar="ID",
                    action="append", help="series id or 'all' (repeatable)")
    sub.add_parser("all", help="run every registered check")
    for command, p in sub.choices.items():
        for s in SETTINGS[command]:
            p.add_argument(s.flag, dest=s.field, type=int, help=s.help,
                           metavar=s.flag[2:].upper().replace("-", "_"),
                           default=(getattr(RunConfig, s.field)
                                    if s.default is None else s.default))
        p.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text")
        p.add_argument("--out", default=None, help="write the report here "
                       "instead of standard output")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run's config; ConfigError for a value that would hang, crash or
    run no trial at all."""
    command = args.command
    rows = {s.field: s for s in SETTINGS[command]}
    values = {field: getattr(args, field) for field in rows}
    for field in [field for field in _CHECKS if field in rows]:
        s, value = rows[field], values[field]
        where = " for %s" % command if _CHECKS[field] else ""
        if value < s.floor:
            raise ConfigError("%s must be at least %d%s, got %d"
                              % (s.flag, s.floor, where, value))
        if s.most is not None and value > s.most:
            raise ConfigError("%s must be at most %d%s, got %d"
                              % (s.flag, s.most, where, value))
    for field, known, lookup, what in (
            ("identity_ids", ident.identity_ids(), ident.get_identity,
             "identity"),
            ("proof_ids", certs.certificate_ids(), certs.get_certificate,
             "proof"),
            ("series_ids", psers.SERIES_IDENTITIES, psers.SERIES.__getitem__,
             "series identity")):
        if command == "all" or hasattr(args, field):
            values[field] = _resolve_selection(
                getattr(args, field, None) or (), known, lookup, what)
    config = RunConfig(command=command, fmt=args.fmt, out=args.out, **values)
    # at --max-abs 2 only 6 rationals exist (+-1, +-2, +-1/2); a multi-index
    # certificate's x_1..x_r must avoid its symbols and q, up to 5 of them
    if (config.max_abs == 2 and config.r_max >= 2
            and any(certs.get_certificate(p).multi for p in config.proof_ids)):
        raise ConfigError("--max-abs 2 leaves too few x values for a "
                          "multi-index certificate at --r-max >= 2")
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        # opened before any item runs, so that a bad --out costs no work
        out = (open(config.out, "w") if config.out
               else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        print("error: cannot write --out %s: %s" % (args.out, exc.strerror),
              file=sys.stderr)
        return 2
    with out as handle:
        status, report = run(config)
        handle.write(format_report(report, config.fmt))
    return status


if __name__ == "__main__":
    sys.exit(main())
