"""Traced passes: wrappers around calls into qident's public functions.

The wrappers are installed at the module attributes that callers actually
look up (``cli`` calls ``certs.term_recurrence_residual``, ``identities``
calls its own binding of ``qpoch``, and so on) and are removed again when the
``Tracer`` context exits, so an untraced pass runs the unmodified program.

Check-level calls record spans: name, start, end, parent span and item id.
Leaf primitives run hundreds of thousands of times per pass, so they record
only a call count, total time and self time (time minus nested leaf calls).
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional

from qident import certs, cli, hyper, identities, psers, qcore

MULTISUM_IDS = ("schlosser_cr", "cr_prop_1", "cr_prop_2", "schlosser_lemma_n1")

# Leaf primitive -> (attribute name, modules whose binding callers use).
LEAVES = {
    "qcore.qpoch": ("qpoch", (qcore, hyper, identities, certs)),
    "qcore.qpoch_multi": ("qpoch_multi", (qcore, hyper, identities, certs)),
    "qcore.qbinom": ("qbinom", (qcore, hyper, identities, certs)),
    "hyper.poch_ratio_sum": ("poch_ratio_sum", (hyper, identities)),
    "psers.poch_inf": ("poch_inf", (psers,)),
}
QCORE_LEAVES = ("qcore.qpoch", "qcore.qpoch_multi", "qcore.qbinom")

# Span name -> (module, attribute).
SPANS = {
    "cli.run": (cli, "run"),
    "cli.format": (cli, "format_report"),
    "identities.verify": (identities, "verify"),
    "certs.term_recurrence": (certs, "term_recurrence_residual"),
    "certs.telescoping": (certs, "telescoping_residual"),
    "certs.boundary": (certs, "boundary_check"),
    "certs.replay": (certs, "inductive_replay"),
    "certs.sample": (certs, "sample_certificate_point"),
    "psers.residual": (psers, "infinite_identity_residual"),
}
CERT_CHECKS = ("term_recurrence", "telescoping", "boundary", "replay")


def per_layer_names() -> List[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = ["qcore.qpoch_calls", "qcore.qpoch_self_s",
             "qcore.qpoch_multi_calls", "qcore.qpoch_multi_self_s",
             "qcore.qbinom_calls", "qcore.qbinom_s",
             "qcore.result_bits_p50", "qcore.result_bits_max",
             "hyper.poch_ratio_sum_calls", "hyper.poch_ratio_sum_s",
             "identities.verify_calls", "identities.verify_s",
             "identities.multisum_s", "identities.singlesum_s",
             "identities.trials_ok", "identities.point_rejections",
             "identities.accept_ratio", "identities.counterexamples"]
    for check in CERT_CHECKS:
        names += ["certs.%s_calls" % check, "certs.%s_s" % check]
    names += ["certs.sample_s", "certs.pole_rejections"]
    names += ["certs.item.%s_s" % p for p in certs.certificate_ids()]
    names += ["psers.residual_calls", "psers.residual_s", "psers.mul_calls",
              "psers.mul_s", "psers.poch_inf_calls", "psers.poch_inf_self_s",
              "psers.coeffs_checked"]
    names += ["psers.item.%s_s" % i for i in psers.SERIES_IDENTITIES]
    names += ["cli.run_s", "cli.self_s", "cli.format_s", "trace.overhead_frac"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("qcore.result_bits"):
        return "bits"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    return "count"


def _item_of(span_name: str, args) -> str:
    if span_name.startswith("cli.") or not args:
        return "pass"
    return str(getattr(args[0], "id", args[0]))


class Span:
    __slots__ = ("name", "item", "start", "end", "parent", "outcome")

    def __init__(self, name: str, item: str, start: float, parent: Optional[int]):
        self.name, self.item, self.start, self.parent = name, item, start, parent
        self.end = start
        self.outcome = None       # return value, or the exception raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that traces one pass; read the results after exit."""

    def __init__(self):
        self.spans: List[Span] = []
        self.leaves: Dict[str, List] = {}   # name -> [calls, total_s, self_s]
        self.result_bits: Counter = Counter()
        self._open: List[int] = []          # indices of open spans
        self._frames: List[float] = []      # nested-leaf time per open leaf call
        self._saved: List = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, (attr, modules) in LEAVES.items():
            original = getattr(modules[0], attr)
            wrapper = self._leaf(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        mul = self._leaf("psers.mul", psers.QSeries.__mul__)
        self._patch(psers.QSeries, "__mul__", mul)
        self._patch(psers.QSeries, "__rmul__", mul)
        for name, (module, attr) in SPANS.items():
            self._patch(module, attr, self._span(name, getattr(module, attr)))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _leaf(self, name: str, fn):
        stat = self.leaves.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        bits = self.result_bits if name in QCORE_LEAVES else None

        def wrapper(*args, **kwargs):
            frames.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = frames.pop()
                if frames:
                    frames[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - nested
            if bits is not None:
                bits[result.numerator.bit_length()
                     + result.denominator.bit_length()] += 1
            return result
        return wrapper

    def _span(self, name: str, fn):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            span = Span(name, _item_of(name, args), perf_counter(),
                        open_[-1] if open_ else None)
            open_.append(len(spans))
            spans.append(span)
            try:
                span.outcome = fn(*args, **kwargs)
                return span.outcome
            except Exception as exc:
                span.outcome = exc
                raise
            finally:
                span.end = perf_counter()
                open_.pop()
        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer counts and times of the traced pass."""
        m: Dict[str, float] = {}
        for name, calls_key, time_key, column in (
                ("qcore.qpoch", "qcore.qpoch_calls", "qcore.qpoch_self_s", 2),
                ("qcore.qpoch_multi", "qcore.qpoch_multi_calls",
                 "qcore.qpoch_multi_self_s", 2),
                ("qcore.qbinom", "qcore.qbinom_calls", "qcore.qbinom_s", 1),
                ("hyper.poch_ratio_sum", "hyper.poch_ratio_sum_calls",
                 "hyper.poch_ratio_sum_s", 1),
                ("psers.mul", "psers.mul_calls", "psers.mul_s", 1),
                ("psers.poch_inf", "psers.poch_inf_calls",
                 "psers.poch_inf_self_s", 2)):
            stat = self.leaves[name]
            m[calls_key], m[time_key] = stat[0], stat[column]
        bits = sorted(self.result_bits.elements())
        m["qcore.result_bits_p50"] = statistics.median_low(bits) if bits else 0
        m["qcore.result_bits_max"] = bits[-1] if bits else 0

        by_name: Dict[str, List[Span]] = {name: [] for name in SPANS}
        for span in self.spans:
            by_name[span.name].append(span)

        verify = by_name["identities.verify"]
        ok = rejections = points = caught = 0
        for span in verify:
            if isinstance(span.outcome, identities.CounterexampleFound):
                caught += 1
            report = getattr(span.outcome, "report", span.outcome)
            if isinstance(report, identities.VerificationReport):
                ok += report.succeeded
                rejections += report.point_rejections
                points += (report.point_rejections + report.attempted
                           - report.rejected)
        m["identities.verify_calls"] = len(verify)
        m["identities.verify_s"] = sum(s.duration for s in verify)
        m["identities.multisum_s"] = sum(s.duration for s in verify
                                         if s.item in MULTISUM_IDS)
        m["identities.singlesum_s"] = sum(s.duration for s in verify
                                          if s.item not in MULTISUM_IDS)
        m["identities.trials_ok"] = ok
        m["identities.point_rejections"] = rejections
        m["identities.accept_ratio"] = ok / points if points else 0.0
        m["identities.counterexamples"] = caught

        cert_spans = [s for name, spans in by_name.items()
                      if name.startswith("certs.") for s in spans]
        for check in CERT_CHECKS:
            spans = by_name["certs." + check]
            m["certs.%s_calls" % check] = len(spans)
            m["certs.%s_s" % check] = sum(s.duration for s in spans)
        m["certs.sample_s"] = sum(s.duration for s in by_name["certs.sample"])
        m["certs.pole_rejections"] = sum(
            isinstance(s.outcome, qcore.PoleError) for s in cert_spans)
        for proof in certs.certificate_ids():
            m["certs.item.%s_s" % proof] = sum(
                s.duration for s in cert_spans if s.item == proof)

        residuals = by_name["psers.residual"]
        m["psers.residual_calls"] = len(residuals)
        m["psers.residual_s"] = sum(s.duration for s in residuals)
        m["psers.coeffs_checked"] = sum(
            len(s.outcome.coeffs) for s in residuals
            if isinstance(s.outcome, psers.QSeries))
        for series_id in psers.SERIES_IDENTITIES:
            m["psers.item.%s_s" % series_id] = sum(
                s.duration for s in residuals if s.item == series_id)

        runs = by_name["cli.run"]
        run_ids = {i for i, s in enumerate(self.spans) if s.name == "cli.run"}
        children = sum(s.duration for s in self.spans if s.parent in run_ids)
        m["cli.run_s"] = sum(s.duration for s in runs)
        m["cli.self_s"] = m["cli.run_s"] - children
        m["cli.format_s"] = sum(s.duration for s in by_name["cli.format"])
        return m
