"""qident benchmark: time to an exact PASS/FAIL verdict, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qident source tree; the program is imported from
``src/``.  Each workload repeats passes, each on its own input derived from
the seed, for ``--seconds`` seconds in one process with no threads.  Before
each pass a fixed reference loop is timed, and pass times are reported as
multiples of it (unit ``ref``): the machine's speed drifts by a third for
minutes at a time, and the ratio cancels most of that drift.  Every pass goes
through the correctness gate: every verdict is checked, and the report with
``elapsed_s`` removed must be byte-identical when an input repeats (pass 1
repeats pass 0) and between a traced pass and its untraced twin.  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are printed.  The last line of standard output is one JSON
object; the exit status is 0 only when every gate held.  See README.md for
why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

WORKLOADS = ("identities", "certificates", "series", "faults")

# Reserved for re-checking a claim after a change is written: never use it
# while developing or tuning a change.
HOLDOUT_SEED = 271828

HERE = Path(__file__).resolve().parent

# One sampled point per proof and one specialization per series identity (the
# CLI defaults are 10 and 5): at the defaults a run would hold only two or
# three passes, and its median would rest on them.
CERT_POINTS = 1
SERIES_POINTS = 1
# Proofs are certified at r = 1, not the CLI's r <= 3.  One schlosser point
# costs about 0.03 s at r = 1 and 1.5 s at r = 3, so with r drawn at random
# pass times split into clusters 60x apart and the median depends on the seed.
# Multi-sums at r <= 3 are measured on the identities workload.
CERT_R_MAX = 1

# Planted faults the harness is known to miss: at some cr_prop_2 points both
# sides are exactly 0, so multiplying the right side by q plants nothing.
# These misses are counted in ok_frac; a miss of any other identity fails
# the gate.
KNOWN_MISSES = frozenset({"cr_prop_2"})


@dataclass(frozen=True)
class Sizes:
    """Work per pass.  FULL is the benchmark; TINY serves the smoke test."""

    identity_trials: int = 50     # trials per identity, verify command
    cert_n_max: int = 6
    series_order: int = 60
    fault_seeds: int = 20         # derived seeds per identity on faults
    setup_samples: int = 15       # fresh interpreters timed for setup_s


FULL = Sizes()
TINY = Sizes(identity_trials=2, cert_n_max=3, series_order=8, fault_seeds=10,
             setup_samples=2)


class ProgramMissing(Exception):
    pass


def load_program(root: Path):
    """Import qident from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "qident" / "__init__.py").is_file():
        raise ProgramMissing("no qident sources under %s" % src)
    sys.path.insert(0, str(src))
    import qident
    if Path(qident.__file__).resolve().parent != src / "qident":
        raise ProgramMissing("imported qident from %s, not %s"
                             % (qident.__file__, src))
    return qident


def derive_seed(*parts) -> int:
    """A 63-bit seed from the parts.  Kept apart from qident's own seed
    derivation, so that no change to the program changes the inputs."""
    data = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big") >> 1


def clocks():
    """(wall, cpu) now; cpu is user + sys of this process and its children."""
    t = os.times()
    return (time.perf_counter(),
            time.process_time() + t.children_user + t.children_system)


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    item_times: List[float] = field(default_factory=list)
    item_ids: List[str] = field(default_factory=list)   # parallel to item_times
    items: int = 0       # items run (faults planted)
    ok: int = 0          # items PASS (faults caught)
    failed: int = 0      # operations that ended without a verdict
    digest: str = ""     # sha256 of the report without elapsed_s
    problems: List[str] = field(default_factory=list)
    missed: List[str] = field(default_factory=list)


def _strip_elapsed(value):
    if isinstance(value, dict):
        return {k: _strip_elapsed(v) for k, v in value.items()
                if k != "elapsed_s"}
    if isinstance(value, list):
        return [_strip_elapsed(v) for v in value]
    return value


def digest(report) -> str:
    """Digest of the report with elapsed_s removed: equal digests mean
    byte-identical reports."""
    text = json.dumps(_strip_elapsed(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def cli_workload(name: str, sizes: Sizes) -> Callable[..., PassResult]:
    """A pass is one ``cli.run`` plus its JSON report, as ``qident ... --format
    json`` does, with CLI defaults apart from the per-pass sizes."""
    from qident import certs, cli, identities, psers

    def config(seed: int):
        c = cli.RunConfig(command={"identities": "verify",
                                   "certificates": "certify",
                                   "series": "series"}[name], seed=seed)
        if name == "identities":
            c.identity_ids, c.trials = identities.identity_ids(), sizes.identity_trials
        elif name == "certificates":
            c.proof_ids, c.cert_trials = certs.certificate_ids(), CERT_POINTS
            c.n_max, c.r_max = sizes.cert_n_max, CERT_R_MAX
        else:
            c.series_ids = psers.SERIES_IDENTITIES
            c.series_trials, c.order = SERIES_POINTS, sizes.series_order
        return c

    def run_pass(seed: int, region=contextlib.nullcontext()) -> PassResult:
        cfg = config(seed)
        expected = list(cfg.identity_ids or cfg.proof_ids or cfg.series_ids)
        # cli.run prints progress lines to stderr
        with region, contextlib.redirect_stderr(io.StringIO()):
            wall0, cpu0 = clocks()
            status, report = cli.run(cfg)
            text = cli.format_report(report, "json")
            wall1, cpu1 = clocks()
        items = report["items"]
        parsed = json.loads(text)
        out = PassResult(wall=wall1 - wall0, cpu=cpu1 - cpu0,
                         item_times=[i["elapsed_s"] for i in items],
                         item_ids=[i["id"] for i in items],
                         items=len(items),
                         ok=sum(i["status"] == "PASS" for i in items),
                         failed=sum(i["status"] == "ERROR" for i in items),
                         digest=digest(parsed))
        if parsed != report:
            out.problems.append("JSON report differs from the report")
        if [i["id"] for i in items] != expected:
            out.problems.append("items %s, expected %s"
                                % ([i["id"] for i in items], expected))
        for item in items:
            if item["status"] != "PASS" or item["first_failure"] is not None:
                out.problems.append("%s %s: %s %s" % (
                    item["kind"], item["id"], item["status"],
                    json.dumps(item["first_failure"], sort_keys=True)))
        counts = {s: sum(i["status"] == s for i in items)
                  for s in ("PASS", "FAIL", "ERROR")}
        summary = report["summary"]
        if (summary != {"total": len(items), "passed": counts["PASS"],
                        "failed": counts["FAIL"], "errors": counts["ERROR"]}
                or status != (0 if counts["PASS"] == len(items) else 1)):
            out.problems.append("inconsistent summary %s / exit status %d"
                                % (summary, status))
        return out

    return run_pass


def faults_workload(sizes: Sizes, mutate: bool = True
                    ) -> Callable[..., PassResult]:
    """A pass plants a fault (right side times q) in every identity at
    ``fault_seeds`` derived seeds; each one-trial verify must raise
    CounterexampleFound.  Misses are counted, never filtered; a miss outside
    KNOWN_MISSES fails the gate."""
    from qident import identities as ident
    from qident.qcore import ParamPoint

    ids = ident.identity_ids()
    replayed = set()

    def run_pass(seed: int, region=contextlib.nullcontext()) -> PassResult:
        fault_seeds = [derive_seed(seed, "fault", j)
                       for j in range(sizes.fault_seeds)]
        outcomes = []   # (identity, seed, kind, report or message)
        out = PassResult()
        with region:
            wall0, cpu0 = clocks()
            for s in fault_seeds:
                for identity_id in ids:
                    start = time.perf_counter()
                    # keep the report, not the exception: its traceback
                    # would hold every frame of the call
                    try:
                        outcome = ("missed", ident.verify(
                            identity_id, 1, s, mutate_rhs=mutate))
                    except ident.CounterexampleFound as exc:
                        outcome = ("caught", exc.report)
                    except ident.RetryExhausted as exc:
                        outcome = ("exhausted", str(exc))
                    out.item_times.append(time.perf_counter() - start)
                    out.item_ids.append(identity_id)
                    outcomes.append((identity_id, s) + outcome)
            wall1, cpu1 = clocks()
        out.wall, out.cpu = wall1 - wall0, cpu1 - cpu0
        # a repeat must give a byte-identical report, so one replay suffices
        replay = seed not in replayed
        replayed.add(seed)

        record = hashlib.sha256()
        for identity_id, s, kind, report in outcomes:
            out.items += 1
            if kind == "caught":
                out.ok += 1
                cx = report.counterexample
                point = ParamPoint({k: Fraction(v) for k, v in cx["symbols"].items()},
                                   cx["indices"])
                genuine = report.status == "FAIL"
                if genuine and replay:
                    lhs, rhs = ident.eval_sides(identity_id, point)
                    genuine = lhs != rhs * point.sym("q")
                if not genuine:
                    out.problems.append("%s seed %d: counterexample %s does "
                                        "not replay" % (identity_id, s, cx))
            else:
                out.failed += kind == "exhausted"
                out.missed.append(identity_id)
            if kind != "exhausted":
                report = report.as_dict()
            record.update(digest([identity_id, s, kind, report]).encode())
        out.digest = record.hexdigest()
        for identity_id, n in sorted(Counter(out.missed).items()):
            if identity_id not in KNOWN_MISSES:
                out.problems.append("planted fault in %s missed %d times in "
                                    "%d seeds" % (identity_id, n,
                                                  len(fault_seeds)))
        return out

    return run_pass


def make_workload(name: str, sizes: Sizes) -> Callable[..., PassResult]:
    if name == "faults":
        return faults_workload(sizes)
    return cli_workload(name, sizes)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(root: Path) -> float:
    """Seconds a fresh interpreter spends on ``import qident, qident.cli``."""
    code = ("import time; t = time.perf_counter(); import qident, qident.cli; "
            "print(time.perf_counter() - t); print(qident.__file__)")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    seconds, location = done.stdout.splitlines()
    if Path(location).resolve().parent != (root / "src" / "qident").resolve():
        raise ProgramMissing("setup interpreter imported %s" % location)
    return float(seconds)


def measure_rss(root: Path, workload: str, seed: int, sizes: Sizes
                ) -> Tuple[float, str]:
    """Peak resident set, in MB, of a fresh interpreter that runs one pass on
    ``seed``, and that pass's report digest.  A child process, so that the
    figure is the program's and not what this run holds after many passes."""
    code = ("import resource, sys; sys.path.insert(0, %r); import run; "
            "run.load_program(run.Path(%r)); "
            "p = run.make_workload(%r, run.Sizes(**%r))(%d); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, p.digest)"
            % (str(HERE), str(root), workload, asdict(sizes), seed))
    done = subprocess.run([sys.executable, "-c", code], cwd=root,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    kib, pass_digest = done.stdout.split()
    return int(kib) / 1024, pass_digest


def environment(root: Path, seed: int) -> Dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qident").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": _commit(root), "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": " ".join(platform.uname()[i] for i in (0, 2, 4)),
            "loadavg": os.getloadavg(), "seed": seed,
            "holdout_seed": seed == HOLDOUT_SEED}


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference() -> Tuple[float, float]:
    """(wall, cpu) seconds of a fixed stdlib ``Fraction`` workload: truncated
    products of two 40-term series, the kind of arithmetic qident does.  It
    shares no code with qident, so a change to the program leaves it alone,
    while a slower machine slows it as it slows the passes.  Of four loops
    tried (this one, powers of a Fraction, and two big-int loops), this one
    tracked the drift of fixed passes best.  One run of about 55 ms, not the
    best of several, so that it averages over the same kind of stalls a pass
    does."""
    wall0, cpu0 = clocks()
    for _ in range(4):
        a = [Fraction(k * k - 7, 3 * k + 1) for k in range(40)]
        b = [Fraction(5 - k, 2 * k + 3) for k in range(40)]
        for _ in range(2):
            c = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(40)]
            a = [x / (1 + abs(x)) for x in c]
    wall1, cpu1 = clocks()
    return wall1 - wall0, cpu1 - cpu0


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes: Sizes = FULL, root: Optional[Path] = None,
                  run_pass: Optional[Callable] = None):
    """Run one workload; returns (result, notes) where result is the final
    JSON object and notes are human-readable lines for standard output."""
    root = root or Path.cwd()
    run_pass = run_pass or make_workload(workload, sizes)
    notes = ["env " + json.dumps(environment(root, seed), sort_keys=True)]
    if trace:
        import tracing
    digests: Dict[int, str] = {}
    every: List[PassResult] = []
    plains: List[PassResult] = []
    setup: List[float] = []
    if not trace:
        measure_setup(root)     # warm-up, so that bytecode caches are written
    refs = [reference()]       # refs[k] and refs[k + 1] bracket pass k
    layer_passes: List[Dict[str, float]] = []
    overheads: List[float] = []
    problems: List[str] = []
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while k < 3 or time.perf_counter() < deadline:
        s = derive_seed(seed, workload, "pass", max(k - 1, 0))  # 1 repeats 0
        results = {}
        for traced in ((k % 2 == 1, k % 2 == 0) if trace else (False,)):
            tracer = tracing.Tracer() if traced else None
            result = results[traced] = run_pass(
                s, tracer or contextlib.nullcontext())
            every.append(result)
            problems += result.problems
            if digests.setdefault(s, result.digest) != result.digest:
                problems.append("pass %d: %s report differs from an earlier "
                                "pass on the same input"
                                % (k, "traced" if traced else "untraced"))
            if traced:
                layer_passes.append(tracer.metrics())
        plains.append(results[False])
        refs.append(reference())
        # setup_s samples are spread over the run, not taken in one burst:
        # a fresh interpreter's import time drifts from one moment to the next
        due = start + len(setup) * seconds / sizes.setup_samples
        if (not trace and len(setup) < sizes.setup_samples
                and time.perf_counter() >= due):
            setup.append(measure_setup(root))
        if trace:
            overheads.append(results[True].wall / results[False].wall - 1)
        k += 1

    items = sum(p.items for p in every)
    result = {"correct": not problems, "attempted": items,
              "failed": sum(p.failed for p in every), "metrics": {}}
    metrics = result["metrics"]
    if trace:
        for name in tracing.per_layer_names()[:-1]:
            values = [layers[name] for layers in layer_passes]
            # times: median over traced passes; counts: the first traced
            # pass, so that they repeat exactly for a seed
            value = statistics.median(values) if name.endswith("_s") else values[0]
            metrics[name] = {"value": value, "unit": tracing.unit_of(name)}
        metrics["trace.overhead_frac"] = {"value": statistics.median(overheads),
                                          "unit": "frac"}
        notes.append("per-layer times and overhead: median of %d traced passes; "
                     "counts: first traced pass" % k)
    else:
        while len(setup) < sizes.setup_samples:
            setup.append(measure_setup(root))
        s = derive_seed(seed, workload, "pass", 0)
        rss_mb, rss_digest = measure_rss(root, workload, s, sizes)
        if rss_digest != digests[s]:
            problems.append("the peak-RSS pass's report differs from pass 0's")
        ref_wall = [(a[0] + b[0]) / 2 for a, b in zip(refs, refs[1:])]
        ref_cpu = [(a[1] + b[1]) / 2 for a, b in zip(refs, refs[1:])]
        per_item: Dict[str, List[float]] = {}
        for p, r in zip(plains, ref_wall):
            for item, t in zip(p.item_ids, p.item_times):
                per_item.setdefault(item, []).append(t / r)
        # each item's own median time over the run, so that items that
        # swap ranks from pass to pass do not move the result
        item_medians = [statistics.median(v) for v in per_item.values()]
        for name, value in (
                ("wall_rel", statistics.median(
                    p.wall / r for p, r in zip(plains, ref_wall))),
                ("cpu_rel", statistics.median(
                    p.cpu / r for p, r in zip(plains, ref_cpu))),
                ("item_p50_rel", statistics.median(item_medians)),
                ("item_max_rel", max(item_medians))):
            metrics[name] = {"value": value, "unit": "ref"}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        metrics["ok_frac"] = {"value": sum(p.ok for p in every) / items,
                              "unit": "frac"}
        notes.append("*_rel: median over %d passes of the pass's time over the "
                     "mean of the reference loop's times just before and "
                     "after it" % k)
        notes.append("in seconds: wall_s %.6g, cpu_s %.6g (medians over passes); "
                     "reference %.6g" % (
                         statistics.median(p.wall for p in plains),
                         statistics.median(p.cpu for p in plains),
                         statistics.median(ref_wall)))
        notes.append("setup_s: median of %d fresh interpreters spread over the "
                     "run; peak_rss_mb: "
                     "a fresh interpreter running pass 0 again" % len(setup))
    missed = Counter(m for p in every for m in p.missed)
    notes.append("passes %d, items %d, ok %d, missed %s"
                 % (len(every), items, sum(p.ok for p in every),
                    json.dumps(dict(sorted(missed.items())))))
    for name, entry in metrics.items():
        notes.append("%-32s %.6g %s" % (name, entry["value"], entry["unit"]))
    notes += ["GATE FAILED: " + problem for problem in problems[:20]]
    return result, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        load_program(root)
    except ProgramMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    result, notes = run_benchmark(args.workload, args.seed, args.seconds,
                                  bool(args.trace), root=root)
    for line in notes:
        print("# " + line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
