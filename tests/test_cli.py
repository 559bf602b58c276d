import collections
import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qident import cli
from qident import identities as ident
from qident.qcore import PoleError


def run_main(capsys, argv):
    status = cli.main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def without_timings(report):
    scrubbed = copy.deepcopy(report)
    for item in scrubbed["items"]:
        item["elapsed_s"] = 0.0
    return scrubbed


def test_verify_single_identity(capsys):
    status, out, _ = run_main(capsys, [
        "verify", "--id", "jackson_8phi7", "--trials", "20", "--seed", "42",
        "--n-max", "6"])
    assert status == 0
    assert "PASS" in out and "jackson_8phi7" in out
    assert "trials=20/20" in out


def test_verify_all_enumerates_18(capsys):
    status, out, _ = run_main(capsys, [
        "verify", "--id", "all", "--trials", "2", "--seed", "3",
        "--format", "json"])
    assert status == 0
    report = json.loads(out)
    ids = [item["id"] for item in report["items"]]
    assert len(ids) == 18
    assert report["summary"] == {"total": 18, "passed": 18,
                                 "failed": 0, "errors": 0}


def test_all_command_covers_every_registry(capsys):
    status, out, _ = run_main(capsys, [
        "all", "--trials", "1", "--cert-trials", "1", "--series-trials", "1",
        "--n-max", "2", "--order", "10", "--seed", "5", "--format", "json"])
    assert status == 0
    report = json.loads(out)
    kinds = {}
    for item in report["items"]:
        kinds.setdefault(item["kind"], []).append(item["id"])
    assert len(kinds["identity"]) == 18
    assert len(kinds["certificate"]) == 7
    assert len(kinds["series"]) == 6
    assert report["summary"]["total"] == 31


def test_unknown_identity_exits_2(capsys):
    status, _, err = run_main(capsys, ["verify", "--id", "euler_pentagonal"])
    assert status == 2
    assert "unknown identity" in err


@pytest.mark.parametrize("argv, what, known", [
    (["verify", "--id", "all", "--id", "bogus"], "identity",
     ident.identity_ids()),
    (["series", "--id", "all", "--id", "bogus"], "series identity",
     cli.psers.SERIES_IDENTITIES),
    (["certify", "--proof", "all", "--proof", "bogus"], "proof",
     cli.certs.certificate_ids()),
], ids=["verify", "series", "certify"])
def test_unknown_id_next_to_all_exits_2(capsys, argv, what, known):
    status, out, err = run_main(capsys, argv + ["--trials", "1"])
    assert (status, out) == (2, "")
    assert err.splitlines() == ["error: unknown %s 'bogus' (known: %s)"
                                % (what, ", ".join(known))]


@pytest.mark.parametrize("argv, line", [
    (["verify", "--id", "lebesgue_finite", "--id", "lebesgue_finite"],
     "error: identity 'lebesgue_finite' given more than once"),
    (["verify", "--id", "all", "--id", "jackson_8phi7", "--id", "all"],
     "error: identity 'all' given more than once"),
    (["series", "--id", "quintuple", "--id", "ab00", "--id", "quintuple"],
     "error: series identity 'quintuple' given more than once"),
    (["certify", "--proof", "singh", "--proof", "singh"],
     "error: proof 'singh' given more than once"),
], ids=["verify", "verify_all", "series", "certify"])
def test_repeated_id_exits_2(capsys, argv, line):
    status, out, err = run_main(capsys, argv + ["--trials", "1"])
    assert (status, out) == (2, "")
    assert err.splitlines() == [line]


def test_verify_draws_the_points_the_cli_draws(monkeypatch):
    """``verify`` with no ranges samples what the CLI samples at its default
    config: one range rule serves both."""
    drawn = {}
    healthy = ident.sample_point

    def recording(desc, *args):
        point = healthy(desc, *args)
        drawn.setdefault(desc.id, []).append(ident.serialize_point(point))
        return point

    monkeypatch.setattr(ident, "sample_point", recording)
    config = cli.RunConfig(command="verify",
                           identity_ids=ident.identity_ids())
    _, report = cli.run(config)
    by_cli, drawn = drawn, {}   # recording fills the new dict from here
    for item in report["items"]:
        got = ident.verify(item["id"], config.trials, config.seed)
        assert (got.succeeded, got.point_rejections) == \
            (item["succeeded"], item["point_rejections"])
    assert len(by_cli) == 18
    assert drawn == by_cli


def test_run_config_takes_known_keywords_and_keeps_class_defaults():
    config = cli.RunConfig(command="verify", trials=3)
    assert (config.trials, config.seed, cli.RunConfig.trials) == (3, 42, 20)
    config.identity_ids = ("jackson_8phi7",)     # as perfbench/run.py sets it
    assert config.echo() == {
        "command": "verify", "trials": 3, "seed": 42, "n_max": 6,
        "m_max": 4, "r_max": 3, "order": 60, "series_trials": 5,
        "cert_trials": 10, "max_abs": 1000, "identities": ["jackson_8phi7"],
        "proofs": [], "series": []}
    assert list(config.echo())[:2] == ["command", "trials"]
    with pytest.raises(TypeError):
        cli.RunConfig(command="verify", bogus=1)
    with pytest.raises(TypeError):
        cli.RunConfig(trials=3)


def test_import_loads_no_dataclass_machinery():
    # the package's classes are plain, so its import never reaches
    # dataclasses and what that module imports
    code = ("import sys, qident, qident.cli; print(sorted({'dataclasses', "
            "'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.split() == ["[]"]


def test_series_draws_each_entrys_symbols(capsys, monkeypatch):
    """The CLI draws exactly the symbols ``psers.SERIES`` lists for each
    series identity, in its order, and the residual there is zero."""
    calls = []
    healthy = cli.psers.infinite_identity_residual

    def recording(series_id, symbols, order):
        residual = healthy(series_id, symbols, order)
        calls.append((series_id, tuple(symbols), residual.is_zero()))
        return residual

    monkeypatch.setattr(cli.psers, "infinite_identity_residual", recording)
    status, _, _ = run_main(capsys, ["series", "--id", "all", "--trials", "2",
                                     "--order", "12", "--seed", "8"])
    assert status == 0
    assert calls == [(series_id, series.symbols, True)
                     for series_id, series in cli.psers.SERIES.items()
                     for _ in range(2)]


def test_determinism_modulo_timing(capsys):
    argv = ["verify", "--id", "jackson_8phi7", "--id", "cr_prop_2",
            "--trials", "4", "--seed", "11", "--format", "json"]
    status1, out1, _ = run_main(capsys, argv)
    status2, out2, _ = run_main(capsys, argv)
    assert status1 == status2 == 0
    r1 = without_timings(json.loads(out1))
    r2 = without_timings(json.loads(out2))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    status, out, _ = run_main(capsys, [
        "series", "--id", "jacobi_triple", "--order", "20", "--trials", "2",
        "--seed", "3", "--format", "json", "--out", str(out_path)])
    assert status == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["items"][0]["id"] == "jacobi_triple"
    assert report["items"][0]["status"] == "PASS"


@pytest.mark.parametrize("where, reason", [
    (lambda tmp: tmp / "missing" / "report.json", "No such file or directory"),
    (lambda tmp: tmp, "Is a directory"),
], ids=["missing_directory", "directory"])
def test_unwritable_out_exits_2_before_any_item(tmp_path, capsys, monkeypatch,
                                                 where, reason):
    def no_run(config):
        raise AssertionError("an item ran despite the unwritable --out")
    monkeypatch.setattr(cli, "run", no_run)
    out_path = where(tmp_path)
    status, out, err = run_main(capsys, [
        "series", "--id", "jacobi_triple", "--order", "5", "--trials", "1",
        "--out", str(out_path)])
    assert (status, out) == (2, "")
    assert err.splitlines() == [
        "error: cannot write --out %s: %s" % (out_path, reason)]


def test_certify_command(capsys):
    status, out, _ = run_main(capsys, [
        "certify", "--proof", "lebesgue", "--proof", "quintuple",
        "--trials", "3", "--n-max", "4", "--seed", "7", "--format", "json"])
    assert status == 0
    report = json.loads(out)
    for item in report["items"]:
        assert item["status"] == "PASS"
        assert item["checks"]["term_recurrence"] > 0
        assert item["checks"]["replay"] == 3


def test_certify_all_proofs(capsys):
    status, out, _ = run_main(capsys, [
        "certify", "--proof", "all", "--n-max", "5", "--trials", "10",
        "--seed", "7", "--format", "json"])
    assert status == 0
    report = json.loads(out)
    assert [i["id"] for i in report["items"]] == [
        "jackson", "watson", "bailey", "singh", "lebesgue", "quintuple",
        "schlosser"]
    assert report["summary"]["passed"] == 7


def test_row_builds_do_not_depend_on_earlier_runs(monkeypatch):
    builds = collections.Counter()
    for name in ("watson_row", "watson_rhs_row"):
        def counting(p, healthy=getattr(ident, name), name=name):
            builds[name] += 1
            return healthy(p)
        monkeypatch.setattr(ident, name, counting)
    certify = cli.RunConfig(command="certify", proof_ids=("watson",),
                            cert_trials=1, seed=11, n_max=3)
    verify = cli.RunConfig(command="verify",
                           identity_ids=("watson_transform",), trials=5,
                           seed=11)
    counts = []
    for earlier in (None, certify, verify):
        if earlier is not None:
            cli.run(earlier)
        before = sum(builds.values())
        cli.run(certify)
        counts.append(sum(builds.values()) - before)
    # rows are kept on the points a run makes, so no run reads a row an
    # earlier run built
    assert counts[0] > 0
    assert counts == [counts[0]] * 3


def test_series_spec_example(capsys):
    status, out, _ = run_main(capsys, [
        "series", "--id", "jacobi_triple", "--order", "60", "--trials", "5",
        "--seed", "3"])
    assert status == 0
    assert "PASS" in out and "jacobi_triple" in out


def test_failure_reported_with_exact_point(capsys, monkeypatch):
    desc = ident.get_identity("quintuple_finite")
    corrupt = desc._replace(rhs=lambda p: Fraction(2))
    monkeypatch.setitem(ident._REGISTRY, "quintuple_finite", corrupt)
    status, out, _ = run_main(capsys, [
        "verify", "--id", "quintuple_finite", "--trials", "5", "--seed", "1",
        "--format", "json"])
    assert status == 1
    report = json.loads(out)
    item = report["items"][0]
    assert item["status"] == "FAIL"
    point = item["first_failure"]
    assert "/" in point["symbols"]["z"] or point["symbols"]["z"].lstrip("-").isdigit()
    Fraction(point["symbols"]["z"])  # exact fraction, never a decimal
    assert report["summary"]["failed"] == 1


def _poles_first(count):
    """A plant: the healthy check, except that its first count calls raise
    PoleError."""
    def plant(healthy, kind):
        calls = []

        def planted(*args):
            calls.append(args)
            if len(calls) <= count:
                raise PoleError("planted pole")
            return healthy(*args)
        return planted
    return plant


# a wrong result of each kind's check, from its healthy result
_SPOIL = {"identity": lambda lhs: lhs + 1,
          "certificate": lambda result: (result[0], {"check": "planted"}),
          "series": lambda residual: cli.psers.QSeries(
              (1,) + residual.coeffs[1:])}


def _wrong_at(call):
    """A plant: the healthy check, except that its call-th call returns a
    wrong result."""
    def plant(healthy, kind):
        calls = []

        def planted(*args):
            calls.append(args)
            result = healthy(*args)
            return _SPOIL[kind](result) if len(calls) == call else result
        return planted
    return plant


def _plant(monkeypatch, kind, plant):
    """Replace the check of one item of the kind, none of whose points at
    seed 42 is a pole, by plant(healthy check, kind); returns the command
    line that runs the item."""
    if kind == "identity":
        desc = ident.get_identity("quintuple_finite")
        monkeypatch.setitem(ident._REGISTRY, "quintuple_finite", desc._replace(
            lhs=plant(desc.lhs, kind)))
        return ["verify", "--id", "quintuple_finite"]
    if kind == "certificate":
        monkeypatch.setattr(cli.certs, "check_point", plant(
            cli.certs.check_point, kind))
        return ["certify", "--proof", "lebesgue", "--n-max", "3"]
    monkeypatch.setattr(cli.psers, "infinite_identity_residual", plant(
        cli.psers.infinite_identity_residual, kind))
    return ["series", "--id", "quintuple", "--order", "10"]


CAP = ident.RETRY_CAP


@pytest.mark.parametrize("kind", ["identity", "certificate", "series"])
@pytest.mark.parametrize("plant, status, expected", [
    (_poles_first(1), 0, ("PASS", 3, 0, 1)),     # the first point is redrawn
    (_poles_first(CAP), 0, ("PASS", 2, 1, CAP)),  # the first trial is used up
    (_poles_first(3 * CAP), 1, ("ERROR", 0, 3, 3 * CAP)),  # every trial is
    (_wrong_at(2), 1, ("FAIL", 1, 0, 0)),      # the second trial fails
], ids=["redrawn", "one_exhausted", "all_exhausted", "second_fails"])
def test_every_kind_counts_poles_the_same_way(capsys, monkeypatch, kind,
                                              plant, status, expected):
    argv = _plant(monkeypatch, kind, plant)
    got_status, out, _ = run_main(capsys, argv + [
        "--trials", "3", "--seed", "42", "--format", "json"])
    item = json.loads(out)["items"][0]
    assert got_status == status
    assert (item["status"], item["succeeded"], item["rejected"],
            item["point_rejections"]) == expected
    if item["status"] == "ERROR":
        assert item["first_failure"] == {
            "error": "all 3 trials exhausted %d pole retries each" % CAP}
    elif item["status"] == "FAIL":
        assert item["first_failure"] is not None
    else:
        assert item["first_failure"] is None


def test_schlosser_progress_to_stderr(capsys):
    status, out, err = run_main(capsys, [
        "verify", "--id", "schlosser_cr", "--trials", "2", "--seed", "2",
        "--r-max", "3"])
    assert status == 0
    assert "schlosser_cr" in err
    assert "schlosser_cr" in out


@pytest.mark.parametrize("argv, item", [
    (["certify", "--proof", "schlosser", "--trials", "1"], "schlosser"),
    (["verify", "--id", "schlosser_cr", "--trials", "2"], "schlosser_cr"),
])
def test_n_cap_is_noted_on_stderr(capsys, argv, item):
    argv = argv + ["--r-max", "1", "--seed", "3", "--format", "json"]
    status, out, err = run_main(capsys, argv + ["--n-max", "9"])
    assert status == 0
    assert "# %s: n capped at 3 (--n-max 9)" % item in err.splitlines()
    capped = json.loads(out)
    status, out, err = run_main(capsys, argv + ["--n-max", "3"])
    assert status == 0
    assert "capped" not in err
    # the cap is a note only: the capped run checks exactly what n <= 3 does
    assert without_timings(capped)["items"] == \
        without_timings(json.loads(out))["items"]


def test_lebesgue_finite_2_selectable(capsys):
    status, out, _ = run_main(capsys, [
        "verify", "--id", "lebesgue_finite_2", "--trials", "3", "--seed", "4",
        "--format", "json"])
    assert status == 0
    report = json.loads(out)
    assert report["items"][0]["id"] == "lebesgue_finite_2"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--max-abs", "0"],
     "--max-abs must be at least 2 for verify, got 0"),
    (["verify", "--max-abs", "-5"],
     "--max-abs must be at least 2 for verify, got -5"),
    (["verify", "--max-abs", "1"],
     "--max-abs must be at least 2 for verify, got 1"),
    (["certify", "--max-abs", "1"],
     "--max-abs must be at least 2 for certify, got 1"),
    (["series", "--max-abs", "0"],
     "--max-abs must be at least 1 for series, got 0"),
    (["series", "--order", "-1"], "--order must be at least 0, got -1"),
    (["series", "--trials", "0"], "--trials must be at least 1, got 0"),
    (["verify", "--trials", "0"], "--trials must be at least 1, got 0"),
    (["certify", "--trials", "0"], "--trials must be at least 1, got 0"),
    (["all", "--trials", "0"], "--trials must be at least 1, got 0"),
    (["all", "--cert-trials", "0"], "--cert-trials must be at least 1, got 0"),
    (["all", "--series-trials", "0"],
     "--series-trials must be at least 1, got 0"),
    (["all", "--order", "-1"], "--order must be at least 0, got -1"),
    (["verify", "--id", "jackson_8phi7", "--n-max", "-1"],
     "--n-max must be at least 0 for verify, got -1"),
    (["verify", "--id", "jacobi_finite", "--m-max", "-1"],
     "--m-max must be at least 0 for verify, got -1"),
    (["verify", "--id", "cr_prop_1", "--r-max", "0"],
     "--r-max must be at least 1 for verify, got 0"),
    (["certify", "--proof", "schlosser", "--r-max", "0"],
     "--r-max must be at least 1 for certify, got 0"),
    (["certify", "--proof", "jackson", "--n-max", "-1"],
     "--n-max must be at least 2 for certify, got -1"),
    (["certify", "--proof", "singh", "--n-max", "1"],
     "--n-max must be at least 2 for certify, got 1"),
    (["all", "--n-max", "1"], "--n-max must be at least 2 for all, got 1"),
    (["all", "--m-max", "-1"], "--m-max must be at least 0 for all, got -1"),
    (["all", "--r-max", "0"], "--r-max must be at least 1 for all, got 0"),
    # of several bad values, the first in the order --max-abs, --order, the
    # trial counts, the --n-max/--m-max/--r-max floors is reported
    (["all", "--trials", "0", "--order", "-1"],
     "--order must be at least 0, got -1"),
    (["verify", "--trials", "0", "--n-max", "-1", "--max-abs", "0"],
     "--max-abs must be at least 2 for verify, got 0"),
    (["all", "--series-trials", "0", "--cert-trials", "0"],
     "--cert-trials must be at least 1, got 0"),
    (["all", "--r-max", "9", "--m-max", "-1", "--n-max", "1"],
     "--n-max must be at least 2 for all, got 1"),
    (["verify", "--id", "euler_pentagonal", "--trials", "0"],
     "--trials must be at least 1, got 0"),
])
def test_bad_values_exit_2(capsys, argv, message):
    status, out, err = run_main(capsys, argv)
    assert status == 2
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("argv, message", [
    (["verify", "--id", "cr_prop_1", "--r-max", "6"],
     "--r-max must be at most 4 for verify, got 6"),
    (["certify", "--proof", "schlosser", "--r-max", "9"],
     "--r-max must be at most 4 for certify, got 9"),
    (["all", "--r-max", "5"], "--r-max must be at most 4 for all, got 5"),
    # a floor is checked before the ceiling
    (["all", "--r-max", "5", "--m-max", "-1"],
     "--m-max must be at least 0 for all, got -1"),
])
def test_too_large_values_exit_2(capsys, argv, message):
    status, out, err = run_main(capsys, argv)
    assert status == 2
    assert out == ""
    assert err == "error: %s\n" % message


IDENTITIES = [
    "jackson_8phi7", "jackson_6phi5", "watson_transform", "vwp_transform",
    "bailey_10phi9", "singh_quadratic", "schlosser_cr", "schlosser_lemma_n1",
    "sch_8phi7_special", "cr_prop_1", "cr_prop_2", "lebesgue_finite",
    "jacobi_finite", "jacobi_prefactor_relation", "quintuple_finite",
    "quintuple_finite_mn", "quintuple_ccg", "andrews_jain"]
PROOFS = ["jackson", "watson", "bailey", "singh", "lebesgue", "quintuple",
          "schlosser"]
SERIES = ["jacobi_triple", "quintuple", "lebesgue_inf", "ab11", "ab00",
          "q_kummer"]
DEFAULT_ECHO = {"identities": [], "proofs": [], "series": [], "trials": 20,
                "cert_trials": 10, "series_trials": 5, "seed": 42,
                "n_max": 6, "m_max": 4, "r_max": 3, "order": 60,
                "max_abs": 1000}


@pytest.mark.parametrize("command, differences", [
    ("verify", {"identities": IDENTITIES}),
    ("certify", {"proofs": PROOFS, "n_max": 5}),
    ("series", {"series": SERIES}),
    ("all", {"identities": IDENTITIES, "proofs": PROOFS, "series": SERIES}),
])
def test_default_config_echo(command, differences):
    # the golden reports leave the config out, so a default that drifts
    # would change no other check
    args = cli.build_parser().parse_args([command])
    assert cli.config_from_args(args).echo() == dict(
        DEFAULT_ECHO, command=command, **differences)


def test_series_max_abs_1_runs(capsys):
    status, out, _ = run_main(capsys, [
        "series", "--id", "quintuple", "--max-abs", "1", "--order", "10",
        "--trials", "1"])
    assert status == 0
    assert "PASS" in out


def test_random_draws_reject_small_bounds():
    rng = random.Random(1)
    for bound in (0, -5):
        with pytest.raises(ValueError):
            ident.random_rational(rng, bound)
    with pytest.raises(ValueError):
        ident.random_q(rng, 1)
    assert abs(ident.random_rational(rng, 1)) == 1


def test_replay_cap_is_noted_on_stderr(capsys):
    argv = ["certify", "--proof", "jackson", "--trials", "1", "--seed", "3"]
    status, _, err = run_main(capsys, argv + ["--n-max", "6"])
    assert status == 0
    assert "# jackson: replay n capped at 5 (--n-max 6)" in err.splitlines()
    status, _, err = run_main(capsys, argv + ["--n-max", "5"])
    assert status == 0
    assert "capped" not in err


@pytest.mark.parametrize("argv", [
    ["certify", "--proof", "schlosser", "--max-abs", "2", "--r-max", "2"],
    ["certify", "--proof", "all", "--max-abs", "2", "--r-max", "3"],
    ["all", "--max-abs", "2"],
])
def test_multi_index_certificate_at_max_abs_2_is_refused(capsys, argv):
    # the x-vector would have to avoid up to 5 of the 6 rationals of size
    # <= 2; the check is made while the config is built, before any sampling
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(cli.ConfigError, match="--max-abs 2"):
        cli.config_from_args(args)
    status, out, err = run_main(capsys, argv)
    assert status == 2 and out == ""
    assert err.startswith("error: --max-abs 2") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["certify", "--proof", "jackson", "--max-abs", "2"],
    ["certify", "--proof", "schlosser", "--max-abs", "2", "--r-max", "1"],
    ["verify", "--id", "schlosser_cr", "--max-abs", "2", "--r-max", "4"],
])
def test_max_abs_2_is_kept_where_samples_fit(argv):
    args = cli.build_parser().parse_args(argv)
    assert cli.config_from_args(args).max_abs == 2


def test_identity_ranges_follow_the_index_names():
    config = cli.RunConfig(command="verify", n_max=6, m_max=4, r_max=2)
    ranges = {i: ident.sampled_ranges(ident.get_identity(i), config.n_max,
                                      config.m_max, config.r_max)
              for i in ident.identity_ids()}
    assert ranges["schlosser_cr"] == {"n": (0, ident.MULTISUM_MAX_N),
                                      "r": (1, 2)}
    assert ranges["schlosser_lemma_n1"] == {"r": (1, 2)}
    assert ranges["jacobi_prefactor_relation"] == {"n": (0, 6), "m": (0, 4)}
    assert ranges["jackson_8phi7"] == {"n": (0, 6)}
    for identity_id, got in ranges.items():
        assert set(got) <= set(ident.get_identity(identity_id).index_names)
