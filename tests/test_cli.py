import copy
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qident import cli
from qident import identities as ident


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


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("QIDENT_SEED", "99")
    monkeypatch.setenv("QIDENT_TRIALS", "3")
    status, out, _ = run_main(capsys, [
        "verify", "--id", "lebesgue_finite", "--format", "json"])
    assert status == 0
    report = json.loads(out)
    assert report["config"]["seed"] == 99
    assert report["config"]["trials"] == 3
    monkeypatch.setenv("QIDENT_SEED", "not-a-number")
    status, _, err = run_main(capsys, ["verify", "--id", "lebesgue_finite"])
    assert status == 2
    assert "QIDENT_SEED" in err


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


def _row_builds():
    return sum(info[1] for info in ident.row_memo_info().values())


def test_row_builds_do_not_depend_on_earlier_runs():
    certify = cli.RunConfig(command="certify", proof_ids=("watson",),
                            cert_trials=1, seed=11, n_max=3)
    verify = cli.RunConfig(command="verify",
                           identity_ids=("watson_transform",), trials=5,
                           seed=11)
    builds = []
    for earlier in (None, certify, verify):
        if earlier is not None:
            cli.run(earlier)
        cli.run(certify)
        builds.append(_row_builds())
    # one point's rows all fit in the memo, so a run that kept an earlier
    # run's rows would build none of them again
    assert builds[0] > 0
    assert builds == [builds[0]] * 3


def test_series_spec_example(capsys):
    status, out, _ = run_main(capsys, [
        "series", "--id", "jacobi_triple", "--order", "60", "--trials", "5",
        "--seed", "3"])
    assert status == 0
    assert "PASS" in out and "jacobi_triple" in out


def test_failure_reported_with_exact_point(capsys, monkeypatch):
    desc = ident.get_identity("quintuple_finite")
    corrupt = replace(desc, rhs=lambda p: Fraction(2))
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


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--max-abs", "0"], "--max-abs"),
    (["verify", "--max-abs", "-5"], "--max-abs"),
    (["verify", "--max-abs", "1"], "--max-abs"),
    (["certify", "--max-abs", "1"], "--max-abs"),
    (["series", "--max-abs", "0"], "--max-abs"),
    (["series", "--order", "-1"], "--order"),
    (["series", "--trials", "0"], "--trials"),
    (["verify", "--trials", "0"], "--trials"),
    (["certify", "--trials", "0"], "--trials"),
    (["all", "--trials", "0"], "--trials"),
    (["all", "--cert-trials", "0"], "--cert-trials"),
    (["all", "--series-trials", "0"], "--series-trials"),
    (["all", "--order", "-1"], "--order"),
    (["verify", "--id", "jackson_8phi7", "--n-max", "-1"], "--n-max"),
    (["verify", "--id", "jacobi_finite", "--m-max", "-1"], "--m-max"),
    (["verify", "--id", "cr_prop_1", "--r-max", "0"], "--r-max"),
    (["certify", "--proof", "schlosser", "--r-max", "0"], "--r-max"),
    (["certify", "--proof", "jackson", "--n-max", "-1"], "--n-max"),
    (["certify", "--proof", "singh", "--n-max", "1"], "--n-max"),
    (["all", "--n-max", "1"], "--n-max"),
    (["all", "--m-max", "-1"], "--m-max"),
    (["all", "--r-max", "0"], "--r-max"),
])
def test_bad_values_exit_2(capsys, argv, flag):
    status, out, err = run_main(capsys, argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error: %s must be at least" % flag)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag, most", [
    (["verify", "--id", "cr_prop_1", "--r-max", "6"], "--r-max", 4),
    (["certify", "--proof", "schlosser", "--r-max", "9"], "--r-max", 3),
    (["all", "--r-max", "4"], "--r-max", 3),
])
def test_too_large_values_exit_2(capsys, argv, flag, most):
    status, out, err = run_main(capsys, argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error: %s must be at most %d" % (flag, most))
    assert "Traceback" not in err


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
