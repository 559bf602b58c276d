"""Golden reports: one fixed ``qident all`` configuration, pinned across
commits.

Each fixture under ``tests/data/`` holds the ``items`` and ``summary`` of one
``cli.run`` with every ``elapsed_s`` set to 0; the ``config`` echo is left
out so that adding or removing a config key does not invalidate it.  The
``max_abs=3`` run lands on poles in most identities and in several proofs,
so it pins where ``PoleError`` is raised as well as every verdict.

Regenerate (only when a report change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import pytest

from qident import certs, cli, identities, psers

DATA = Path(__file__).parent / "data"
MAX_ABS = (1000, 3)


def golden_config(max_abs: int) -> cli.RunConfig:
    return cli.RunConfig(
        command="all",
        identity_ids=identities.identity_ids() + ("lebesgue_finite_2",),
        proof_ids=certs.certificate_ids(),
        series_ids=tuple(psers.SERIES_IDENTITIES),
        trials=5, cert_trials=4, series_trials=1, seed=42,
        n_max=4, m_max=2, r_max=2, order=20, max_abs=max_abs)


def golden_report(max_abs: int) -> str:
    _, report = cli.run(golden_config(max_abs))
    for item in report["items"]:
        item["elapsed_s"] = 0.0
    body = {"items": report["items"], "summary": report["summary"]}
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def fixture_path(max_abs: int) -> Path:
    return DATA / ("golden_all_max_abs_%d.json" % max_abs)


@pytest.mark.parametrize("max_abs", MAX_ABS)
def test_report_matches_golden(max_abs):
    assert golden_report(max_abs) == fixture_path(max_abs).read_text()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for bound in MAX_ABS:
        fixture_path(bound).write_text(golden_report(bound))
