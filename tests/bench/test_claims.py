"""The claims table: well-formed, and the one EXPERIMENTS.md lists."""

import re
from pathlib import Path

from repro.bench.claims import CLAIMS, FIGURES, judge

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_every_claim_has_a_unique_id_and_a_known_figure():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    assert {claim.figure for claim in CLAIMS} == set(FIGURES)
    assert all(claim.sentence for claim in CLAIMS)


def test_experiments_md_harness_lines_name_exactly_the_table_ids():
    """Edit a claim id in one place and this fails until the other follows,
    the way the API reference check keeps docs/API.md fresh."""
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    harness = re.findall(r"^\* Harness:.*?(?=^\* |^$)", text, re.M | re.S)
    listed = re.findall(r"`([a-z0-9]+(?:-[a-z0-9]+)+)`", "".join(harness))
    assert sorted(listed) == sorted(claim.id for claim in CLAIMS)


def test_table1_claims_hold_on_the_real_table():
    figure = FIGURES["table1"]
    verdicts = judge("table1", figure.compute())
    assert verdicts and all(verdict.ok for verdict in verdicts)
    assert figure.render(figure.compute()).startswith("Table I")
