"""Tests for the paper-experiment harness: every table/figure regenerates,
and its cells meet every row of the paper's claims table."""

from dataclasses import replace
from functools import cache
from pathlib import Path

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    CLAIMS,
    EXPERIMENTS,
    check_claim,
    fig02_attention_share,
    run_all,
)


GOLDEN = Path(__file__).parent / "golden" / "experiments.txt"


class TestHarnessMechanics:
    def test_registry_covers_all_paper_elements(self):
        assert set(EXPERIMENTS) == {
            "fig02", "tab01", "fig07", "fig08", "fig12", "fig13", "fig14",
            "tab02", "tab02-split", "tab03", "tab04", "tab05",
        }

    def test_run_all_produces_formatted_tables(self):
        results = run_all()
        assert list(results) == list(ALL_EXPERIMENTS)
        for key, res in results.items():
            text = res.format()
            assert key in text
            assert len(res.rows) > 0
            assert all(len(r) == len(res.headers) for r in res.rows)

    def test_to_dict_roundtrip(self):
        res = fig02_attention_share()
        d = res.to_dict()
        assert d["id"] == "fig02"
        assert len(d["rows"]) == len(res.rows)

    def test_cli_output_matches_golden(self, capsys):
        """`python -m repro.experiments` prints every cell byte for byte as
        the committed golden; a pricing change shows up as its diff."""
        from repro.experiments.__main__ import main

        assert main([]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()


@cache
def _result(exp_id):
    """Each experiment with default arguments, run once per session."""
    return ALL_EXPERIMENTS[exp_id]()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_claim(claim):
    values, ok = check_claim(claim, _result(claim.exp))
    assert ok, f"{claim.id}: {values} (paper {claim.paper})"


def test_a_moved_cell_fails_its_claim():
    claim = next(c for c in CLAIMS if c.id == "tab03:speedups")
    result = _result("tab03")
    moved = replace(result, rows=[list(r) for r in result.rows])
    moved.rows[1][2] = "2.30x"
    assert check_claim(claim, result)[1] and not check_claim(claim, moved)[1]
