"""Smoke test of the benchmark ladder script in tools/."""

import importlib.util
import sys
from pathlib import Path

import pytest

LADDER = Path(__file__).resolve().parents[1] / "tools" / "ladder.py"


@pytest.fixture
def ladder(monkeypatch):
    # the script puts its checkout's src first on sys.path; undo that after
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_emit_lp_rung_measures_every_column(ladder):
    # the smallest wp3 row: a renamed or vanished stage fails here instead
    # of writing a 0 into the ladder
    row = ladder.emit_lp_row("wp3", 10, 1)
    for column in ladder.COLUMNS:
        assert row.get(column), column
    assert len(row["sha256"]) == 64


def test_the_ladder_refuses_a_missing_output_path(ladder, capsys):
    assert ladder.main([]) == 2
    assert capsys.readouterr().err.startswith("usage:")
