"""CLI stdout at the benchmark's flags matches the golden copies in
perfbench/golden/ byte for byte (the files are only read here)."""

from pathlib import Path

import pytest
from conftest import invoke

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


@pytest.mark.parametrize("args, name", [
    (["report"], "report.json"),
    (["render"], "render.svg"),
    (["freeness", "--max-index", "6", "--max-syllables", "4"], "freeness.json"),
    (["intersect", "--max-index", "6", "--max-syllables", "3"], "intersect.json"),
])
def test_stdout_matches_golden(args, name):
    result = invoke(args)
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()
