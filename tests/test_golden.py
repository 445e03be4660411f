"""CLI stdout matches golden copies byte for byte: at the benchmark's flags
the copies in perfbench/golden/ (only read here); for the deep radial path,
`construct --n-max 24` with theta products of about 2 100 bits, for the
figure's 24 nested disks, all but the first below float resolution,
`render --n-max 24`, for the orbit walk beyond the default depth,
`report --max-length 9` and, pairing half-length words at an even depth,
`report --max-length 10`, and for the reduced-product walk past the
benchmark's bounds, `freeness` and `intersect` at index 8 and 4 syllables,
and, pairing half-length symbol words of 3 and 2 syllables, `freeness` at
index 6 and 5 syllables, the copies in tests/golden/."""

from pathlib import Path

import pytest
from conftest import invoke

BENCH_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
OWN_GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("args, name", [
    (["report"], "report.json"),
    (["render"], "render.svg"),
    (["freeness", "--max-index", "6", "--max-syllables", "4"], "freeness.json"),
    (["intersect", "--max-index", "6", "--max-syllables", "3"], "intersect.json"),
    (["construct", "--n-max", "24"], "construct-24.json"),
    (["report", "--max-length", "9"], "report-L9.json"),
    (["freeness", "--max-index", "8", "--max-syllables", "4"], "freeness-8-4.json"),
    (["intersect", "--max-index", "8", "--max-syllables", "4"], "intersect-8-4.json"),
    (["render", "--n-max", "24"], "render-24.svg"),
    (["report", "--max-length", "10"], "report-L10.json"),
    (["freeness", "--max-index", "6", "--max-syllables", "5"], "freeness-6-5.json"),
])
def test_stdout_matches_golden(args, name):
    result = invoke(args)
    assert result.exit_code == 0
    golden = OWN_GOLDEN / name if (OWN_GOLDEN / name).exists() else BENCH_GOLDEN / name
    assert result.stdout_bytes == golden.read_bytes()
