"""Each golden output under tests/golden/ is what a fresh run writes, byte
for byte; `tests/golden/regenerate.py` rewrites them."""

import pytest

from golden import regenerate


@pytest.mark.parametrize("run", sorted(regenerate.RUNS))
def test_run_matches_golden_files(run):
    stored = {path.name: path.read_bytes() for path in (regenerate.GOLDEN / run).iterdir()}
    assert stored
    assert regenerate.generate(run) == stored
