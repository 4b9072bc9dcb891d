"""Each golden output under tests/golden/ is what a fresh run writes, byte
for byte; `tests/golden/regenerate.py` rewrites them."""

import difflib

import pytest

from golden import regenerate


@pytest.mark.parametrize("run", sorted(regenerate.RUNS))
def test_run_matches_golden_files(run):
    stored = {path.name: path.read_bytes() for path in (regenerate.GOLDEN / run).iterdir()}
    assert stored
    fresh = regenerate.generate(run)
    assert sorted(fresh) == sorted(stored), f"{run}: a fresh run writes {sorted(fresh)}"
    for name, data in stored.items():
        if fresh[name] != data:
            diff = difflib.unified_diff(
                data.decode(errors="replace").splitlines(keepends=True),
                fresh[name].decode(errors="replace").splitlines(keepends=True),
                f"tests/golden/{run}/{name}", f"fresh {run}/{name}",
            )
            pytest.fail(f"{run}: {name} differs from the stored file\n{''.join(diff)}", pytrace=False)
