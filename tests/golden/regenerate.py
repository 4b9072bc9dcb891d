"""Rewrite the golden outputs stored beside this script.

    PYTHONPATH=src python tests/golden/regenerate.py

Each run's directory holds the files one CLI run writes, kept where they
hold only strings and integers: `search.json` and `solutions.csv` for each
committed coloring file, `counterexample.json`, and `transfer.json` with
the float leaves of its `transference` block dropped.  Its strings,
decimal-string integers and bools stay: |R|, |B|, the smoothing regime, the
class sizes and whether each link holds.  A coloring file is an
input: it is made once, by `make_coloring`, and only where it is missing,
so that `search` does not depend on numpy's random stream.  `transfer`
colors by its own seeded draw, so a numpy whose draw differs shows here as
a changed `transfer.json`.  `tests/test_golden.py` compares a fresh run with
each stored file, byte for byte; `git diff tests/golden/` after this script
shows what a change moved.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from polyprimelab import cli
from polyprimelab.coloring import make_coloring, save_coloring

GOLDEN = Path(__file__).resolve().parent

# coloring file -> make_coloring's arguments
COLORINGS = {
    "coloring-integers.txt": ("integers", 1000, 2, "random", 3),
    "coloring-primes.txt": ("primes", 5000, 3, "random", 3),
}

SEARCH = ["search", "--psi", "1,1,0", "--b0", "1", "--w0", "2", "--coloring"]
# run directory -> CLI argv
RUNS = {
    "search-integers": SEARCH + ["coloring-integers.txt"],
    "search-primes": SEARCH + ["coloring-primes.txt"],
    "counterexample": ["counterexample", "--psi", "6,0,0", "--b0", "1", "--w0", "1",
                       "--p", "3", "--n", "3000000"],
    "counterexample-p2": ["counterexample", "--psi", "4,0,0", "--b0", "1", "--w0", "2",
                          "--p", "2", "--n", "1000"],
    "transfer-default": ["transfer"],
    "transfer-fft": ["transfer", "--eta", "7/10"],
    "transfer-degree1": ["transfer", "--psi", "2,0", "--n", "300000"],
    "transfer-prime": ["transfer", "--variant", "prime-coloring", "--psi", "1,1,4",
                       "--b0", "1", "--w0", "1", "--w", "2:2,3:1,5:1", "--n", "600000"],
}


def _without_floats(block: dict) -> dict:
    """`block` with every float leaf dropped, at any depth."""
    return {k: _without_floats(v) if isinstance(v, dict) else v
            for k, v in block.items() if not isinstance(v, float)}


def generate(run: str) -> dict[str, bytes]:
    """The golden files of `run`, by name, from a fresh CLI run in a
    temporary directory; a coloring path is read from this directory."""
    argv = [str(GOLDEN / a) if a in COLORINGS else a for a in RUNS[run]]
    with tempfile.TemporaryDirectory() as out:
        if cli.main(argv + ["--out", out]):
            raise RuntimeError(f"{' '.join(RUNS[run])} failed")
        files = {path.name: path.read_bytes() for path in Path(out).iterdir()}
    if "transfer.json" in files:
        report = json.loads(files["transfer.json"])
        report["transference"] = _without_floats(report["transference"])
        files["transfer.json"] = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    return files


def main() -> int:
    for name, args in COLORINGS.items():
        if not (GOLDEN / name).exists():
            save_coloring(make_coloring(*args), GOLDEN / name)
    for run in RUNS:
        (GOLDEN / run).mkdir(exist_ok=True)
        for stale in (GOLDEN / run).iterdir():
            stale.unlink()
        for name, data in generate(run).items():
            (GOLDEN / run / name).write_bytes(data)
            print(f"wrote tests/golden/{run}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
