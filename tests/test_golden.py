"""Each golden output under tests/golden/ is what a fresh run writes, byte
for byte; `tests/golden/regenerate.py` rewrites them."""

import difflib

import numpy as np
import pytest

from golden import regenerate
from polyprimelab import cli, experiments
from polyprimelab.counting import chain_spectra, triple_count
from polyprimelab.spectral import DensityFunction, build_poly_prime_measure


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


@pytest.mark.parametrize("run", sorted(run for run, argv in regenerate.RUNS.items()
                                       if argv[0] == "transfer" and "prime-coloring" not in argv))
def test_integer_raw_count_matches_triple_count(run):
    # an integer class's raw count is its exact unweighted count; on each
    # golden config it is the class's triple count to 1e-12
    cfg = experiments.config_from_sources(None, cli._overrides(cli._build_parser().parse_args(
        regenerate.RUNS[run])))
    ctx = cfg.context()
    dens = experiments._dense_class(cfg, ctx)
    raw = chain_spectra(dens, build_poly_prime_measure(ctx))[3]["raw_count"]
    indicator = DensityFunction.on_support(ctx.N, dens.members, np.ones(len(dens.members)))
    want = triple_count(indicator, indicator, build_poly_prime_measure(ctx)).real
    assert raw == pytest.approx(want, rel=1e-12)
