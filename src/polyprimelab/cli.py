"""Command-line front end: verify | search | counterexample | transfer | spectrum.

A setting is declared once, on its `ExperimentConfig` field, and the setting
flags are built from those fields: every config key but `trend_n` and
`trend_w` is also a flag.  Flags are spelled in full, so `search`'s
`--coloring` is never taken for `--coloring-rule`.  Flags override
config-file values and go through the config file's parsers, so a bad value
gets the same message either way.
Reports land in the output directory as deterministic JSON (integers as
decimal strings); `search`'s hits as `solutions.csv`, and `spectrum`'s
arrays as exact `.npy` files.

Exit codes: 0 success; 1 bad input met at run time, infeasible scale or a
failed `verify` check; 2 usage or config error, a setting outside its fixed
range included (a constant `psi`, `--n 0`, `--w0 0`, `--eps 1/2`, ...);
3 a broken internal invariant (RuntimeError, a sampled `transfer` solution
that fails to lift, or a `counterexample` partition that holds a
monochromatic solution; in the last two cases the report is still
written); 4 out of memory.  Each error, a usage error included,
prints one `error:` line to stderr; a failed `verify` lists its checks on
stdout instead.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    SETTINGS,
    config_from_sources,
    parse_setting,
    run_counterexample,
    run_search,
    run_spectrum,
    run_transfer,
    run_verify,
    write_report,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """A usage error prints one `error:` line and exits 2; the subcommand
    parsers are built from this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyprimelab",
        description="Experiments on monochromatic x + y = psi(z) with z from a prime progression",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("verify", "check the run's configuration; nonzero exit on failure"),
        ("search", "search a coloring file for monochromatic solutions"),
        ("counterexample", "build the blocking partition and verify emptiness"),
        ("transfer", "run the full transference pipeline"),
        ("spectrum", "report-only diagnostics; save the measure and its spectra as .npy"),
    ]:
        p = sub.add_parser(name, help=desc, allow_abbrev=False)
        p.add_argument("--config", help="key-value config file")
        for key, f in SETTINGS.items():
            if f.metadata["flag"]:
                p.add_argument(f.metadata["flag"], dest=key, help=f.metadata["help"])
        if name == "search":
            p.add_argument("--coloring", dest="coloring_file", required=True, help="coloring file to search")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    """Every setting flag given, parsed as its config-file key would be."""
    given = vars(args)
    return dict(parse_setting(key, given[key]) for key in SETTINGS if given.get(key) is not None)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = config_from_sources(args.config, _overrides(args))
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out_dir = cfg.out
    try:
        if args.command == "verify":
            ok, report = run_verify(cfg)
            write_report(report, os.path.join(out_dir, "verify.json"))
            for name, entry in sorted(report["checks"].items()):
                status = "pass" if entry["pass"] else "FAIL"
                print(f"{status}  {name}  {entry['info']}")
            print("all checks passed" if ok else "FAILURES present")
            return 0 if ok else 1
        if args.command == "search":
            sols, report = run_search(
                cfg, args.coloring_file, os.path.join(out_dir, "solutions.csv")
            )
            write_report(report, os.path.join(out_dir, "search.json"))
            print(f"{report['status']}: {len(sols)} solution(s)")
            return 0
        if args.command == "counterexample":
            report = run_counterexample(cfg)
            write_report(report, os.path.join(out_dir, "counterexample.json"))
            print(f"empty: {report['empty']} across {3 * cfg.p} classes up to n = {cfg.n}")
            if not report["empty"]:
                raise RuntimeError(
                    f"the blocking partition holds {report['solutions_found']} monochromatic solution(s)"
                )
            return 0
        if args.command == "transfer":
            report = run_transfer(cfg)
            write_report(report, os.path.join(out_dir, "transfer.json"))
            print(
                f"N = {report['context']['N']}, dense class size = "
                f"{report['dense_class']['size']}, lifted = {len(report['lifted_solutions'])}"
            )
            if report["lifting_failures"]:
                raise RuntimeError(f"{report['lifting_failures']} sampled solution(s) failed to lift")
            return 0
        if args.command == "spectrum":
            report = run_spectrum(cfg, out_dir)
            write_report(report, os.path.join(out_dir, "spectrum.json"))
            print(
                f"mass = {report['measure_summary']['mass']:.6f}, "
                f"minor-arc ratio = {report['minor_arc_decay']['ratio']}"
            )
            return 0
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"error: invariant violated: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"error: out of memory: {str(e) or 'allocation failed'}", file=sys.stderr)
        return 4
    return 2


if __name__ == "__main__":
    sys.exit(main())
