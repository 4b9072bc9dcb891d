import argparse
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import lambda_weight
import polyprimelab
from polyprimelab import coloring, counting, experiments
from polyprimelab.cli import main
from polyprimelab.coloring import make_coloring, save_coloring
from polyprimelab.experiments import (
    SETTINGS,
    ExperimentConfig,
    config_from_sources,
    parse_config_file,
    run_counterexample,
    run_search,
    run_spectrum,
    run_transfer,
    run_verify,
    _stringify,
    write_report,
)
from polyprimelab.numtheory import check_progression
from polyprimelab.polynomials import IntPolynomial
from polyprimelab.spectral import (
    DensityFunction,
    bohr_set,
    build_poly_prime_measure,
    large_spectrum,
    smooth,
    smoothing_regime,
)
from polyprimelab.wtrick import WTrickContext

BLOCKING = ["--psi", "6,0,0", "--b0", "1", "--w0", "1", "--p", "3"]


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# demo config\n"
            "psi = 1,1,0\n"
            "b0 = 1\n"
            "w0 = 2\n"
            "m = 2\n"
            "variant = integer-coloring\n"
            "w = 2:1,3:1\n"
            "n = 30000\n"
            "eta = 1/4\n"
            "eps = 1/8\n"
            "rho = 4,64\n"
            "seed = 7\n"
        )
        cfg = config_from_sources(path)
        assert cfg.psi == (1, 1, 0) and cfg.w == {2: 1, 3: 1}
        assert str(cfg.eta) == "1/4" and cfg.seed == 7

    def test_w_level_shorthand(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("w = 3\n")
        assert config_from_sources(path).w == {2: 1, 3: 1}

    def test_empty_config_rejected(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="empty config"):
            parse_config_file(path)

    def test_unknown_key_with_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 100\nbogus = 3\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_config_file(path)

    def test_w_config_key_unknown(self, tmp_path, capsys):
        # the smooth modulus has one config key, `w`
        path = tmp_path / "old.cfg"
        path.write_text("w_config = 2:1\n")
        assert main(["transfer", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 1: unknown key 'w_config'\n"

    def test_arc_b_config_key_unknown(self, tmp_path, capsys):
        # the arc exponent set no output and was removed with its flag
        path = tmp_path / "old.cfg"
        path.write_text("arc_b = 10\n")
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: line 1: unknown key 'arc_b'\n"
        assert not list(tmp_path.glob("*.json"))

    def test_flag_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("n = 100\nseed = 1\n")
        cfg = config_from_sources(path, {"n": 2000})
        assert cfg.n == 2000 and cfg.seed == 1

    @pytest.mark.parametrize(
        "flag,key,text",
        [("--eta", "eta", "1/0"), ("--eps", "eps", "1/0"), ("--n", "n", "1e6"),
         ("--eta", "eta", "1e400"), ("--eta", "eta", "1e-400")],
    )
    def test_bad_flag_value_matches_config_file(self, tmp_path, capsys, flag, key, text):
        # a flag gets the config file's parser and the same one-line error;
        # an eta that overflows a float, or rounds to 0.0, is refused there too
        assert main(["transfer", flag, text, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for {key!r}") and err.count("\n") == 1
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {text}\n")
        assert main(["transfer", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == err.replace("error: ", "error: line 1: ", 1)
        assert not (tmp_path / "transfer.json").exists()

    def test_prime_named_twice_in_w_rejected(self, tmp_path, capsys):
        # `2:1,2:3` must not silently keep the last exponent of 2
        assert main(["transfer", "--w", "2:1,2:3,3:1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad value for 'w': prime 2 named twice\n"
        path = tmp_path / "bad.cfg"
        path.write_text("w = 2:1,2:3,3:1\n")
        assert main(["transfer", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == err.replace("error: ", "error: line 1: ", 1)
        assert not (tmp_path / "transfer.json").exists()

    @pytest.mark.parametrize("text", ["2:1,3:1,4:0", "2:1,3:1,4:1"])
    def test_composite_w_key_rejected(self, tmp_path, capsys, text):
        # every key of w must be prime, one with exponent 0 too
        assert main(["verify", "--w", text, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: smooth modulus key 4 is not prime\n"
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize("key", ["4000000000000000000000000000", "3317044064679887385961981"])
    def test_w_key_beyond_primality_test_rejected(self, tmp_path, capsys, key):
        # a key that is_prime cannot decide is refused in one line naming w
        assert main(["verify", "--w", f"2:1,3:1,{key}:0", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: smooth modulus key {key} in 'w' is too large to test for primality\n"
        )
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize("text", ["2:-1", "-3", "2:1,3:-5"])
    def test_negative_w_rejected(self, tmp_path, capsys, text):
        # a negative exponent or level must not be dropped in silence
        assert main(["transfer", "--w", text, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad value for 'w': negative") and err.count("\n") == 1
        assert not (tmp_path / "transfer.json").exists()

    @pytest.mark.parametrize("key,text", [("trend_w", "-3,1"), ("trend_n", "-5")])
    def test_negative_trend_rejected(self, tmp_path, capsys, key, text):
        # a negative level or scale must not run as W = 1 or a clamped n
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {text}\n")
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 1: bad value for {key!r}: negative")
        assert err.count("\n") == 1
        assert not (tmp_path / "spectrum.json").exists()

    @pytest.mark.parametrize(
        "text,ok",
        [("5", False), ("0,0,5", False), ("-1,1,0", False), ("0,-1,0", False),
         ("0,1,1,0", True), ("[2,0]", True)],
    )
    def test_psi_range(self, text, ok):
        # degree >= 1 and a positive leading coefficient, leading zeros trimmed
        if ok:
            want = tuple(int(c) for c in text.strip("[]").split(","))
            assert experiments.parse_setting("psi", text) == want
            return
        with pytest.raises(ValueError) as e:
            experiments.parse_setting("psi", text)
        assert str(e.value) == (
            "bad value for 'psi': requires degree >= 1 and a positive leading coefficient"
        )

    @pytest.mark.parametrize("command", ["verify", "search", "counterexample", "transfer"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        # a negative seed is a bad setting on every command, refused before any stage runs
        extra = ["--coloring", str(tmp_path / "absent.txt")] if command == "search" else []
        assert main([command, "--seed", "-1", *extra, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: bad value for 'seed': negative value -1\n"
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("command", ["verify", "search", "counterexample", "transfer", "spectrum"])
    @pytest.mark.parametrize("text", ["-1", "0", "4,-64", "nan", "inf"])
    def test_rho_not_positive_and_finite_rejected(self, tmp_path, capsys, command, text):
        # every command refuses the setting before any stage runs from a
        # config file, and spectrum, which reads it, from a flag alike; the
        # flag is unknown to the other commands
        extra = ["--coloring", str(tmp_path / "absent.txt")] if command == "search" else []
        bad = next(x for x in text.split(",") if not 0 < float(x) < math.inf)
        message = f"bad value for 'rho': {float(bad)} is not positive and finite\n"
        if command == "spectrum":
            assert main([command, "--rho", text, *extra, "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == f"error: {message}"
        else:
            with pytest.raises(SystemExit) as exc:
                main([command, "--rho", text, *extra, "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert capsys.readouterr().err == f"error: unrecognized arguments: --rho {text}\n"
        path = tmp_path / "bad.cfg"
        path.write_text(f"rho = {text}\n")
        assert main([command, "--config", str(path), *extra, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: line 1: {message}"
        assert not list(tmp_path.glob("*.json")) and not list(tmp_path.glob("*.npy"))

    @pytest.mark.parametrize("command", ["transfer", "search"])
    def test_bad_variant_same_for_flag_and_config_file(self, tmp_path, capsys, command):
        # both forms exit 2 with one line, before any context or coloring is
        # read; search, which does not read the setting, has no such flag
        extra = ["--coloring", str(tmp_path / "absent.txt")] if command == "search" else []
        message = "bad value for 'variant': 'bogus' is not one of integer-coloring, prime-coloring\n"
        if command == "transfer":
            assert main([command, "--variant", "bogus", *extra, "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == f"error: {message}"
        else:
            with pytest.raises(SystemExit) as exc:
                main([command, "--variant", "bogus", *extra, "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert capsys.readouterr().err == "error: unrecognized arguments: --variant bogus\n"
        path = tmp_path / "bad.cfg"
        path.write_text("variant = bogus\n")
        assert main([command, "--config", str(path), *extra, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: line 1: {message}"
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("command", ["verify", "transfer"])
    @pytest.mark.parametrize(
        "text,message",
        [
            ("bogus", "unknown coloring rule 'bogus'"),
            ("residue:0", "residue modulus must be >= 1"),
            ("interval:a", "interval cut 'a' is not an integer"),
            (f"interval:1,{-(2**63) - 1}", f"interval cut {-(2**63) - 1} does not fit in int64"),
        ],
    )
    def test_bad_coloring_rule_rejected(self, tmp_path, capsys, command, text, message):
        # a malformed rule is a bad setting, refused before any stage runs
        assert main([command, "--coloring-rule", text, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: bad value for 'coloring': {message}\n"
        assert captured.out == ""
        path = tmp_path / "bad.cfg"
        path.write_text(f"coloring = {text}\n")
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: line 1: bad value for 'coloring': {message}\n"
        assert not list(tmp_path.glob("*.json"))


# One bad value per setting, by field name; a field that has none is named
# in NO_BAD_VALUE instead, so a new field must be declared in one of them.
BAD_VALUES = {
    "psi": "1,x,0",
    "b0": "one",
    "w0": "2.5",
    "m": "0",
    "variant": "bogus",
    "w": "2:-1",
    "n": "1e6",
    "eta": "0",
    "eps": "1/2",
    "rho": "-1",
    "seed": "-1",
    "coloring": "residue:0",
    "p": "4",
    "trend_n": "-5",
    "trend_w": "-3,1",
}
NO_BAD_VALUE = {"out"}  # any text names a directory
# values that parse but lie outside a fixed range, for fields whose entry
# above does not parse
OUT_OF_RANGE = {"psi": "5", "n": "0", "w0": "0"}


class TestBadValues:
    def test_every_field_declared(self):
        names = {f.name for f in fields(ExperimentConfig)}
        assert set(BAD_VALUES) | NO_BAD_VALUE == names
        assert not set(BAD_VALUES) & NO_BAD_VALUE

    @pytest.mark.parametrize("command", ["verify", "search", "counterexample", "transfer", "spectrum"])
    def test_refused_when_parsed(self, tmp_path, capsys, command):
        # each bad value ends in exit 2 and one line naming its key before
        # any stage runs: from a flag the command takes, else from a file,
        # where every key is checked; a flag the command does not take is
        # an unrecognized argument, whatever its value
        extra = []
        if command == "search":
            path = tmp_path / "col.txt"
            save_coloring(make_coloring("integers", 50, 2, "random", 1), path)
            extra = ["--coloring", str(path)]
        out = tmp_path / "out"
        for f, text in [
            (f, values[f.name])
            for values in (BAD_VALUES, OUT_OF_RANGE)
            for f in fields(ExperimentConfig)
            if f.name in values
        ]:
            key, flag = f.name, f.metadata["flag"]
            if flag and command in f.metadata["commands"]:
                args, prefix = [f"{flag}={text}"], ""
            else:
                if flag:
                    with pytest.raises(SystemExit) as exc:
                        main([command, f"{flag}={text}", *extra, "--out", str(out)])
                    assert exc.value.code == 2, key
                    err = capsys.readouterr().err
                    assert err == f"error: unrecognized arguments: {flag}={text}\n"
                cfg = tmp_path / "bad.cfg"
                cfg.write_text(f"{key} = {text}\n")
                args, prefix = ["--config", str(cfg)], "line 1: "
            assert main([command, *args, *extra, "--out", str(out)]) == 2, key
            err = capsys.readouterr().err
            assert err.startswith(f"error: {prefix}bad value for {key!r}: "), err
            assert err.count("\n") == 1
            assert not out.exists()


# (option strings, destination, help) of every flag a command may take
SETTING_FLAGS = [
    (("--b0",), "b0", None),
    (("--coloring-rule",), "coloring", "random | residue:<q> | interval:<cuts>"),
    (("--config",), "config", "key-value config file"),
    (("--eps",), "eps", "Bohr radius as a rational 'p/q'"),
    (("--eta",), "eta", "spectrum threshold as a rational 'p/q'"),
    (("--m",), "m", "number of colors"),
    (("--n",), "n", "ambient scale"),
    (("--out",), "out", "output directory"),
    (("--p",), "p", "blocking prime (counterexample)"),
    (("--psi",), "psi", "polynomial coefficients, highest degree first"),
    (("--rho",), "rho", "comma list of restriction exponents"),
    (("--seed",), "seed", "master seed (recorded in reports)"),
    (("--variant",), "variant", "integer-coloring | prime-coloring"),
    (("--w",), "w", "smooth modulus: level like '3' or exponents '2:1,3:2'"),
    (("--w0",), "w0", None),
    (("-h", "--help"), "help", "show this help message and exit"),
]
# the settings each command reads, besides `out` (README's table)
_CONTEXT = {"psi", "b0", "w0", "seed", "m", "variant", "w", "n", "eta", "eps"}
READS = {
    "verify": _CONTEXT | {"coloring"},
    "search": {"psi", "b0", "w0", "seed"},
    "counterexample": {"psi", "b0", "w0", "seed", "p", "n"},
    "transfer": _CONTEXT | {"coloring"},
    "spectrum": _CONTEXT | {"rho", "trend_n", "trend_w"},
}
COMMANDS = list(READS)


def subparser(command: str) -> argparse.ArgumentParser:
    from polyprimelab.cli import _build_parser

    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


class TestFlagInventory:
    def test_declaration_matches_table(self):
        assert experiments.COMMANDS == tuple(COMMANDS)
        for f in fields(ExperimentConfig):
            readers = {c for c in COMMANDS if f.name in READS[c] | {"out"}}
            assert set(f.metadata["commands"]) == readers, f.name

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("verify", []),
            ("search", [(("--coloring",), "coloring_file", "coloring file to search")]),
            ("counterexample", []),
            ("transfer", []),
            ("spectrum", []),
        ],
    )
    def test_every_command_takes_every_setting_flag(self, command, extra):
        # each subcommand exposes the flags of the settings it reads, and
        # only those, with their destinations and help texts
        actions = subparser(command)._actions
        got = sorted((tuple(a.option_strings), a.dest, a.help) for a in actions)
        declared = {
            name for name, f in SETTINGS.items() if command in f.metadata["commands"]
        } | {"config", "help"}
        want = [flag for flag in SETTING_FLAGS if flag[1] in declared]
        assert got == sorted(want + extra)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unread_flag_is_unrecognized(self, tmp_path, monkeypatch, capsys, command):
        # argparse refuses every flag of a setting the command does not
        # read: exit 2, one stderr line, and no file written
        monkeypatch.chdir(tmp_path)
        extra = ["--coloring", "absent.txt"] if command == "search" else []
        unread = [opts[0] for opts, dest, _ in SETTING_FLAGS if dest in SETTINGS
                  and dest not in READS[command] | {"out"}]
        assert len(unread) == {"verify": 2, "search": 9, "counterexample": 7,
                               "transfer": 2, "spectrum": 2}[command]
        for flag in unread:
            with pytest.raises(SystemExit) as exc:
                main([command, flag, "1", *extra])
            assert exc.value.code == 2, flag
            assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 1\n"
        assert not list(tmp_path.iterdir())


# two valid values of every setting, for the settings a command does not read
OTHER_VALUES = {
    "m": ("2", "3"),
    "variant": ("integer-coloring", "prime-coloring"),
    "w": ("2:1,3:1", "2:2"),
    "n": ("3000", "5000"),
    "eta": ("1/4", "1/3"),
    "eps": ("1/8", "1/5"),
    "rho": ("4,64", "3"),
    "coloring": ("random", "residue:3"),
    "p": ("3", "5"),
    "trend_n": ("2003", "1009,2003"),
    "trend_w": ("1,2,3", "2"),
}


class TestUnreadSettings:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_value_changes_no_output(self, tmp_path, capsys, command):
        # a config file may hold every key; a key the command does not read
        # changes neither its report nor any other output file
        unread = [f.name for f in fields(ExperimentConfig)
                  if f.name not in READS[command] | {"out"}]
        assert set(unread) <= set(OTHER_VALUES)
        base, extra = "n = 3000\n", []
        if command == "counterexample":
            base = "psi = 6,0,0\nb0 = 1\nw0 = 1\np = 3\nn = 2000\n"
        elif command == "search":
            path = tmp_path / "col.txt"
            save_coloring(make_coloring("integers", 200, 2, "random", 1), path)
            base, extra = "psi = 1,1,0\n", ["--coloring", str(path)]
        for key in unread:
            outputs = []
            for i, value in enumerate(OTHER_VALUES[key]):
                cfg, out = tmp_path / f"{key}{i}.cfg", tmp_path / f"{key}{i}"
                cfg.write_text(f"{base}{key} = {value}\n")
                code = main([command, "--config", str(cfg), *extra, "--out", str(out)])
                files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                outputs.append((code, capsys.readouterr(), files))
            assert outputs[0] == outputs[1], key
            assert outputs[0][0] == 0 and outputs[0][2], key


class TestExactFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample", "--coloring", "x.txt", *BLOCKING, "--n", "100"],
            ["transfer", "--coloring", "residue:3"],
        ],
        ids=["counterexample-file", "transfer-rule"],
    )
    def test_prefix_of_a_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        # --coloring is search's file flag, not an abbreviation of --coloring-rule
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --coloring" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_search_coloring_flag_is_the_file(self):
        from polyprimelab.cli import _build_parser

        args = _build_parser().parse_args(["search", "--coloring", "x.txt"])
        assert args.coloring_file == "x.txt" and "coloring" not in vars(args)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["transfer", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
            (["counterexample", "--coloring", "x.txt"], "unrecognized arguments: --coloring x.txt"),
            ([], "the following arguments are required: command"),
            (["spectrum", "--arc-B", "10"], "unrecognized arguments: --arc-B 10"),
        ],
        ids=["unknown-flag", "abbreviated-flag", "missing-subcommand", "removed-arc-B"],
    )
    def test_one_stderr_line(self, tmp_path, monkeypatch, capsys, argv, message):
        # no usage line before the error, on the main parser or a subcommand's
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())


class TestVerifyCommand:
    def test_default_passes(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_pass"] is True
        # B = {0}: the smoothed measure is the measure, which the info says;
        # each info shows the measured value against its bound
        checks = report["checks"]
        assert checks["spectral.smoothing-mass"]["info"] == (
            "smoothing_mass: measured=0 <= bound=1e-09, regime=identity"
        )
        # (1/8)^3649 * 10007 underflows a float: the bound is shown as its log10
        assert checks["spectral.bohr-bound"]["info"] == "bohr_measure: measured=1 >= bound=10^-3649"
        assert checks["wtrick.context-invariants"]["info"] == "6 invariants hold"
        assert report["version"]
        assert report["config"]["n"] == "30000"

    def test_corrupted_context_fails_named_invariant(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        build = ExperimentConfig.context

        def corrupt(cfg):
            # K and kappa = 1/(10^4 K m) stay consistent, so only the
            # recomputed product K breaks
            ctx = build(cfg)
            k = ctx.K * 7
            return dataclasses.replace(ctx, K=k, kappa=Fraction(1, 10**4 * k * ctx.num_colors))

        monkeypatch.setattr(ExperimentConfig, "context", corrupt)
        ok, report = run_verify(ExperimentConfig())
        assert not ok
        assert report["checks"]["wtrick.context-invariants"] == {
            "info": "k-product: K=7 vs 1", "pass": False
        }
        assert main(["verify", "--out", str(tmp_path)]) == 1
        assert "FAIL  wtrick.context-invariants  k-product: K=7 vs 1\n" in capsys.readouterr().out

    def test_next_prime_modulus_fails_n_in_interval(self, tmp_path, monkeypatch, capsys):
        # N = 10009 is prime and N W <= 4n, but 10007 is the least prime
        # above 2n/W = 10000
        build = ExperimentConfig.context
        monkeypatch.setattr(ExperimentConfig, "context", lambda cfg: replace(build(cfg), N=10009))
        assert main(["verify", "--out", str(tmp_path)]) == 1
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        assert checks["wtrick.context-invariants"] == {
            "info": "n-in-interval: N=10009, 2n/W=10000", "pass": False
        }
        assert "FAIL  wtrick.context-invariants" in capsys.readouterr().out

    def test_bohr_failure_recorded_under_its_own_name(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("Bohr bound violated: |B| = 1 < eps^|R| * N = (1/8)^2 * 10007")

        monkeypatch.setattr("polyprimelab.counting.bohr_set", fail)
        assert main(["verify", "--out", str(tmp_path)]) == 1
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        assert checks["spectral.measure-well-defined"] == {"info": "M=40", "pass": True}
        assert checks["spectral.bohr-bound"] == {
            "info": "Bohr bound violated: |B| = 1 < eps^|R| * N = (1/8)^2 * 10007",
            "pass": False,
        }
        assert checks["spectral.smoothing-mass"] == {"info": "not reached", "pass": False}

    def test_prime_coloring_checks_its_class(self, tmp_path):
        # the prime class stands in for the integer pigeonhole check: its
        # measure's mass against 1/(3 m K), and the lift of its Z_N solutions
        args = ["--variant", "prime-coloring", "--psi", "1,1,4", "--b0", "1", "--w0", "1",
                "--w", "2:2,3:1,5:1", "--n", "600000", "--out", str(tmp_path)]
        assert main(["verify", *args]) == 0
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        assert len(checks) == 8
        assert checks["coloring.dense_prime_class"] == {
            "info": "class_mass: measured=0.256569 >= bound=0.166667", "pass": True
        }
        # the measure's Bohr bound and the class's, each against its bound
        assert checks["spectral.bohr-bound"]["info"] == (
            "bohr_measure: measured=1 >= bound=10^-12730.2; "
            "bohr_class: measured=20011 >= bound=10^3.39818"
        )
        assert checks["counting.lifting"] == {"info": "50 solutions lifted", "pass": True}

    def test_light_prime_class_fails(self, tmp_path, monkeypatch):
        real = counting.build_prime_coloring_measure

        def light(a_set):
            f = real(a_set)  # held on the members, as the chain reads it
            return DensityFunction.on_support(f.modulus, f.points, f.weights / 2)

        monkeypatch.setattr(counting, "build_prime_coloring_measure", light)
        args = ["--variant", "prime-coloring", "--psi", "1,1,4", "--b0", "1", "--w0", "1",
                "--w", "2:2,3:1,5:1", "--n", "600000", "--out", str(tmp_path)]
        assert main(["verify", *args]) == 1
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        assert [name for name, c in checks.items() if not c["pass"]] == [
            "coloring.dense_prime_class"
        ]
        assert checks["coloring.dense_prime_class"]["info"] == (
            "class_mass: measured=0.128285 >= bound=0.166667"
        )

    def test_empty_config_usage_error(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_broken_smoothing_fails(self, tmp_path, monkeypatch):
        # at the default config B = {0} runs no transform; at eta = 7/10
        # (N = 10007, |R| = 5, |B| = 621) the measure takes the transform path
        real = counting.bohr_set

        def doubled(*args):
            b = real(*args)  # held on B, as smooth reads it
            return DensityFunction.on_support(b.modulus, b.points, 2 * b.weights)

        monkeypatch.setattr(counting, "bohr_set", doubled)
        assert main(["verify", "--eta", "7/10", "--out", str(tmp_path)]) == 1
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        assert [name for name, c in checks.items() if not c["pass"]] == [
            "spectral.smoothing-mass"
        ]
        info = checks["spectral.smoothing-mass"]["info"]
        assert info.startswith("smoothing_mass: measured=") and info.endswith("regime=fft")
        # b's spectrum doubles, so smoothing by b twice scales the mass by 4
        measured = float(info.split("measured=")[1].split(" ")[0])
        assert measured > 2 and "<= bound=1e-09" in info

    def test_checks_the_configured_coloring(self, tmp_path):
        # the class verify checks is the one transfer uses at the same config
        args = ["--coloring-rule", "residue:3", "--out", str(tmp_path)]
        assert main(["verify", *args]) == 0
        assert main(["transfer", *args]) == 0
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        dense = json.loads((tmp_path / "transfer.json").read_text())["dense_class"]
        assert dense["size"] == "4994"
        assert checks["coloring.pigeonhole"] == {
            "info": "dense_class: measured=4994 >= bound=1250.88", "pass": True
        }

    def test_scale_error_recorded_under_the_dense_class(self, tmp_path):
        # n = 200 is too small for the dense class: the stages after it do not run
        assert main(["verify", "--n", "200", "--out", str(tmp_path)]) == 1
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        assert len(checks) == 8
        assert checks["spectral.measure-well-defined"] == {"info": "M=3", "pass": True}
        assert checks["coloring.pigeonhole"] == {
            "info": "n/(mKW) - psi(W) <= 0 at n = 200", "pass": False
        }
        for name in ("spectral.bohr-bound", "spectral.smoothing-mass", "counting.lifting"):
            assert checks[name] == {"info": "not reached", "pass": False}

    def test_lifting_failure_fails_the_check(self, tmp_path, monkeypatch):
        # a failed lift is a broken invariant: the first one ends the stage,
        # filed under its own check with the error's text
        from polyprimelab.counting import LiftingError

        calls = []

        def fail(*args):
            calls.append(args)
            raise LiftingError("lift failed: 1 + 2 != psi(3)")

        monkeypatch.setattr(experiments, "lift_solution", fail)
        assert main(["verify", "--out", str(tmp_path)]) == 1
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        assert [name for name, c in checks.items() if not c["pass"]] == ["counting.lifting"]
        assert len(calls) == 1
        assert checks["counting.lifting"]["info"] == "lift failed: 1 + 2 != psi(3)"


class TestSearchCommand:
    def test_monochrome_example(self, tmp_path):
        col = make_coloring("integers", 12, 1, "random", 0)
        path = tmp_path / "mono.txt"
        save_coloring(col, path)
        code = main(
            ["search", "--coloring", str(path), "--psi", "1,1,0", "--b0", "1",
             "--w0", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = (tmp_path / "solutions.csv").read_text().strip().splitlines()
        assert rows[0] == "color,x,y,z"
        assert "1,2,10,3" in rows

    def test_blocking_instance_none_found(self, tmp_path):
        from polyprimelab.coloring import blocking_partition

        part = blocking_partition(IntPolynomial((6, 0, 0)), 1, 1, 3, 2000)
        path = tmp_path / "blocking.txt"
        save_coloring(part, path)
        sols, report = run_search(
            config_from_sources(None, {"psi": (6, 0, 0), "b0": 1, "w0": 1}), path
        )
        assert len(sols) == 0 and report["status"] == "none-found"

    @pytest.mark.parametrize("rows", [0, 1, 2 * coloring._ROW_BLOCK + 3])
    def test_csv_bytes_match_csv_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        sols = rng.integers(0, 10**12, size=(rows, 4), dtype=np.int64)
        experiments.write_solutions_csv(sols, tmp_path / "blocks.csv")
        with open(tmp_path / "writer.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["color", "x", "y", "z"])
            writer.writerows(sols.tolist())
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "writer.csv").read_bytes()

    def test_malformed_coloring_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("integers 3 2 rule\n1 1\nnot-a-pair\n3 1\n")
        code = main(
            ["search", "--coloring", str(path), "--out", str(tmp_path)]
        )
        assert code == 1

    @pytest.mark.parametrize("element", ["99999999999999999999999", "0", "2"])
    def test_element_outside_domain_rejected(self, tmp_path, capsys, element):
        path = tmp_path / "outside.txt"
        path.write_text(f"integers 1 2 random\n{element} 1\n")
        assert main(["search", "--coloring", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: line 2: element {element} outside 1..1\n"

    @pytest.mark.parametrize("domain", ["integers", "primes"])
    def test_header_n_beyond_the_file_rejected_before_the_domain(
        self, tmp_path, monkeypatch, capsys, domain
    ):
        # three lines cannot color a domain of n = 10^12, and the domain
        # (8 TB of int64 for the integers) must never be built to find out
        def never(*args, **kwargs):
            raise AssertionError("domain built from an unbacked header")

        monkeypatch.setattr("polyprimelab.coloring._domain_elements", never)
        path = tmp_path / "huge.txt"
        path.write_text(f"{domain} {10**12} 2 random\n2 1\n3 2\n5 1\n")
        assert main(["search", "--coloring", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: coloring is not total over its declared domain\n"

    def test_non_utf8_byte_reported_by_line(self, tmp_path, capsys):
        # one 0xff byte at the start of line 3001, offset 19,916: past the
        # text decoder's first chunk, so the decoder's own position is not it
        path = tmp_path / "col.txt"
        save_coloring(make_coloring("integers", 4999, 2, "random", 1), path)
        data = bytearray(path.read_bytes())
        assert data.count(b"\n") == 5000 and data[19916 - 1 : 19916 + 5] == b"\n3000 "
        data[19916] = 0xFF
        path.write_bytes(bytes(data))
        assert main(["search", "--coloring", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: line 3001: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )

    def test_optimized_interpreter_same_solutions(self, tmp_path):
        # the search's exact re-check must not live in an assert that -O strips
        col = make_coloring("integers", 400, 2, "random", 3)
        path = tmp_path / "col.txt"
        save_coloring(col, path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(polyprimelab.__file__)))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        csvs = []
        for flags in ([], ["-O"]):
            out = tmp_path / ("opt" if flags else "plain")
            subprocess.run(
                [sys.executable, *flags, "-m", "polyprimelab.cli", "search",
                 "--coloring", str(path), "--psi", "1,1,0", "--b0", "1", "--w0", "2",
                 "--out", str(out)],
                check=True, env=env, capture_output=True,
            )
            csvs.append((out / "solutions.csv").read_bytes())
        assert csvs[0] == csvs[1]
        assert csvs[0].count(b"\n") > 100


class TestErrorExitCodes:
    TRANSFER = ["transfer", "--n", "30000", "--seed", "5"]
    SEARCH = ["search", "--psi", "1,1,0", "--b0", "1", "--w0", "2"]

    @pytest.mark.parametrize(
        "target,error,code",
        [
            ("polyprimelab.counting.bohr_set", RuntimeError("Bohr bound violated"), 3),
            ("polyprimelab.wtrick.select_bp", RuntimeError("residue scan exhausted"), 3),
            ("polyprimelab.wtrick.compute_M", RuntimeError("cutoff search diverged"), 3),
            ("polyprimelab.experiments.build_context", RuntimeError("invariants violated"), 3),
            ("polyprimelab.experiments.build_poly_prime_measure", MemoryError(), 4),
        ],
    )
    def test_failing_transfer_stage(self, tmp_path, monkeypatch, capsys, target, error, code):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(target, fail)
        assert main(self.TRANSFER + ["--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "transfer.json").exists()

    def test_search_verification_failure(self, tmp_path, monkeypatch, capsys):
        from polyprimelab.counting import SearchVerificationError

        def fail(*args, **kwargs):
            raise SearchVerificationError("(2, 10, 3) fails x != y, x + y = psi(z)")

        col = make_coloring("integers", 12, 1, "random", 0)
        path = tmp_path / "mono.txt"
        save_coloring(col, path)
        monkeypatch.setattr("polyprimelab.experiments.find_monochromatic", fail)
        assert main(self.SEARCH + ["--coloring", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_search_recheck_rejects_bad_row(self, tmp_path, monkeypatch, capsys):
        # widen every candidate window by one element, so that x = psi(z)/2 = y
        # enters as a hit row (at z = 2: 3 + 3 = psi(2)) and must fail x != y
        real = np.searchsorted

        def widened(a, v, *args, **kwargs):
            i = real(a, v, *args, **kwargs)
            return (i[0], i[1] + 1) if isinstance(v, tuple) else i

        col = make_coloring("integers", 12, 1, "random", 0)
        path = tmp_path / "mono.txt"
        save_coloring(col, path)
        monkeypatch.setattr(np, "searchsorted", widened)
        out = tmp_path / "out"
        assert main(self.SEARCH + ["--coloring", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "error: invariant violated: (3, 3, 2) fails x != y, x + y = psi(z)\n"
        assert not (out / "solutions.csv").exists() and not (out / "search.json").exists()


class TestUnliftableContext:
    @pytest.mark.parametrize("command", ["verify", "transfer", "spectrum"])
    def test_refused_with_one_line(self, tmp_path, capsys, command):
        # K = 24 does not divide psi_{b,W} = 12x^2 at W = 2, so no Z_N solution
        # lifts: the context build refuses the configuration, naming w
        out = tmp_path / "out"
        argv = ["--psi", "6,0,0", "--b0", "1", "--w0", "1", "--w", "2:1", "--n", "30000"]
        assert main([command, *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: no solution lifts at the smooth modulus W = 2 from 'w': K = 24 does not "
            "divide 12, the coefficient of x^2 in psi_{b,W}; raise the exponents in 'w'\n"
        )
        assert not out.exists()


class TestInvalidProgression:
    @pytest.mark.parametrize("command", ["search", "counterexample"])
    @pytest.mark.parametrize(
        "b0,w0,message",
        [
            ("1", "0", "requires w >= 1, got w=0"),
            ("1", "-1", "requires w >= 1, got w=-1"),
            ("2", "4", "gcd(2, 4) != 1"),
        ],
    )
    def test_rejected_with_one_line(self, tmp_path, capsys, command, b0, w0, message):
        # no w0*z + b0 is prime, so an answer would be vacuous; w0 < 1 is
        # outside w0's fixed range, so it is refused when parsed, and the
        # library's own progression check refuses it too
        extra = ["--p", "3", "--n", "100"]
        if command == "search":
            path = tmp_path / "col.txt"
            save_coloring(make_coloring("integers", 200, 2, "random", 1), path)
            extra = ["--coloring", str(path)]
        out = tmp_path / "out"
        argv = [command, *extra, "--psi", "6,0,0", "--b0", b0, "--w0", w0]
        if int(w0) < 1:
            assert main(argv + ["--out", str(out)]) == 2
            assert capsys.readouterr().err == "error: bad value for 'w0': requires w0 >= 1\n"
            with pytest.raises(ValueError) as e:
                check_progression(int(b0), int(w0))
            assert str(e.value) == message
        else:
            assert main(argv + ["--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestCounterexampleCommand:
    def test_blocking_instance(self, tmp_path):
        code = main(["counterexample", "--n", "2000", "--out", str(tmp_path)] + BLOCKING)
        assert code == 0
        report = json.loads((tmp_path / "counterexample.json").read_text())
        assert report["empty"] is True
        assert len(report["classes"]) == 9
        cls1 = report["classes"]["1"]
        assert "max_pair_sum" in cls1 or int(cls1["count"]) < 2

    def test_blocks_at_two(self, tmp_path, capsys):
        # psi = 4x^2 with 2z + 1 has no c_2; classes by residue mod 4 block
        # 3 + 13 = psi(2), which classes mod 2 let through
        argv = ["counterexample", "--psi", "4,0,0", "--b0", "1", "--w0", "2", "--p", "2"]
        assert main(argv + ["--n", "100", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "empty: True across 12 classes up to n = 100\n"
        report = json.loads((tmp_path / "counterexample.json").read_text())
        assert report["empty"] is True and report["solutions_found"] == "0"
        assert sorted(map(int, report["classes"])) == list(range(1, 13))
        assert all(entry["empty"] for entry in report["classes"].values())

    def test_wide_cauchy_bound(self, tmp_path, capsys):
        # psi = x(x-1)...(x-6), whose psi' has a Cauchy root bound of 698:
        # the search runs, and its count is a brute-force count's
        psi = IntPolynomial((1, -21, 175, -735, 1624, -1764, 720, 0))
        argv = ["counterexample", "--psi", "1,-21,175,-735,1624,-1764,720,0", "--b0", "3",
                "--w0", "4", "--p", "7", "--n", "3000", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "empty: True across 21 classes up to n = 3000\n"
        part = coloring.blocking_partition(psi, 3, 4, 7, 3000)
        color = part.color_at.tolist()
        want = sum(
            1
            for z in range(1, 8)  # psi(z) > 2n = 6000 from z = 8 on
            if all((4 * z + 3) % d for d in range(2, 4 * z + 3))
            for x in range(1, (psi(z) - 1) // 2 + 1)
            if psi(z) - x <= 3000 and color[x] and color[x] == color[psi(z) - x]
        )
        report = json.loads((tmp_path / "counterexample.json").read_text())
        assert report["solutions_found"] == str(want)

    def test_empty_prime_domain(self, tmp_path, capsys):
        # with no prime <= n to color there is no partition to report
        assert main(["counterexample", "--n", "1", "--out", str(tmp_path)] + BLOCKING) == 1
        assert capsys.readouterr().err == "error: empty prime domain\n"
        assert not (tmp_path / "counterexample.json").exists()

    def test_inapplicable(self, tmp_path):
        code = main(
            ["counterexample", "--psi", "1,1,0", "--b0", "1", "--w0", "4",
             "--p", "3", "--n", "1000", "--out", str(tmp_path)]
        )
        assert code == 1  # c_3 = 1 exists

    def test_odd_psi_value_is_no_error(self, tmp_path, capsys):
        # psi = x^2 + 1 is odd at even z; c_3 exists (psi(2) = 5), so the
        # blocking construction itself declines
        args = ["--psi", "1,0,1", "--b0", "1", "--w0", "2", "--out", str(tmp_path)]
        assert main(["counterexample", "--p", "3", *args]) == 1
        err = capsys.readouterr().err
        assert err == "error: c_3 exists; the blocking construction's guarantee fails\n"
        assert main(["transfer", "--variant", "prime-coloring", *args]) == 0
        report = json.loads((tmp_path / "transfer.json").read_text())
        assert report["context"]["cp"] == {"2": "1", "3": "2", "5": "1", "7": "1"}
        assert len(report["lifted_solutions"]) == int(report["solutions_sampled"]) > 0

    def test_broken_guarantee_exits_3(self, tmp_path, monkeypatch, capsys):
        # one monochromatic row in a blocking partition breaks the guarantee:
        # the report is written, then the run ends as a broken invariant
        def one_row(*args, **kwargs):
            return np.array([[1, 2, 5, 1]], dtype=np.int64)

        monkeypatch.setattr("polyprimelab.experiments.find_monochromatic", one_row)
        code = main(["counterexample", "--n", "2000", "--out", str(tmp_path)] + BLOCKING)
        assert code == 3
        out, err = capsys.readouterr()
        assert out == "empty: False across 9 classes up to n = 2000\n"
        assert err == (
            "error: invariant violated: the blocking partition holds 1 monochromatic solution(s)\n"
        )
        report = json.loads((tmp_path / "counterexample.json").read_text())
        assert report["empty"] is False and report["solutions_found"] == "1"
        assert report["classes"]["1"]["empty"] is False

    def test_pair_sum_extremes_respect_threshold(self):
        cfg = config_from_sources(None, {"psi": (6, 0, 0), "b0": 1, "w0": 1, "p": 3, "n": 5000})
        report = run_counterexample(cfg)
        t = report["threshold_T"]
        for j in range(1, 4):
            entry = report["classes"][str(j)]
            if "max_pair_sum" in entry:
                assert entry["max_pair_sum"] < t
        for j in range(4, 10):
            entry = report["classes"][str(j)]
            if "min_pair_sum" in entry:
                assert entry["min_pair_sum"] > t

    @pytest.mark.parametrize("psi,b0,w0,p", [((6, 0, 0), 1, 1, 3), ((4, 0, 0), 1, 2, 2)])
    def test_class_census_matches_a_table_scan(self, psi, b0, w0, p):
        # each class's count, pair sums and emptiness, against a scan of the
        # partition's color table per class and a per-z brute-force search
        n = 2000
        cfg = config_from_sources(None, {"psi": psi, "b0": b0, "w0": w0, "p": p, "n": n})
        report = run_counterexample(cfg)
        poly = IntPolynomial(psi)
        color_at = coloring.blocking_partition(poly, b0, w0, p, n).color_at
        hit = set()
        for z in range(1, n):
            s = poly(z)
            if s > 2 * n:
                break
            if all((w0 * z + b0) % d for d in range(2, w0 * z + b0)):
                xs = np.arange(max(1, s - n), (s - 1) // 2 + 1)
                same = (color_at[xs] != 0) & (color_at[xs] == color_at[s - xs])
                hit.update(color_at[xs[same]].tolist())
        assert len(report["classes"]) == 3 * (4 if p == 2 else p)
        for j, entry in report["classes"].items():
            members = np.flatnonzero(color_at == int(j))
            want = {"count": len(members), "empty": int(j) not in hit}
            if len(members) >= 2:
                want["max_pair_sum"] = int(members[-1] + members[-2])
                want["min_pair_sum"] = int(members[0] + members[1])
            assert entry == want


PRIME_TRANSFER = {
    "psi": (1, 1, 4),
    "b0": 1,
    "w0": 1,
    "variant": "prime-coloring",
    "w": {2: 2, 3: 1, 5: 1},
    "n": 600_000,
    "eta": Fraction(1, 20),
    "seed": 3,
}


class TestTransferCommand:
    def test_integer_pipeline(self, tmp_path):
        code = main(["transfer", "--n", "30000", "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "transfer.json").read_text())
        assert "lifting_failures" not in report
        assert len(report["lifted_solutions"]) == int(report["solutions_sampled"]) > 0
        assert "chain" in report["transference"] and "parameter_conditions" not in report
        for sol in report["lifted_solutions"][:5]:
            x, y, z = int(sol["x"]), int(sol["y"]), int(sol["z"])
            assert x + y == z * z + z

    def test_traced_peak_at_a_million(self):
        # the transfer-int bench config (N = 1000003): the transform's working
        # set (24L), the class's members (8|A|) and a fixed allowance; the
        # measure and the class stay on their supports, so no dense length-N
        # float array sits beside the transform
        import tracemalloc

        from polyprimelab.spectral import _smooth_at_least

        cfg = config_from_sources(None, {"n": 3_000_000, "psi": (1, 1, 0), "b0": 1, "w0": 2,
                                         "seed": 7})
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = run_transfer(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        n_mod = int(report["context"]["N"])
        assert n_mod == 1_000_003
        floor = 24 * _smooth_at_least(2 * n_mod - 1) + 8 * int(report["dense_class"]["size"])
        assert peak <= floor + (12 << 20)

    def test_traced_peak_prime_coloring(self):
        # the transfer-prime bench config (N = 400009, L = 802816): the class's
        # B = Z_N and its smoothed constant hold no length-N array, so the
        # peak is the one transform's working set (24L) and a fixed allowance
        import tracemalloc

        from polyprimelab.spectral import _smooth_at_least

        cfg = config_from_sources(None, {"variant": "prime-coloring", "psi": (1, 1, 4), "b0": 1,
                                         "w0": 1, "w": {2: 2, 3: 1, 5: 1}, "n": 12_000_000,
                                         "seed": 7})
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = run_transfer(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        n_mod = int(report["context"]["N"])
        assert (n_mod, _smooth_at_least(2 * n_mod - 1)) == (400_009, 802_816)
        assert report["transference"]["class_smoothing_regime"] == "constant"
        assert peak <= 24 * 802_816 + (8 << 20)

    def test_context_as_written(self, tmp_path):
        # one key per context field besides the format tag, no JSON number
        # anywhere, the object is the encoder's dict as write_report renders
        # it, and each field is written in full by its type
        assert main(["transfer", "--n", "30000", "--out", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "transfer.json").read_text())["context"]
        assert set(written) == {"format"} | {f.name for f in fields(WTrickContext)}

        def numbers(v):
            if isinstance(v, dict):
                v = list(v.values())
            if isinstance(v, list):
                return [x for item in v for x in numbers(item)]
            return [v] if isinstance(v, (int, float)) and not isinstance(v, bool) else []

        assert numbers(written) == []
        ctx = ExperimentConfig().context()
        assert written == json.loads(json.dumps(_stringify(ctx.to_json_dict())))
        assert written["format"] == "wtrick-context/1"
        for f in fields(WTrickContext):
            value = getattr(ctx, f.name)
            if isinstance(value, IntPolynomial):  # its coefficients, highest first
                want = [str(c) for c in value.coeffs]
            elif isinstance(value, dict):  # keys and values as decimal strings
                want = {str(k): str(v) for k, v in value.items()}
            elif isinstance(value, Fraction):
                want = f"{value.numerator}/{value.denominator}"
            elif isinstance(value, int):
                want = str(value)
            else:  # the variant's name, and cp as null in this integer-coloring run
                want = value
            assert written[f.name] == want, f.name
        assert written["cp"] is None

    def test_lifting_failure_is_a_broken_invariant(self, tmp_path, monkeypatch, capsys):
        # the exact identity of lift_solution fails at the first sampled
        # solution: exit 3 with one line, raised where the lift finds it
        from polyprimelab import experiments

        real = experiments.lift_solution
        calls = []

        def lift_wrong_psi(xp, yp, zp, ctx):
            # psi + 2(x - b) has the same psi(b), and the checks before the
            # identity read psi_{b,W} and the progression only; psi(z) gains 2Wz'
            calls.append((xp, yp, zp))
            *high, a1, a0 = ctx.psi.coeffs
            return real(xp, yp, zp, replace(ctx, psi=IntPolynomial((*high, a1 + 2, a0 - 2 * ctx.b))))

        monkeypatch.setattr(experiments, "lift_solution", lift_wrong_psi)
        assert main(["transfer", "--n", "30000", "--seed", "5", "--out", str(tmp_path)]) == 3
        assert len(calls) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invariant violated: lift failed: ") and err.count("\n") == 1
        assert not (tmp_path / "transfer.json").exists()

    def test_infeasible_scale_fails_cleanly(self, tmp_path):
        code = main(
            ["transfer", "--n", "100", "--w", "2:4,3:3,5:2", "--out", str(tmp_path)]
        )
        assert code == 1
        assert not (tmp_path / "transfer.json").exists()

    def test_scale_checked_before_select_bp(self, tmp_path, monkeypatch, capsys):
        # W = 6 * 10000019 leaves no prime modulus at the default n
        def never(*args, **kwargs):
            pytest.fail("select_bp ran before the scale check")

        monkeypatch.setattr("polyprimelab.wtrick.select_bp", never)
        code = main(["transfer", "--w", "2:1,3:1,10000019:1", "--out", str(tmp_path)])
        assert code == 1
        assert "no room for a prime modulus" in capsys.readouterr().err
        assert not (tmp_path / "transfer.json").exists()

    @pytest.mark.parametrize(
        "w, bits", [("1000", 19), ("100000", 19), ("2:1,3:100000000000000", 100000000000001)]
    )
    def test_large_w_refused_by_bit_length(self, tmp_path, monkeypatch, capsys, w, bits):
        # W is built one prime power at a time and refused once above 4n =
        # 120000, before any key is tested for primality; 3^(10^14) is refused
        # from its bit length, never computed, and no message prints W's digits
        def never(*args, **kwargs):
            pytest.fail("is_prime ran on a key of w")

        monkeypatch.setattr("polyprimelab.wtrick.is_prime", never)
        assert main(["verify", "--w", w, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: no room for a prime modulus: the smooth modulus W from 'w' has at least"
            f" {bits} bits, above 4n = 120000\n"
        )

    def test_no_room_below_the_first_prime(self, tmp_path, monkeypatch, capsys):
        # n = 1, W = 3: 2n/W rounds down to 0, and (0, 4n/W] = (0, 1] holds no prime
        def never(*args, **kwargs):
            pytest.fail("prime_in_interval ran on an interval without room")

        monkeypatch.setattr("polyprimelab.wtrick.prime_in_interval", never)
        assert main(["transfer", "--n", "1", "--w", "3:1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: no room for a prime modulus: n=1, W=3\n"
        assert not (tmp_path / "transfer.json").exists()

    @pytest.mark.parametrize(
        "cfg,transforms,chirps,regimes",
        [
            # B = {0}: the measure's dft, summed over its 1,229 points; the
            # raw count is the exact unweighted count, so no Bluestein
            # transform runs
            ({"n": 30000, "seed": 5}, 1, 0, ["identity"]),
            # B = Z_N: the measure's dft alone, as the constant's count
            # reads the class's spectrum at 0 from its weights
            ({"n": 30000, "seed": 5, "eta": Fraction(2)}, 1, 0, ["constant"]),
            # the class's |R| = 0 makes its B = Z_N: only the packed
            # transform of the measure and the class, and the unweighted
            # count is an exact sum over the support
            ({**PRIME_TRANSFER, "eta": Fraction(1, 4)}, 1, 1, ["identity", "constant"]),
            # the class's |B| = 1667 takes the transform path
            (PRIME_TRANSFER, 3, 3, ["identity", "fft"]),
            # |R| = 25 leaves a measure Bohr set of 33 points: the measure's
            # and b's dft are direct sums; the idft and the class's dft,
            # built for the smoothed count, are Bluestein transforms
            ({"n": 3000, "eta": Fraction(1, 2), "eps": Fraction(1, 4)}, 4, 2, ["fft"]),
        ],
        ids=["integer", "integer-constant", "prime-full-bohr", "prime", "integer-wide"],
    )
    def test_length_n_transform_count(self, monkeypatch, cfg, transforms, chirps, regimes):
        from polyprimelab import spectral

        calls, bluestein = [], []

        def counted(real, log):
            def wrapper(*args, **kwargs):
                log.append(args[0] if isinstance(args[0], int) else len(args[0]))
                return real(*args, **kwargs)

            return wrapper

        for name in ("dft", "idft"):
            monkeypatch.setattr(spectral, name, counted(getattr(spectral, name), calls))
        monkeypatch.setattr(spectral, "_chirp_dft", counted(spectral._chirp_dft, bluestein))
        report = run_transfer(config_from_sources(None, cfg))
        n_mod = int(report["context"]["N"])
        assert (calls, bluestein) == ([n_mod] * transforms, [n_mod] * chirps)
        rep = report["transference"]
        named = [rep["smoothing_regime"]]
        if "class_smoothing_regime" in rep:
            named.append(rep["class_smoothing_regime"])
        assert named == regimes

    def test_prime_pipeline(self, tmp_path):
        cfg = config_from_sources(None, PRIME_TRANSFER)
        report = run_transfer(cfg)
        assert len(report["lifted_solutions"]) == report["solutions_sampled"] > 0
        chain = report["transference"]["chain"]
        assert chain["class_mass"]["measured"] > 0
        assert "A_dash" in chain

    @pytest.mark.parametrize(
        "cfg,rows",
        [
            # (eta, eps, the regimes: the measure's, then the class's, the
            # dft and idft calls, the Bluestein transforms among them)
            ({}, [(Fraction(1, 4), Fraction(1, 8), ["identity"], 1, 0),
                  (Fraction(7, 10), Fraction(1, 8), ["fft"], 3, 3),
                  (Fraction(2), Fraction(1, 8), ["constant"], 0, 0)]),
            (PRIME_TRANSFER, [(Fraction(1, 4), Fraction(1, 8), ["identity", "constant"], 0, 0),
                              (Fraction(1, 20), Fraction(1, 8), ["identity", "fft"], 2, 2),
                              # the measure's |B| = 119: b's dft is a direct sum
                              (Fraction(9, 10), Fraction(1, 4), ["fft", "constant"], 2, 1),
                              (Fraction(2), Fraction(1, 8), ["constant", "constant"], 0, 0)]),
        ],
        ids=["integer", "prime"],
    )
    def test_links_per_row_from_one_spectra(self, tmp_path, monkeypatch, cfg, rows):
        # one chain_spectra per n serves every (eta, eps) row: each row's
        # report is transference_report's to the byte, and a row transforms
        # only to smooth, a dft and an idft per function in the fft regime,
        # or to build a spectrum on its first read: an integer chain builds
        # the measure's (a direct sum) in its first row and the class's in
        # its first fft row, for the smoothed count; a prime chain has both
        from polyprimelab import spectral

        cfg = config_from_sources(None, cfg)
        ctx = cfg.context()
        dens = experiments._dense_class(cfg, ctx)
        want = []
        for eta, eps, *_ in rows:  # a fresh measure each: its spectrum is cached
            rep = counting.transference_report(dens, build_poly_prime_measure(ctx), eta, eps)
            write_report(rep, tmp_path / "want.json")
            want.append((tmp_path / "want.json").read_bytes())
        spectra = counting.chain_spectra(dens, build_poly_prime_measure(ctx))
        calls = []

        def counted(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)

            return wrapper

        for name in ("dft", "idft", "_chirp_dft"):
            monkeypatch.setattr(spectral, name, counted(getattr(spectral, name)))
        for (eta, eps, regimes, transforms, chirps), expected in zip(rows, want):
            calls.clear()
            rep = counting.chain_links(spectra, eta, eps)
            assert len(calls) - calls.count("_chirp_dft") == transforms
            assert calls.count("_chirp_dft") == chirps
            named = [rep["smoothing_regime"], rep.get("class_smoothing_regime")]
            assert [r for r in named if r] == regimes
            write_report(rep, tmp_path / "got.json")
            assert (tmp_path / "got.json").read_bytes() == expected

    def test_constant_measure_row_matches_dense_constant(self, tmp_path, monkeypatch):
        # at eta = 9/10, eps = 1/4 the measure's R = {0}, so its B = Z_N: the
        # row, its smoothed mass and count included, is the one that the
        # smoothed measure held as a dense constant array gives, to the byte
        eta, eps = Fraction(9, 10), Fraction(1, 4)
        cfg = config_from_sources(None, {"eta": eta, "eps": eps})
        ctx = cfg.context()
        spectra = counting.chain_spectra(experiments._dense_class(cfg, ctx),
                                         build_poly_prime_measure(ctx))
        got = counting.chain_links(spectra, eta, eps)
        assert (got["large_spectrum_size"], got["bohr_size"]) == (1, ctx.N) == (1, 10007)
        assert got["smoothing_regime"] == "constant"

        def dense_constant(f, b):  # the constant regime as dense arrays
            assert smoothing_regime(b) == "constant"
            total = f.values.sum()
            spec = np.zeros(f.modulus, dtype=np.complex128)
            spec[0] = total
            return DensityFunction(np.full(f.modulus, total / f.modulus), spec)

        monkeypatch.setattr(counting, "smooth", dense_constant)
        want = counting.chain_links(spectra, eta, eps)
        for name in ("mass_smoothed_measure", "smoothed_count"):
            assert repr(got[name]) == repr(want[name])
        write_report(got, tmp_path / "got.json")
        write_report(want, tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


class TestSpectrumCommand:
    def test_constant_smoothed_measure_saved(self, tmp_path):
        # B = Z_N at eta = 9/10, eps = 1/4: the saved smoothed measure is the
        # constant mass / N, as float64, to the bit
        assert main(["spectrum", "--eta", "9/10", "--eps", "1/4", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "spectrum.json").read_text())
        assert report["smoothed_pointwise"]["smoothing_regime"] == "constant"
        measure, smoothed = (np.load(tmp_path / f"{name}.npy") for name in ("measure", "smoothed"))
        want = np.full(len(measure), measure.sum() / len(measure))
        assert smoothed.dtype == np.float64 and smoothed.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_non_finite_rho_rejected(self, tmp_path, capsys, rho):
        # NaN and Infinity are not JSON, so no report is written
        assert main(["spectrum", "--rho", f"0.5,{rho}", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: bad value for 'rho': {rho} is not positive and finite\n"
        assert not (tmp_path / "spectrum.json").exists()

    def test_huge_rho_reported(self, tmp_path):
        # |nu^(0)|^100000 is beyond float64; the norm over r != 0, relative
        # to nu^(0), is reported at every rho, with the mass beside it
        assert main(["spectrum", "--rho", "4,64,100000", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "spectrum.json").read_text())["measure_summary"]
        assert "restriction_norms" not in summary
        norms = summary["restriction_nonzero"]
        assert set(norms) == {"4.0", "64.0", "100000.0"}
        assert norms["100000.0"] < norms["64.0"] < norms["4.0"]
        assert 0 < summary["mass"] < 2

    @pytest.mark.parametrize("rho", ["0.01", "0.001"])
    def test_tiny_rho_refused(self, tmp_path, capsys, rho):
        # S^(1/rho) would overflow (S up to N - 1 = 10006): one error line
        # naming rho and the norm's log10, before numpy's overflow warning
        # (an error under this suite's filter), and no file
        assert main(["spectrum", "--rho", rho, "--n", "30000", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: rho = {float(rho)} overflows the restriction norm: its log10 is ")
        assert err.count("\n") == 1 and float(err.split()[-1]) > 308
        assert os.listdir(tmp_path) == []

    def test_levels_keep_the_exponents_k_needs(self):
        # K = 24 for 6x^2 at 1 (mod 1): a prime dividing K keeps its exponent
        # in w, 2^3, and lifts from level 2 on; level 1 (W = 1) cannot lift
        cfg = config_from_sources(
            None, {"psi": (6, 0, 0), "b0": 1, "w0": 1, "w": {2: 3, 3: 1}, "n": 600_000}
        )
        w1, w8, w24 = run_spectrum(cfg)["spectral_sup_vs_W"]
        assert w1["W"] == 1 and "K = 24 does not divide 6" in w1["error"]
        # the rung's W comes from its level, so its error names the level, not w
        assert w1["error"].startswith("level 1: ") and "'w'" not in w1["error"]
        assert (w8["W"], w24["W"]) == (8, 24)
        assert w8["max_nonzero_spectral_value"] == pytest.approx(0.8551066, abs=1e-6)
        assert w24["max_nonzero_spectral_value"] == pytest.approx(0.7612897, abs=1e-6)

    def test_diagnostics_present(self, tmp_path):
        cfg = config_from_sources(None, {"n": 30000, "trend_n": (2003, 4001), "trend_w": (1, 3)})
        report = run_spectrum(cfg, str(tmp_path))
        assert len(report["spectral_sup_vs_W"]) == 2
        trend = report["restriction_norm_trend"]
        assert [sorted(row) for row in trend] == [["N", "mass", "restriction_nonzero", "rho"]] * 2
        assert all(0 < row["restriction_nonzero"] < 1 for row in trend)
        assert "main_term_residual_trend" not in report
        assert report["minor_arc_decay"]["ratio"] is not None
        assert report["smoothed_pointwise"]["measure"]["relation"] == "<="
        assert report["smoothed_pointwise"]["smoothing_regime"] == "identity"
        assert sorted(os.listdir(tmp_path)) == ["measure.npy", "smoothed.npy", "spectrum.npy"]

    @pytest.mark.parametrize("eta", [Fraction(1, 4), Fraction(7, 10)], ids=["identity", "fft"])
    def test_arrays_saved_exactly(self, tmp_path, eta):
        cfg = config_from_sources(None, {"eta": eta, "trend_n": (2003,), "trend_w": (1,)})
        run_spectrum(cfg, str(tmp_path))
        ctx = cfg.context()
        measure = build_poly_prime_measure(ctx)
        bohr = bohr_set(large_spectrum(measure, float(cfg.eta)), cfg.eps, ctx.N)
        smoothed = smooth(measure, bohr)
        for name, want in (("measure", measure.values), ("spectrum", measure.spectrum),
                           ("smoothed", smoothed.values)):
            got = np.load(tmp_path / f"{name}.npy")
            assert got.dtype == want.dtype == (np.complex128 if name == "spectrum" else np.float64)
            assert got.tobytes() == want.tobytes()
        assert not any(name.endswith(".csv") for name in os.listdir(tmp_path))

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--eta", "0", "requires eta > 0"), ("--eps", "1/2", "requires 0 < eps < 1/2")],
    )
    def test_bad_smoothing_input_writes_nothing(self, tmp_path, capsys, flag, value, message):
        # refused when the flag is parsed, before any stage runs
        out = tmp_path / "out"
        assert main(["spectrum", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: bad value for {flag[2:]!r}: {message}\n"
        assert not out.exists() or os.listdir(out) == []

    def test_failed_stage_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the last diagnostic fails after every other stage has run: no array
        # is saved, and the run exits 1 with the stage's one line
        def fail(*args):
            raise ValueError("golden-ratio sum failed")

        monkeypatch.setattr(experiments, "weighted_exp_sum", fail)
        out = tmp_path / "out"
        assert main(["spectrum", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: golden-ratio sum failed\n"
        assert not out.exists() or os.listdir(out) == []

    def test_smoothing_regime_recorded(self):
        # eta = 7/10 leaves |B| = 621, so the measure takes the transform path
        cfg = config_from_sources(
            None, {"eta": Fraction(7, 10), "trend_n": (2003,), "trend_w": (1,)}
        )
        pointwise = run_spectrum(cfg)["smoothed_pointwise"]
        assert (pointwise["bohr_size"], pointwise["smoothing_regime"]) == (621, "fft")

    def test_residual_ratio_matches_lambda_oracle(self):
        # each trend point's mass is sum_z (psi_{b,W}(z) - psi_{b,W}(z - 1)) lambda(c, Q, z)
        # / psi_{b,W}(M)
        cfg = config_from_sources(None, {"trend_w": (1,)})
        report = run_spectrum(cfg)
        w_mod = cfg.context().W
        rows = report["restriction_norm_trend"]
        assert len(rows) == len(cfg.trend_n)
        for n_target, row in zip(cfg.trend_n, rows):
            ctx = replace(cfg, n=max(n_target * w_mod // 2, w_mod * 8)).context()
            assert row["N"] == ctx.N
            c, q = ctx.progression
            resc = ctx.rescaled
            total = sum(
                (resc(z) - resc(z - 1)) * lambda_weight(c, q, z) for z in range(1, ctx.M + 1)
            )
            assert row["mass"] == pytest.approx(total / resc(ctx.M), abs=1e-12)

    def test_one_context_per_trend_point(self, monkeypatch):
        built = []
        real = experiments.build_context

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(experiments, "build_context", counted)
        cfg = config_from_sources(None, {"trend_n": (2003, 4001), "trend_w": (1, 3)})
        run_spectrum(cfg)
        assert len(built) == 1 + len(cfg.trend_w) + len(cfg.trend_n)


class TestReportDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        cfg = config_from_sources(None, {"n": 30000, "seed": 17})
        a = run_transfer(cfg)
        b = run_transfer(cfg)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_report(a, pa)
        write_report(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_writes_nothing(self, tmp_path, value):
        path = tmp_path / "r.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_report({"ok": 1.0, "bad": {"x": value}}, path)
        assert not path.exists()

    def test_integers_rendered_as_strings(self, tmp_path):
        cfg = config_from_sources(None, {"n": 30000, "seed": 17})
        report = run_counterexample(
            config_from_sources(None, {"psi": (6, 0, 0), "b0": 1, "w0": 1, "p": 3, "n": 1000})
        )
        path = tmp_path / "r.json"
        write_report(report, path)
        data = json.loads(path.read_text())
        assert isinstance(data["threshold_T"], str)
        assert isinstance(data["classes"]["1"]["count"], str)


def bench_argv(name: str) -> list[str]:
    """A workload's argv as the benchmark harness runs it."""
    import importlib.util

    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(perfbench, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[name]


def chain_records(node, path=""):
    """(path, record) for every bound record in a report: a dict with a relation."""
    if isinstance(node, dict):
        if "relation" in node:
            yield path, node
        for key, value in node.items():
            yield from chain_records(value, f"{path}.{key}" if path else key)


def floats(node, path=""):
    """(path, value) for every float in a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from floats(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from floats(value, f"{path}.{i}")
    elif isinstance(node, float):
        yield path, node


def read_strict(path) -> dict:
    """A report read back with NaN and Infinity refused."""

    def refuse(name):
        raise AssertionError(f"{name} in {path}")

    return json.loads(path.read_text(), parse_constant=refuse)


# zeros that are exact, not rounded: under the identity regime the smoothed
# measure is the measure itself and the smoothed count is the raw count
EXACT_ZEROS = {"transference.count_difference", "transference.chain.smoothing_mass.measured"}


def check_records(report: dict) -> int:
    """Each record's holds and log10_ratio against its measured and bound,
    and no float of the report made 0.0 by rounding; returns the record count."""
    records = list(chain_records(report))
    for path, rec in records:
        assert rec["relation"] in (">=", "<="), path
        measured = float(rec["measured"])
        if "bound" in rec:
            lhs, rhs = measured, rec["bound"]
            log10_bound = math.log10(rhs) if rhs > 0 else None
        else:
            lhs, rhs = math.log10(measured), rec["log10_bound"]
            log10_bound = rhs
        assert rec["holds"] is (lhs >= rhs if rec["relation"] == ">=" else lhs <= rhs), path
        if measured > 0 and log10_bound is not None:
            ratio = rec["log10_ratio"]
            assert math.isfinite(ratio), path
            assert ratio == pytest.approx(math.log10(measured) - log10_bound, abs=1e-9), path
        else:
            assert "log10_ratio" not in rec, path
    for path, value in floats(report):
        if value == 0.0:
            assert path in EXACT_ZEROS, path
            assert report["transference"]["smoothing_regime"] == "identity", path
    return len(records)


class TestChainRecords:
    @pytest.mark.parametrize("workload,links", [("transfer-int", 8), ("transfer-prime", 11)])
    def test_transfer_at_bench_config(self, tmp_path, workload, links):
        assert main([*bench_argv(workload), "--seed", "7", "--out", str(tmp_path)]) == 0
        report = read_strict(tmp_path / "transfer.json")
        assert "parameter_conditions" not in report
        assert check_records(report) == links == len(report["transference"]["chain"])
        if workload == "transfer-int":
            # (1/8)^455 * 1000003, which used to be written as a literal 0.0
            bohr = report["transference"]["chain"]["bohr_measure"]
            assert report["transference"]["large_spectrum_size"] == "455"
            assert bohr["log10_bound"] == pytest.approx(455 * math.log10(1 / 8) + 6.0, abs=1e-5)

    def test_verify_reads_the_records(self, tmp_path, monkeypatch):
        seen = []
        real = experiments.transference_report

        def kept(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(experiments, "transference_report", kept)
        assert main(["verify", "--out", str(tmp_path)]) == 0
        (rep,) = seen
        write_report({"transference": rep}, tmp_path / "chain.json")
        assert check_records(read_strict(tmp_path / "chain.json")) == 8
        checks = read_strict(tmp_path / "verify.json")["checks"]
        for name, key in [
            ("coloring.pigeonhole", "dense_class"),
            ("spectral.bohr-bound", "bohr_measure"),
            ("spectral.smoothing-mass", "smoothing_mass"),
        ]:
            assert checks[name]["pass"] is rep["chain"][key]["holds"], name
            assert checks[name]["info"].startswith(f"{key}: measured="), name
