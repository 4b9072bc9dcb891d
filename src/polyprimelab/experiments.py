"""Batch orchestration: experiment configuration, the checks `verify` makes
of a configuration (read from the transference chain's records where it has
one), monochromatic search, the blocking counterexample, the transference
pipeline, and the spectrum diagnostics.  Reports are deterministic JSON
with every integer rendered as a decimal string; `spectrum`'s arrays are
saved as exact `.npy` files, one numpy call each.  A setting is declared
once, on its `ExperimentConfig` field, with its default, config key, parser
and flag."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

import numpy as np

from . import __version__
from .coloring import (
    TransferredSet,
    blocking_partition,
    dense_class,
    dense_prime_class,
    load_coloring,
    make_coloring,
    parse_coloring_rule,
    write_int_rows,
)
from .counting import (
    LiftingError,
    _smoothing,
    find_monochromatic,
    find_zn_solutions,
    lift_solution,
    pointwise_link,
    transference_report,
)
from .numtheory import ap_primes, is_prime
from .polynomials import INTEGER_COLORING, VARIANTS, IntPolynomial
from .spectral import (
    DensityFunction,
    build_poly_prime_measure,
    complete_gauss_sum,
    restriction_nonzero,
    weighted_exp_sum,
)
from .wtrick import WTrickContext, build_context, level_exponents, verify_gcd_identity

__all__ = [
    "ExperimentConfig",
    "SETTINGS",
    "parse_config_file",
    "parse_setting",
    "run_counterexample",
    "run_search",
    "run_spectrum",
    "run_transfer",
    "run_verify",
    "write_report",
]

GOLDEN = (math.sqrt(5) - 1) / 2


def _parse_w_spec(text: str) -> dict[int, int]:
    """Either a bare level "3" (exponent 1 for each prime <= 3) or "2:1,3:2";
    a level or an exponent must be >= 0."""
    text = text.strip()
    if not text:
        return {}
    if ":" not in text:
        if int(text) < 0:
            raise ValueError(f"negative level {int(text)}")
        return level_exponents(int(text))
    out = {}
    for part in text.split(","):
        p, e = part.split(":")
        if int(p) in out:
            raise ValueError(f"prime {int(p)} named twice")
        if int(e) < 0:
            raise ValueError(f"negative exponent {int(e)} of {int(p)}")
        out[int(p)] = int(e)
    return out


def _parse_variant(text: str) -> str:
    variant = text.strip()
    if variant not in VARIANTS:
        raise ValueError(f"{variant!r} is not one of {', '.join(VARIANTS)}")
    return variant


def _parse_coloring_rule(text: str) -> str:
    rule = text.strip()
    parse_coloring_rule(rule)
    return rule


def _checked(parse, ok, message: str):
    """`parse`, then a ValueError with `message` (formatted with the value)
    for a value outside the setting's range, where `ok` is false."""

    def parse_checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(message.format(value))
        return value

    return parse_checked


def _tuple_of(parse):
    """A parser of a comma list, each entry read by `parse`."""
    return lambda text: tuple(parse(x) for x in text.split(","))


_nonnegative_int = _checked(int, lambda v: v >= 0, "negative value {}")
# nan fails the range test too
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "{} is not positive and finite")


def _setting(default, parse, flag=None, help=None, key=None):
    """A field declared as a setting: its config key (`key`, else the field's
    name), the parser of its text, and its command-line `flag` with `help`
    (None for a config-only setting).  A dict default is copied per instance."""
    meta = {"key": key, "parse": parse, "flag": flag, "help": help}
    if isinstance(default, dict):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    """Free parameters of one experiment; every field is echoed into reports."""

    psi: tuple[int, ...] = _setting(
        (1, 1, 0),
        _checked(
            lambda s: _tuple_of(int)(s.replace("[", "").replace("]", "")),
            lambda v: IntPolynomial(v).degree >= 1 and IntPolynomial(v).leading > 0,
            "requires degree >= 1 and a positive leading coefficient",
        ),
        "--psi", "polynomial coefficients, highest degree first",
    )
    b0: int = _setting(1, int, "--b0")
    w0: int = _setting(2, _checked(int, lambda v: v >= 1, "requires w0 >= 1"), "--w0")
    m: int = _setting(
        2, _checked(int, lambda v: v >= 1, "requires m >= 1"), "--m", "number of colors"
    )
    variant: str = _setting(
        INTEGER_COLORING, _parse_variant, "--variant", "integer-coloring | prime-coloring"
    )
    w_config: dict[int, int] = _setting(
        {2: 1, 3: 1}, _parse_w_spec, "--w",
        "smooth modulus: level like '3' or exponents '2:1,3:2'", key="w",
    )
    n: int = _setting(
        30000, _checked(int, lambda v: v >= 1, "requires n >= 1"), "--n", "ambient scale"
    )
    eta: Fraction = _setting(
        Fraction(1, 4), _checked(Fraction, lambda v: v > 0, "requires eta > 0"),
        "--eta", "spectrum threshold as a rational 'p/q'",
    )
    eps: Fraction = _setting(
        Fraction(1, 8),
        _checked(Fraction, lambda v: 0 < v < Fraction(1, 2), "requires 0 < eps < 1/2"),
        "--eps", "Bohr radius as a rational 'p/q'",
    )
    rho: tuple[float, ...] = _setting(
        (4.0, 64.0), _tuple_of(_positive_float),
        "--rho", "comma list of restriction exponents",
    )
    seed: int = _setting(1, _nonnegative_int, "--seed", "master seed (recorded in reports)")
    coloring: str = _setting(
        "random", _parse_coloring_rule, "--coloring-rule", "random | residue:<q> | interval:<cuts>"
    )
    p: int = _setting(
        3, _checked(int, is_prime, "{} is not prime"), "--p", "blocking prime (counterexample)"
    )
    out: str = _setting("out", str.strip, "--out", "output directory")
    trend_n: tuple[int, ...] = _setting((2003, 4001, 8009), _tuple_of(_nonnegative_int))
    # smoothing levels: primes <= these
    trend_w: tuple[int, ...] = _setting((1, 2, 3), _tuple_of(_nonnegative_int))

    def polynomial(self) -> IntPolynomial:
        return IntPolynomial(tuple(self.psi))

    def context(self) -> WTrickContext:
        return build_context(
            self.polynomial(), self.b0, self.w0, self.m, self.variant, self.w_config, self.n
        )

    def echo(self) -> dict:
        """Every field but `out`; write_report renders the values."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}


SETTINGS = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig)}  # by config key


def parse_setting(key: str, text: str) -> tuple[str, object]:
    """(config field, parsed value) for one setting, from a config-file line
    or a command-line flag alike; any bad value raises ValueError naming key."""
    if key not in SETTINGS:
        raise ValueError(f"unknown key {key!r}")
    try:
        value = SETTINGS[key].metadata["parse"](text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad value for {key!r}: {e}") from e
    return SETTINGS[key].name, value


def parse_config_file(path) -> dict:
    """Key-value lines "key = value"; '#' starts a comment."""
    raw: dict[str, object] = {}
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {i}: expected 'key = value', got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            try:
                name, parsed = parse_setting(key, value)
            except ValueError as e:
                raise ValueError(f"line {i}: {e}") from e
            raw[name] = parsed
    if not raw:
        raise ValueError("empty config: no keys found")
    return raw


def config_from_sources(path=None, overrides: dict | None = None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is not None:
        cfg = replace(cfg, **parse_config_file(path))
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _stringify(obj):
    """Render every integer as a decimal string (bools stay bools)."""
    if isinstance(obj, (bool, float)):  # numpy's float64 is a float
        return obj
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    return float(obj) if isinstance(obj, np.floating) else obj


def write_report(report: dict, path) -> None:
    """The report as JSON; a NaN or an infinity raises before the file opens."""
    text = json.dumps(_stringify(report), sort_keys=True, indent=2, allow_nan=False)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _base_report(cfg: ExperimentConfig, command: str) -> dict:
    return {"command": command, "version": __version__, "config": cfg.echo()}


def _nonzero_sup(f: DensityFunction) -> float:
    """max over r != 0 of |f^(r)| (0 when the modulus is 1)."""
    return float(np.abs(f.spectrum[1:]).max()) if f.modulus > 1 else 0.0


# ----------------------------------------------------------------- verify


def _link_info(key: str, link: dict) -> str:
    """`dense_class: measured=4994 >= bound=1250.88`; a log10 bound reads `10^-3649`."""
    m = link["measured"]
    measured = m if isinstance(m, int) else f"{m:.6g}"
    bound = f"{link['bound']:.6g}" if "bound" in link else f"10^{link['log10_bound']:.6g}"
    return f"{key}: measured={measured} {link['relation']} bound={bound}"


def _verify_checks(cfg: ExperimentConfig, ctx: WTrickContext) -> dict[str, tuple[bool, str]]:
    """The checks that read the run's configuration, (pass, info) by name;
    the library's own identities are tested in tests/."""
    results: dict[str, tuple[bool, str]] = {}

    def record(name: str, ok: bool, info: str = "") -> None:
        results[name] = (bool(ok), info)

    # context invariants: the info names each failing one with its values
    inv = ctx.verify_invariants()
    failed = "; ".join(f"{name}: {info}" for name, ok, info in inv if not ok)
    record("wtrick.context-invariants", not failed, failed or f"{len(inv)} invariants hold")

    # gcd identity (inconclusive counts as pass only when expected)
    g = verify_gcd_identity(ctx)
    record("wtrick.gcd-identity", g is not False, f"result={g}")

    # Gauss dichotomy over divisors of W
    ok = True
    info = []
    for q in range(2, min(ctx.W, 64) + 1):
        if ctx.W % q:
            continue
        s = complete_gauss_sum(ctx, 1, q)
        want = q if ctx.K % q == 0 else 0
        ok &= abs(s - want) <= 1e-6 * q
        info.append(f"q={q}:{s.real:.3f}")
    record("spectral.gauss-dichotomy", ok, ",".join(info))

    # transfer's stages in its order (measure, dense class, transference,
    # lifts), each check read from its stage's results: a failing stage is
    # recorded under its own name, and each check after it as not reached
    integers = ctx.variant == INTEGER_COLORING
    dense_check = "coloring.pigeonhole" if integers else "coloring.dense_prime_class"
    stage = "spectral.measure-well-defined"
    try:
        measure = build_poly_prime_measure(ctx)
        record(stage, True, f"M={ctx.M}")
        stage = dense_check
        dens = _dense_class(cfg, ctx)
        stage = "spectral.bohr-bound"
        rep = transference_report(dens, measure, eta=cfg.eta, eps=cfg.eps)
        regime = f", regime={rep['smoothing_regime']}"
        for name, keys, tail in (
            (dense_check, ("dense_class", "class_mass"), ""),
            ("spectral.bohr-bound", ("bohr_measure", "bohr_class"), ""),
            ("spectral.smoothing-mass", ("smoothing_mass",), regime),
        ):
            links = [(key, rep["chain"][key]) for key in keys if key in rep["chain"]]
            info = "; ".join(_link_info(key, link) for key, link in links)
            record(name, all(link["holds"] for _, link in links), info + tail)
        stage = "counting.lifting"
        sols, lifted = _lift_sample(dens, ctx)
        info = f" of {len(sols)} sampled" if len(lifted) < len(sols) else ""
        record(stage, 0 < len(lifted) == len(sols), f"{len(lifted)} solutions lifted{info}")
    except (ValueError, RuntimeError) as e:
        record(stage, False, str(e))
    for name in (dense_check, "spectral.bohr-bound", "spectral.smoothing-mass",
                 "counting.lifting"):
        results.setdefault(name, (False, "not reached"))
    return results


def run_verify(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """Run the configuration checks; zero exit iff every check passes."""
    ctx = cfg.context()
    checks = _verify_checks(cfg, ctx)
    report = _base_report(cfg, "verify")
    report["checks"] = {name: {"pass": ok, "info": info} for name, (ok, info) in checks.items()}
    report["all_pass"] = all(ok for ok, _ in checks.values())
    return report["all_pass"], report


# ----------------------------------------------------------------- search


def write_solutions_csv(sols: np.ndarray, path) -> None:
    """The (k, 4) hit array as color,x,y,z rows, in the bytes csv.writer
    writes (CRLF line ends).  The rows are encoded with numpy by
    write_int_rows, which takes nonnegative integers only: a negative entry
    raises ValueError before any row is written."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("color,x,y,z\r\n")
        write_int_rows(fh, sols.T, ",", "\r\n")


def run_search(cfg: ExperimentConfig, coloring_path, out_csv=None) -> tuple[np.ndarray, dict]:
    coloring = load_coloring(coloring_path)
    sols = find_monochromatic(coloring, cfg.polynomial(), cfg.b0, cfg.w0, coloring.n)
    report = _base_report(cfg, "search")
    report["coloring"] = {
        "domain": coloring.domain,
        "n": coloring.n,
        "m": coloring.num_colors,
        "rule": coloring.provenance,
    }
    report["solutions_found"] = len(sols)
    report["status"] = "found" if len(sols) else "none-found"
    if out_csv is not None:
        write_solutions_csv(sols, out_csv)
    return sols, report


# ----------------------------------------------------------- counterexample


def run_counterexample(cfg: ExperimentConfig) -> dict:
    """Build the blocking partition and exhaustively verify emptiness."""
    psi = cfg.polynomial()
    part = blocking_partition(psi, cfg.b0, cfg.w0, cfg.p, cfg.n)
    sols = find_monochromatic(part, psi, cfg.b0, cfg.w0, cfg.n)
    hits_per_class = np.bincount(sols[:, 0], minlength=3 * cfg.p + 1)
    by_class = {}
    t_threshold = psi((cfg.p - cfg.b0) // cfg.w0)
    for j in range(1, 3 * cfg.p + 1):
        members = part.class_members(j)
        entry = {"count": int(len(members))}
        if len(members) >= 2:  # class_members is in ascending order
            entry["max_pair_sum"] = int(members[-1] + members[-2])
            entry["min_pair_sum"] = int(members[0] + members[1])
        entry["empty"] = not hits_per_class[j]
        by_class[str(j)] = entry
    report = _base_report(cfg, "counterexample")
    report["threshold_T"] = t_threshold
    report["classes"] = by_class
    report["solutions_found"] = len(sols)
    report["empty"] = len(sols) == 0
    return report


# ----------------------------------------------------------------- transfer


def _dense_class(cfg: ExperimentConfig, ctx: WTrickContext) -> TransferredSet:
    """The densest class of the configured coloring: of [1, n] for an
    integer coloring, of the primes <= n for a prime coloring."""
    integers = ctx.variant == INTEGER_COLORING
    col = make_coloring(
        "integers" if integers else "primes", ctx.n, ctx.num_colors, cfg.coloring, cfg.seed
    )
    return (dense_class if integers else dense_prime_class)(col, ctx)


def _lift_sample(dens: TransferredSet, ctx: WTrickContext) -> tuple[list, list]:
    """The class's sampled Z_N solutions (at most 50) and the exact lifts of
    those that lift; a solution that raises LiftingError is left out."""
    sols = find_zn_solutions(dens.members, ctx, limit=50)
    lifted = []
    for xp, yp, zp in sols:
        try:
            lifted.append(lift_solution(xp, yp, zp, ctx))
        except LiftingError:
            pass
    return sols, lifted


def run_transfer(cfg: ExperimentConfig) -> dict:
    """End-to-end pipeline: context, coloring, dense class, measures, Bohr
    smoothing, counts, and exact lifting of sampled Z_N solutions; a solution
    that fails to lift is left out of `lifted_solutions` and counted."""
    ctx = cfg.context()
    measure = build_poly_prime_measure(ctx)
    dens = _dense_class(cfg, ctx)
    rep = transference_report(dens, measure, eta=cfg.eta, eps=cfg.eps)
    sols, lifted = _lift_sample(dens, ctx)
    report = _base_report(cfg, "transfer")
    report["context"] = ctx.to_json_dict()
    report["dense_class"] = {"color_index": dens.color_index, "size": int(len(dens.members))}
    report["transference"] = rep
    report["solutions_sampled"] = len(sols)
    report["lifted_solutions"] = [{"x": x, "y": y, "z": z} for x, y, z in lifted]
    report["lifting_failures"] = len(sols) - len(lifted)
    return report


# ----------------------------------------------------------------- spectrum


def run_spectrum(cfg: ExperimentConfig, out_dir=None) -> dict:
    """The report-only diagnostics: the measure's mass and its normalized
    nonzero restriction norm at each configured rho, the smoothed measure's
    pointwise maximum against its bound, the nonzero spectral sup across
    smoothing levels, the same mass and norm across doubling N, and the
    progression sum at the golden ratio against alpha = 0
    (`minor_arc_decay`).  With `out_dir`, the measure, its spectrum and the
    smoothed measure are then saved there as `.npy` arrays, once every
    diagnostic has succeeded."""
    report = _base_report(cfg, "spectrum")
    ctx = cfg.context()
    report["context_N"] = ctx.N
    report["context_kappa"] = ctx.kappa
    measure = build_poly_prime_measure(ctx)
    report["measure_summary"] = {
        "modulus": measure.modulus,
        "mass": measure.mass.real,
        "max_nonzero_spectral_value": _nonzero_sup(measure),
        "restriction_nonzero": {str(r): restriction_nonzero(measure, r) for r in cfg.rho},
    }

    # diagnostic: the smoothed measure's pointwise maximum against (1+2kappa)/N
    spec_r, bohr, smoothed = _smoothing(measure, cfg.eta, cfg.eps)
    report["smoothed_pointwise"] = {
        "measure": pointwise_link(smoothed, ctx),
        "bohr_size": bohr.size,
        "large_spectrum_size": int(len(spec_r)),
        "smoothing_regime": bohr.smoothing_regime,
    }

    # diagnostic: nonzero spectral sup across smoothing levels
    w_trend = []
    for level in cfg.trend_w:
        exps = level_exponents(level)
        w_mod = math.prod(exps)
        n_here = max(cfg.trend_n[0] * w_mod // 2, w_mod * 8)
        try:
            c2 = replace(cfg, w_config=exps, n=n_here).context()
            sup = _nonzero_sup(build_poly_prime_measure(c2))
            w_trend.append({"W": c2.W, "N": c2.N, "max_nonzero_spectral_value": sup})
        except ValueError as e:
            w_trend.append({"W": w_mod, "error": str(e)})
    report["spectral_sup_vs_W"] = w_trend

    # diagnostic across doubling N, one context each: the mass nu^(0) and the
    # restriction norm over r != 0 relative to it, at rho* = k 2^(k+3)
    k_deg = ctx.psi.degree
    rho_star = k_deg * 2 ** (k_deg + 3)
    trend = []
    for n_target in cfg.trend_n:
        c2 = replace(cfg, n=max(n_target * ctx.W // 2, ctx.W * 8)).context()
        m2 = build_poly_prime_measure(c2)
        trend.append(
            {
                "N": c2.N,
                "rho": rho_star,
                "mass": m2.mass.real,
                "restriction_nonzero": restriction_nonzero(m2, rho_star),
            }
        )
    report["restriction_norm_trend"] = trend

    # diagnostic: the progression sum at the golden ratio against alpha = 0,
    # where every phase is e(0) = 1 and the sum is the sum of the weights
    s0 = abs(float(ap_primes(*ctx.progression, ctx.N)[1].sum()))
    s_golden = abs(weighted_exp_sum(ctx, GOLDEN))
    report["minor_arc_decay"] = {
        "abs_sum_alpha_zero": s0,
        "abs_sum_alpha_golden": s_golden,
        "ratio": (s_golden / s0) if s0 else None,
    }

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name, array in (("measure", measure.values), ("spectrum", measure.spectrum),
                            ("smoothed", smoothed.values)):
            np.save(os.path.join(out_dir, f"{name}.npy"), array)
    return report
