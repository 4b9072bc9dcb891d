"""Benchmark of the polyprimelab CLI.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each op is one `polyprimelab.cli.main(argv)` call in a fresh interpreter
(child.py), because that is how a user runs the CLI: first-touch costs are
real costs.  Ops run one at a time in a closed loop from this process until
--seconds have passed, and at least MIN_ROUNDS times.  Every op's output is
checked by oracles that do not use the package (oracles.py).

With --trace 0 the last stdout line holds the end-to-end metrics, medians
over the run's ops.  With --trace 1 untraced and traced ops alternate: the
last line holds the per-layer metrics from the traced ops (perftrace.py), the
rusage counters of the untraced ones, and the tracing overhead.  A summary
table and a `details` JSON line (seed, environment, sizes, samples) come
before the last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
import perftrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

OP_TIMEOUT_S = 60.0
MIN_ROUNDS = 3
SEARCH_N = 30000
SEARCH_COLORS = 2

# Why each workload: see README.md in this directory.
WORKLOADS = {
    "transfer-int": ["transfer", "--n", "3000000", "--psi", "1,1,0", "--b0", "1", "--w0", "2"],
    "transfer-prime": [
        "transfer", "--variant", "prime-coloring", "--psi", "1,1,4", "--b0", "1", "--w0", "1",
        "--w", "2:2,3:1,5:1", "--n", "12000000",
    ],
    "counterexample": [
        "counterexample", "--psi", "6,0,0", "--b0", "1", "--w0", "1", "--p", "3", "--n", "3000000",
    ],
    "search": ["search", "--psi", "1,1,0", "--b0", "1", "--w0", "2"],
}

END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    specs = []
    for name in perftrace.TIMED_NAMES:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                  (f"{name}.errors", "count", "lower")]
    return specs + [
        ("spectral.dft.points", "count", "lower"),
        ("numtheory.is_prime.calls", "count", "lower"),
        ("counting.solutions_per_is_prime", "ratio", "higher"),
        ("experiments.output_bytes", "B", "lower"),
        ("cli.user_s", "s", "lower"),
        ("cli.sys_s", "s", "lower"),
        ("cli.minor_faults", "count", "lower"),
        ("cli.peak_rss_bytes_per_N", "B", "lower"),
        ("tracing.overhead_s", "s", "lower"),
    ]


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _psi(argv: list[str]) -> tuple[int, ...]:
    return tuple(int(c) for c in _flag(argv, "--psi").split(","))


def prepare(name: str, seed: int, work: str):
    """The op's argv and what its oracle needs, all made from the seed."""
    argv = WORKLOADS[name] + ["--seed", str(seed)]
    if name == "counterexample":
        return argv, int(np.count_nonzero(oracles.prime_mask(int(_flag(argv, "--n")))))
    if name == "search":
        colors = np.zeros(SEARCH_N + 1, dtype=np.int64)
        colors[1:] = np.random.default_rng([seed, SEARCH_N]).integers(1, SEARCH_COLORS + 1, SEARCH_N)
        path = os.path.join(work, "coloring.txt")
        with open(path, "w") as fh:
            fh.write(f"integers {SEARCH_N} {SEARCH_COLORS} perfbench-random;seed={seed}\n")
            fh.write("".join(f"{x} {c}\n" for x, c in enumerate(colors[1:].tolist(), start=1)))
        expected = oracles.count_solutions(colors, _psi(argv), int(_flag(argv, "--b0")),
                                           int(_flag(argv, "--w0")))
        return argv + ["--coloring", path], (colors, expected)
    return argv, None


def check(argv: list[str], out_dir: str, expect) -> list[str]:
    command = argv[0]
    try:
        with open(os.path.join(out_dir, f"{command}.json")) as fh:
            report = json.load(fh)
        psi, b0, w0 = _psi(argv), int(_flag(argv, "--b0")), int(_flag(argv, "--w0"))
        if command == "transfer":
            return oracles.check_transfer(report, psi, b0, w0)
        if command == "counterexample":
            return oracles.check_counterexample(report, expect)
        with open(os.path.join(out_dir, "solutions.csv"), "rb") as fh:
            csv_bytes = fh.read()
        colors, expected = expect
        return oracles.check_search(report, csv_bytes, colors, psi, b0, w0, expected)
    except (OSError, KeyError, ValueError, TypeError) as e:
        return [f"malformed output: {e!r}"]


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with its own rusage; kill it past the deadline."""
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                timed_out = True
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, timed_out


def _outputs(out_dir: str) -> tuple[dict, int]:
    """sha256 per output file, and the total bytes written."""
    digests, total = {}, 0
    for dirpath, _, files in os.walk(out_dir):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                data = fh.read()
            digests[os.path.relpath(path, out_dir)] = hashlib.sha256(data).hexdigest()
            total += len(data)
    return digests, total


def run_op(argv: list[str], op_id: int, trace: bool, op_dir: str, env: dict) -> dict:
    shutil.rmtree(op_dir, ignore_errors=True)
    out_dir = os.path.join(op_dir, "out")
    os.makedirs(out_dir)
    result_path = os.path.join(op_dir, "result.json")
    cmd = [sys.executable, CHILD, result_path, str(op_id), str(int(trace)), *argv, "--out", out_dir]
    with open(os.path.join(op_dir, "child.log"), "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        usage, timed_out = _wait(proc, spawned + OP_TIMEOUT_S)
    op = {
        "trace": trace,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "out_dir": out_dir,
        "error": None,
    }
    if timed_out:
        op["error"] = f"timed out after {OP_TIMEOUT_S} s"
        return op
    try:
        with open(result_path) as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        with open(os.path.join(op_dir, "child.log"), "rb") as fh:
            tail = fh.read()[-400:].decode(errors="replace")
        op["error"] = f"child exited {proc.returncode} without a result: {tail}"
        return op
    op.update(wall_s=res["end"] - res["start"], setup_s=res["ready"] - spawned, result=res)
    if res["error"] or res["rc"] != 0 or proc.returncode != 0:
        op["error"] = f"exit {res['rc']!r}/{proc.returncode}: {res['error']}"
    return op


def report_sizes(report: dict) -> dict:
    ctx, tr = report.get("context", {}), report.get("transference", {})
    sizes = {k: int(ctx[k]) for k in ("N", "M", "W", "K") if k in ctx}
    if tr:
        sizes["R"] = int(tr["large_spectrum_size"])
        sizes["B"] = int(tr["bohr_size"])
    if "dense_class" in report:
        sizes["dense_class"] = int(report["dense_class"]["size"])
    sizes["solutions"] = int(report.get("solutions_found", report.get("solutions_sampled", 0)))
    return sizes


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
    }


def _median(ops: list[dict], key: str) -> float:
    return statistics.median(op[key] for op in ops)


def per_layer(traced: list[dict], plain: list[dict], sizes: dict) -> dict:
    layers = []
    for op in traced:
        res = op["result"]
        m = perftrace.layer_metrics(res["spans"], res["calls"], res["calls_inside"])
        inside = m.pop("numtheory.is_prime.calls_inside")
        m["counting.solutions_per_is_prime"] = sizes["solutions"] / inside if inside else 0.0
        layers.append(m)
    out = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    out["experiments.output_bytes"] = _median(traced + plain, "output_bytes")
    for key in ("user_s", "sys_s", "minor_faults"):
        out[f"cli.{key}"] = _median(plain, key)
    rss_bytes = _median(plain, "peak_rss_mb") * 1024 * 1024
    out["cli.peak_rss_bytes_per_N"] = rss_bytes / sizes["N"] if "N" in sizes else 0.0
    out["tracing.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    load_start = os.getloadavg()
    ops, reference, sizes = [], None, {}
    try:
        argv, expect = prepare(name, seed, work)
        sides = (False, True) if trace else (False,)
        start = time.monotonic()
        while len(ops) < MIN_ROUNDS * len(sides) or time.monotonic() - start < seconds:
            for side in sides:
                op = run_op(argv, len(ops), side, os.path.join(work, "op"), env)
                ops.append(op)
                if op["error"]:
                    continue
                digests, op["output_bytes"] = _outputs(op["out_dir"])
                if reference is None:
                    errors = check(argv, op["out_dir"], expect)
                    if errors:
                        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
                        op["error"] = "; ".join(errors[:3]) + more
                        continue
                    reference = digests
                    with open(os.path.join(op["out_dir"], f"{argv[0]}.json")) as fh:
                        sizes = report_sizes(json.load(fh))
                elif digests != reference:
                    op["error"] = "output differs from the first checked op's output"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [op for op in ops if not op["error"]]
    plain = [op for op in good if not op["trace"]]
    traced = [op for op in good if op["trace"]]
    result = {
        "correct": len(good) == len(ops),
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": {},
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "sizes": sizes,
        "errors": [op["error"] for op in ops if op["error"]],
        "samples": {k: [op[k] for op in plain] for k, _ in END_TO_END},
    }
    print(f"{name}  seed={seed}  trace={int(trace)}  attempted={len(ops)}  failed={result['failed']}")
    if plain and (traced or not trace):
        if trace:
            layer = per_layer(traced, plain, sizes)
            result["metrics"] = {k: {"value": layer[k], "unit": u} for k, u, _ in per_layer_specs()}
            details["traced_samples"] = {"wall_s": [op["wall_s"] for op in traced]}
            details["unwrapped"] = traced[0]["result"]["unwrapped"]
            for k, _, _ in per_layer_specs():
                if layer[k]:
                    print(f"  {k:<48} {layer[k]:.6g}")
        else:
            for k, unit in END_TO_END:
                result["metrics"][k] = {"value": _median(plain, k), "unit": unit}
                print(f"  {k:<12} {_median(plain, k):12.6f} {unit:<3} n={len(plain)}")
    print(f"  {'error_rate':<12} {result['failed'] / len(ops):12.6f}     n={len(ops)}")
    print(json.dumps({"details": details}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polyprimelab", "cli.py")):
        print(f"error: no polyprimelab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
