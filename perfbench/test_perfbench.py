"""Tests for the benchmark itself: each oracle rejects a corrupted output,
the tracer's self times subtract child spans, and BENCHMARK.json lists the
metrics the benchmark reports."""

from __future__ import annotations

import json
import os
import time

import numpy as np

import oracles
import perftrace
import run

PSI, B0, W0 = (1, 1, 0), 1, 2  # x^2 + x with 2z + 1 prime


def _transfer_report(triples):
    return {
        "lifted_solutions": [{"x": str(x), "y": str(y), "z": str(z)} for x, y, z in triples],
        "solutions_sampled": str(len(triples)),
        "transference": {"mass_measure": 0.96},
    }


def test_transfer_oracle_rejects_shifted_z():
    good = [(1, 5, 2), (4, 26, 5)]  # psi(2) = 6, 2*2+1 = 5; psi(5) = 30, 2*5+1 = 11
    assert oracles.check_transfer(_transfer_report(good), PSI, B0, W0) == []
    shifted = [(1, 5, 3), (4, 26, 5)]
    assert oracles.check_transfer(_transfer_report(shifted), PSI, B0, W0)


def test_transfer_oracle_rejects_mass_outside_band():
    report = _transfer_report([(1, 5, 2)])
    report["transference"]["mass_measure"] = 1.4
    assert oracles.check_transfer(report, PSI, B0, W0)


def _brute_solutions(colors):
    n = len(colors) - 1
    rows = []
    for z in range(1, n):
        s = z * z + z
        if s > 2 * n:
            break
        if not oracles.is_prime(2 * z + 1):
            continue
        for x in range(1, n + 1):
            y = s - x
            if x < y <= n and colors[x] == colors[y]:
                rows.append((int(colors[x]), x, y, z))
    return rows


def test_search_oracle_rejects_dropped_row():
    colors = np.zeros(61, dtype=np.int64)
    colors[1:] = np.random.default_rng(3).integers(1, 3, 60)
    rows = _brute_solutions(colors)
    expected = oracles.count_solutions(colors, PSI, B0, W0)
    assert expected == len(rows) > 1
    report = {"solutions_found": str(expected)}

    def csv(rs):
        return ("color,x,y,z\n" + "".join(f"{c},{x},{y},{z}\n" for c, x, y, z in rs)).encode()

    assert oracles.check_search(report, csv(rows), colors, PSI, B0, W0, expected) == []
    assert oracles.check_search(report, csv(rows[1:]), colors, PSI, B0, W0, expected)


def test_counterexample_oracle_rejects_nonzero_solution_count():
    pi_100 = int(np.count_nonzero(oracles.prime_mask(100)))
    report = {"empty": True, "solutions_found": "0", "classes": {"1": {"count": str(pi_100)}}}
    assert pi_100 == 25
    assert oracles.check_counterexample(report, pi_100) == []
    report["solutions_found"] = "1"
    assert oracles.check_counterexample(report, pi_100)


def test_oracle_primality_matches_sieve():
    mask = oracles.prime_mask(5000)
    assert [oracles.is_prime(k) for k in range(5001)] == mask.tolist()


def test_self_time_subtracts_child_span():
    tracer = perftrace.Tracer()
    child = tracer.timed("m.child", lambda: time.sleep(0.01))

    def parent_body():
        time.sleep(0.005)
        child()

    tracer.timed("m.parent", parent_body)()
    parent, kid = tracer.spans
    assert parent[perftrace.NAME] == "m.parent" and kid[perftrace.PARENT] == 0
    selfs = perftrace.self_times(tracer.spans)
    duration = parent[perftrace.END] - parent[perftrace.START]
    assert selfs[0] == duration - (kid[perftrace.END] - kid[perftrace.START])
    assert selfs[1] == kid[perftrace.END] - kid[perftrace.START]


def test_benchmark_json_lists_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [k for k, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_specs()
