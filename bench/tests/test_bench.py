"""Tests of the benchmark itself: span arithmetic, output checks, generator.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


# ------------------------------------------------------------------ spans

def test_self_time_of_nested_spans():
    # cli.main [0, 10] > write_table [1, 4] > (none); cli.main > run_link [5, 9]
    # run_link > eye_diagram [6, 7]; a second top-level span [12, 13]
    recs = [
        ["cli.main", 0.0, 10.0, -1, None, "r"],
        ["deviceio.write_table", 1.0, 4.0, 0, {"cells": 6, "bytes": 40}, "r"],
        ["link.run_link", 5.0, 9.0, 0, {"steps": 100}, "r"],
        ["link.eye_diagram", 6.0, 7.0, 2, None, "r"],
        ["sweep.run_sweep", 12.0, 13.0, -1, {"rows": 3}, "r"],
    ]
    out = spans.layer_metrics(recs, {"core.cooperativity": 7}, wall=15.0)
    assert out["cli.self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert out["deviceio.self_s"] == pytest.approx(3.0)
    assert out["link.self_s"] == pytest.approx((4.0 - 1.0) + 1.0)
    assert out["link.run_link.busy_s"] == pytest.approx(4.0)
    assert out["link.eye_diagram.busy_s"] == pytest.approx(1.0)
    assert out["sweep.self_s"] == pytest.approx(1.0)
    assert out["trace.remainder_s"] == pytest.approx(15.0 - 10.0 - 1.0)
    assert out["deviceio.write_table.cells"] == 6
    assert out["core.cooperativity.calls"] == 7
    modules = sum(out[f"{m}.self_s"] for m in ("cli", "deviceio", "link", "sweep"))
    assert modules + out["trace.remainder_s"] == pytest.approx(15.0)


def test_tracer_patches_rebound_names_and_restores_them():
    from transducersim import cli, deviceio, link
    original = deviceio.write_trace
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        assert cli.write_trace is deviceio.write_trace is not original
        assert link.run_link is cli.run_link
    finally:
        tracer.uninstall()
    assert cli.write_trace is deviceio.write_trace is original


# ----------------------------------------------------------------- checks

def _judge_with_reference(tmp_path):
    (tmp_path / "out").mkdir()
    csv = tmp_path / "out" / "t.csv"
    csv.write_text("hz,lin\n1,2.5\n2,3.5\n3,4.5\n")
    text = "points = 3\nout = out/t.csv\n"
    key = "w/op"
    ref = {key: {"stdout": check.text_fingerprint(text, run.hashlib.sha256(
        text.encode()).hexdigest()), "files": {"out/t.csv": worker.csv_fingerprint(csv)}}}
    op = {"slot": "op", "kind": "spectrum", "key": key, "outputs": ["out/t.csv"]}
    return run.Judge(ref, {}, tmp_path), op, csv, text


def test_checker_passes_identical_outputs(tmp_path):
    judge, op, _, text = _judge_with_reference(tmp_path)
    judge.cli(op, 0, text)
    assert judge.finish() == []
    assert (judge.bitwise, judge.outputs) == (2, 2)


def test_checker_flags_a_perturbed_output_file(tmp_path):
    judge, op, csv, text = _judge_with_reference(tmp_path)
    csv.write_text("hz,lin\n1,2.5\n2,3.5001\n3,4.5\n")
    judge.cli(op, 0, text)
    failures = judge.finish()
    assert len(failures) == 1 and "out/t.csv" in failures[0][1][0]
    assert judge.bitwise == 1


def test_checker_accepts_last_digit_changes(tmp_path):
    judge, op, csv, text = _judge_with_reference(tmp_path)
    csv.write_text("hz,lin\n1,2.5000000000000004\n2,3.5\n3,4.5\n")
    judge.cli(op, 0, text)
    assert judge.finish() == []
    assert judge.bitwise == 1          # stdout only


def test_checker_flags_a_wrong_exit_code(tmp_path):
    judge, op, _, text = _judge_with_reference(tmp_path)
    judge.cli(op, 2, text)
    failures = judge.finish()
    assert failures and "exit code 2" in failures[0][1]


def test_checker_flags_changed_stdout_and_bad_fits():
    ref = check.text_fingerprint("g_om = 128043.5951 +/- 876.9\n", "a")
    near = check.text_fingerprint("g_om = 128043.5952 +/- 876.9\n", "b")
    far = check.text_fingerprint("g_om = 128050 +/- 876.9\n", "c")
    assert check.compare(ref, near) == []
    assert check.compare(ref, far)
    truth = {"g_om": 1.3e5, "gamma_mi": 8.3e6}
    values = {"g_om": 1.0e5, "gamma_mi": 8.3e6, "converged": "True"}
    assert check.fit_problems(values, "points", truth)
    assert check.swap_problems(0.2, 0.8)


# -------------------------------------------------------------- generator

def _generate(tmp_path, workload, seed):
    root = tmp_path / f"{workload}-{seed}"
    worker.write_inputs(workload, wl.choose(workload, seed), root)
    return {p.name: p.read_bytes() for p in sorted((root / "in").iterdir())}


@pytest.mark.parametrize("workload", ["link_cli", "analysis_cli"])
def test_generator_is_deterministic_and_seeded(tmp_path, workload):
    first = _generate(tmp_path / "a", workload, 3)
    assert first == _generate(tmp_path / "b", workload, 3)
    others = [_generate(tmp_path / "c", workload, s) for s in (4, 5)]
    assert all(o != first for o in others)


def test_every_chosen_request_has_a_reference():
    ref = json.loads((BENCH / "reference.json").read_text())
    for workload in wl.WORKLOADS:
        for seed in range(20):
            for op in wl.ops(workload, wl.choose(workload, seed)):
                assert op["key"] in ref


def test_rounds_spread_repeats_over_the_pass():
    ops = [{"slot": "a", "repeat": 1}, {"slot": "b", "repeat": 3},
           {"slot": "c", "repeat": 2}]
    order = [[op["slot"] for op in r] for r in wl.rounds(ops)]
    assert order == [["a", "b", "c"], ["b", "c"], ["b"]]
    for workload in ("link_cli", "analysis_cli"):
        requests = wl.ops(workload, wl.choose(workload, 0))
        flat = [op["slot"] for r in wl.rounds(requests) for op in r]
        assert sorted(flat) == sorted(op["slot"] for op in requests
                                      for _ in range(op["repeat"]))
