"""Self-tests of the benchmark: generators, oracles, tracer and a smoke run.

Run with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import reference
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ppav  # noqa: E402
from ppav import cli, orders, weil  # noqa: E402


def cli_output(argv, capsys):
    assert cli.main(["--threads", "1", *argv]) == 0
    return {"stdout": capsys.readouterr().out}


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("size", ["smoke", "full"])
def test_generator_is_deterministic(name, size):
    first = workloads.generate(name, 11, size)
    assert first == workloads.generate(name, 11, size)
    assert first != workloads.generate(name, 12, size)


def test_hurwitz_class_numbers():
    expected = {3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 11: 1,
                12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2), 20: 2, 23: 3}
    assert {n: workloads.hurwitz_weighted(n) for n in expected} == expected


def test_surface_simplicity_matches_package():
    import random

    rng = random.Random(3)
    for q, a, b in workloads.surface_classes(rng, 8, 400):
        assert weil.is_simple((q * q, a * q, b, a, 1))
    # (x^2 - 3x + 5)^2 is a Weil polynomial over F_5 that is not simple
    assert not workloads.surface_is_simple(5, -6, 19)


def test_census_oracle_rejects_changed_class_number(tmp_path, capsys):
    op = ["ec-census", "--p", "1091", "--out", str(tmp_path / "c.csv")]
    output = cli_output(op, capsys)
    output["csv"] = (tmp_path / "c.csv").read_text()
    output["summary"] = (tmp_path / "c.csv.summary.json").read_text()
    assert workloads.check("ec-census", op, output) is None
    header, first, *rest = output["csv"].splitlines()
    t, delta, h, x = first.split(",")
    bad = dict(output, csv="\n".join([header, f"{t},{delta},{int(h) + 1},{x}", *rest]))
    assert "Kronecker-Hurwitz" in workloads.check("ec-census", op, bad)


@pytest.mark.parametrize("name", ["surface-analyze", "ec-analyze"])
def test_analyze_oracle_rejects_perturbed_trig_ratio(name, capsys):
    op = workloads.generate(name, 1, "smoke")[0]
    output = cli_output(op, capsys)
    assert workloads.check(name, op, output) is None
    lines = [json.loads(line) for line in output["stdout"].splitlines()]
    lines[1]["ratio_trig"] *= 1 + 1e-7
    bad = {"stdout": "\n".join(json.dumps(line) for line in lines)}
    assert "ratio_trig" in workloads.check(name, op, bad)


def test_genus_oracle_rejects_odd_class_number(capsys):
    # t^2 - 4q = -403 = -13 * 31 is fundamental, so genus theory makes h even
    op = ["analyze", "--weil", "101,-1,1", "--q", "101", "--json"]
    output = cli_output(op, capsys)
    assert workloads.check("ec-analyze", op, output) is None
    lines = [json.loads(line) for line in output["stdout"].splitlines()]
    lines[1]["exact_count"] = str(int(lines[1]["exact_count"]) + 1)
    bad = {"stdout": "\n".join(json.dumps(line) for line in lines)}
    assert "not divisible" in workloads.check("ec-analyze", op, bad)


def test_family_oracle_rejects_wrong_ratio(capsys):
    op = ["examples", "--family", "smaller", "--pmax", "200"]
    output = cli_output(op, capsys)
    assert workloads.check("family-sweep", op, output) is None
    lines = [json.loads(line) for line in output["stdout"].splitlines()]
    lines[-1]["ratio_exact"] = str(int(lines[-1]["ratio_exact"]) + 1)
    bad = {"stdout": "\n".join(json.dumps(line) for line in lines)}
    assert "family smaller" in workloads.check("family-sweep", op, bad)


def test_tracer_spans_add_up_and_keep_classes(capsys):
    spans = tracer.Tracer()
    spans.install(ppav)
    try:
        cli.main(["analyze", "--weil", "529,-138,32,-6,1", "--q", "23", "--json"])
        stats = spans.snapshot()["stats"]
        assert isinstance(orders.FieldContext, type)
        ctx = orders.FieldContext([529, -138, 32, -6, 1], 23)
        assert orders.lattice_to_json(orders.minimal_order(ctx))["q"] == 23
    finally:
        spans.uninstall()
    capsys.readouterr()
    assert stats["orders.FieldContext"][0] == 1
    assert sum(s[2] for s in stats.values()) == pytest.approx(stats["cli.main"][1], rel=1e-9)
    assert not hasattr(cli.main, "__wrapped__")


def test_reference_kernel_and_scaling():
    for n in (3, 4, 7, 12, 15, 16, 23, 60_003):
        assert reference.class_count(n) == 6 * workloads.hurwitz_weighted(n)
    # slices that ran at half the reference speed halve a scaled time
    assert reference.scale(3.0, 10, 20 * reference.SLICE_S) == pytest.approx(1.5)


def test_sampler_slices_interrupt_the_work():
    with reference.Sampler() as sampler:
        start = perf_counter()
        while perf_counter() - start < 0.1:
            pass
        end = perf_counter()
    count, inside = sampler.inside(start, end)
    assert count >= 3 and 0 < inside < end - start
    assert sampler.slices > count  # one more as the sampler starts


def test_ops_are_scaled_by_their_neighbours_slices():
    slow = 2 * reference.SLICE_S  # half the reference speed
    ops = [
        {"ms": 10.0, "ref_slices": 0, "ref_s": 0.0},
        {"ms": 20.0, "ref_slices": 10, "ref_s": 10 * slow},
        {"ms": 30.0, "ref_slices": 1, "ref_s": reference.SLICE_S},
    ]
    entry = {"ref_slices": 12, "ref_s": 11 * slow, "ops": ops}
    first, second, third = run.op_latencies([entry])
    assert (first, second) == (pytest.approx(5.0), pytest.approx(10.0))
    assert third == pytest.approx(30.0 * 11 / 21)
    # too few slices in every op: the whole pass scales them
    few = dict(entry, ops=[dict(op, ref_slices=0, ref_s=0.0) for op in ops])
    assert run.op_latencies([few])[2] == pytest.approx(30.0 * 12 / 22)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_all_workloads(trace):
    expected = run.PER_LAYER if trace else run.END_TO_END
    for name in workloads.NAMES:
        _, result = run.run_one(name, 1, 0.2, trace, "smoke")
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(expected)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ec-census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
