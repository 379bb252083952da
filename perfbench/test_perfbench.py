"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import bootstrap

bootstrap.pin_blas_env()
bootstrap.add_src()

import pytest  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

POOL = wl.load_pool()


@pytest.fixture
def tmp_path(request):
    """A fresh directory under perfbench/_work, so the tests write only
    inside the checkout; removed afterwards so pytest never collects the
    copy of this file that test_fails_without_sources makes."""
    path = bootstrap.WORK / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def small_suite(tmp_path, seed=1, slots=(1, 2, 3, 4, 9, 14, 55)):
    """The zero-gap workload cut down to a few cheap slots (and the known
    defect), so a test can run it several times."""
    work = wl.ZeroGapSuite(POOL, seed, tmp_path)
    work.setup()
    work.ops = [op for op in work.ops if int(op.label.split()[1]) in slots]
    return work


def traced(ops):
    bootstrap.set_blas_threads(bootstrap.nproc())
    tracer = Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            with tracer.operation(i):
                wl.run_op(op)
    finally:
        tracer.uninstall()
    return tracer


def cli_op(tmp_path):
    work = wl.CappedCliCurve(POOL, 1, tmp_path)
    work.setup()
    return work.ops[0]


def test_perturbed_reference_is_a_failure(tmp_path):
    pool = json.loads(json.dumps(POOL))
    work = wl.ZeroGapSuite(pool, 0, tmp_path)
    work.select()[1]["price"] *= 1.0 + 1e-6
    work.setup()
    _, outcome = wl.run_op(work.ops[1])
    assert not outcome.ok and outcome.wrong
    _, clean = wl.run_op(small_suite(tmp_path, 0, (2,)).ops[0])
    assert clean.ok and not clean.wrong


def test_perturbed_cli_reference_is_a_failure(tmp_path):
    op = cli_op(tmp_path)
    assert op.label.startswith("small") and " nb " in op.label
    code = op.run()
    refs = sorted(
        (dict(r) for r in wl.CappedCliCurve(POOL, 1, tmp_path).select()
         if r["tree"] == "small" and r["mode"] == "nb"),
        key=lambda r: r["lam"],
    )
    assert wl.check_cli_output("clean", code, op.output, refs).ok
    refs[2]["primal"] += 1e-3
    out = wl.check_cli_output("perturbed", code, op.output, refs)
    assert not out.ok and out.wrong


def test_known_defect_counts_as_failed_not_wrong(tmp_path):
    work = small_suite(tmp_path, 3, (55,))
    _, outcome = wl.run_op(work.ops[0])
    assert not outcome.ok and not outcome.wrong
    assert "supermartingale" in outcome.notes[0]


def test_child_self_times_within_parent(tmp_path):
    ops = small_suite(tmp_path).ops + [cli_op(tmp_path)]
    tracer = traced(ops)
    own = tracer.self_times()
    assert len(tracer.spans) > 100
    for span, t in zip(tracer.spans, own):
        assert t >= -1e-9, span
        if span[3] >= 0:
            parent = tracer.spans[span[3]]
            assert parent[1] <= span[1] <= span[2] <= parent[2]
            assert t <= parent[2] - parent[1]
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    assert sum(own) == pytest.approx(roots, rel=1e-9)
    names = {s[0] for s in tracer.spans}
    assert {"lp.solve.dual", "lp.solve.primal", "lp.solve.aux", "cli.main"} <= names


def test_per_layer_times_and_glue_add_up_to_wall(tmp_path):
    tracer = traced(small_suite(tmp_path).ops)
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    wall = roots + 0.25
    m = tracer.metrics(1, wall, wall)
    times = sum(v["value"] for k, v in m.items() if v["unit"] == "s" and not k.startswith("trace."))
    assert times == pytest.approx(wall, rel=1e-9)


def test_seed_determines_instances():
    for cls in wl.WORKLOADS.values():
        a = cls(POOL, 5, Path(".")).select()
        assert a == cls(POOL, 5, Path(".")).select(), cls.name
        assert a != cls(POOL, 6, Path(".")).select(), cls.name
    for seed in range(5):
        chosen = wl.ZeroGapSuite(POOL, seed, Path(".")).select()
        defect = chosen[wl.KNOWN_DEFECT_SLOT - 1]
        assert (defect["slot"], defect["variant"]) == (wl.KNOWN_DEFECT_SLOT, 0)


def test_same_seed_same_trees(tmp_path):
    a = wl.CertifyToolkit(POOL, 2, tmp_path).select()[:2]
    b = wl.CertifyToolkit(POOL, 2, tmp_path).select()[:2]
    trees = [
        wl.sh.dumps_tree(wl.sh.generate_random_tree(r["tree_seed"], r["depth"], 2)) for r in a + b
    ]
    assert trees[:2] == trees[2:]


def test_lp_iterations_repeat_exactly(tmp_path):
    ops = small_suite(tmp_path).ops + [cli_op(tmp_path)]
    counts = []
    for _ in range(2):
        tracer = traced(ops)
        counts.append({k: v for k, v in tracer.counts.items() if "iterations" in k[1]})
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values()) and len(counts[0]) == 3


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(200)), 1)[1] == "p95"
    assert run.tail(list(range(400)), 2)[1] == "p95"
    assert run.tail(list(range(1000)), 1)[1] == "p99"
    assert run.tail(list(range(9)), 1) == (8, "max")
    assert run.tail([1, 5, 2, 1, 7, 2, 1, 6, 2], 3) == (6, "max")


def test_fails_without_sources(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text("{}")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
