"""Tests of the benchmark itself: reference rules, span accounting, and a
smoke pass over every workload.

    python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from specflow import scatter, sflow, upath  # noqa: E402

import references  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# fail_frac of one pass at the commit that introduced the benchmark: the
# depth-30 3D well raises RouteDisagreement, everything else passes
RECORDED_FAIL_FRAC = {"levinson-3d": 1 / 3, "levinson-1d": 0.0,
                      "dense-loop": 0.0, "open-paths": 0.0}


@pytest.mark.parametrize("depth,count", [(3.0, 1), (12.0, 4), (30.0, 10)])
def test_bessel_zero_rule_matches_package(depth, count):
    V = scatter.RadialPotential.square_well(depth, radius=1.0)
    assert references.bound_states_3d_square_well(depth, 1.0) == count
    assert scatter.bound_states_radial(V) == count


@pytest.mark.parametrize("depth,count", [(2.0, 1), (5.0, 2), (20.0, 3)])
def test_1d_square_well_rule_matches_package(depth, count):
    V = scatter.Potential1D.square_well(depth, 1.0)
    assert references.bound_states_1d_square_well(depth, 1.0) == count
    assert scatter.bound_states_1d(V) == count


@pytest.mark.parametrize("segments,count", [
    (workloads.DOUBLE_WELL, 4),
    (workloads._gaussian_segments(), 2),
])
def test_fd_count_matches_package(segments, count):
    V = scatter.Potential1D(segments=segments)
    assert references.bound_states_1d_fd(segments) == count
    assert scatter.bound_states_1d(V) == count


def test_winding_sum_matches_phillips():
    phillips = workloads.build("dense-loop", 0)[0]
    assert phillips.kind == "sf_phillips"
    assert phillips.answer(phillips.call()) == phillips.reference()


def test_generator_rule_matches_open_path():
    rng = np.random.default_rng(7)
    for _ in range(6):
        dim = int(rng.integers(2, 5))
        s = float(rng.uniform(0.5, 6.0))
        H = workloads.random_hermitian(dim, rng)
        want = references.open_generator_flow(s * np.linalg.eigvalsh(H))
        path = upath.generator_path(1j * s * H)
        assert sflow.sf_open_path(path, n=1).value == want


def _cheapest(name):
    solves = workloads.build(name, 0)
    if name == "levinson-3d":
        return next(s for s in solves if s.label.endswith("depth 3"))
    if name == "levinson-1d":
        return next(s for s in solves if s.label.endswith("depth 2"))
    return solves[0]


def _traced_attributes():
    """Every attribute the tracer may replace, keyed by owner and name."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "specflow" or name.startswith("specflow."):
            for _, _, attr, _ in tracer.FUNCTIONS + tracer.SCOPED_FUNCTIONS:
                if attr in mod.__dict__:
                    found[(name, attr)] = mod.__dict__[attr]
    for _, cls, attr, _ in tracer.METHODS:
        found[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return found


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_self_times_add_up(name):
    solve = _cheapest(name)
    before = _traced_attributes()
    tr = tracer.Tracer()
    with tr:
        assert _traced_attributes() != before
        tr.solve = 0
        solve.call()
    after = _traced_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    spans = tr.spans
    assert spans and all(s[4] == 0 for s in spans)
    selfs = tracer.self_times(spans)
    children = [[] for _ in spans]
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            assert p_start <= start <= end <= p_end
            children[parent].append(i)
    for i, (_, start, end, _, _, _) in enumerate(spans):
        child_total = sum(spans[j][2] - spans[j][1] for j in children[i])
        assert selfs[i] >= -1e-9
        assert selfs[i] + child_total == pytest.approx(end - start,
                                                      abs=1e-9)


def test_median_repeats_divides_by_slowdown():
    outcomes = [(0, None, 0.30, 1.5, "ok", None),
                (1, None, 0.50, 1.0, "error", "x"),
                (0, None, 0.20, 1.0, "ok", None),
                (1, None, 0.40, 2.0, "ok", None),
                (0, None, 0.80, 2.0, "ok", None)]
    typical, always_ok = run.median_repeats(outcomes)
    assert typical == pytest.approx({0: 0.20, 1: 0.35})
    assert always_ok == {0: True, 1: False}


def test_median_by_kind_counts_each_kind_once():
    solves = [workloads.Solve(kind, "", None, None)
              for kind in ("fast", "fast", "fast", "slow", "slow", "slower")]
    typical = dict(enumerate([0.1, 0.2, 0.3, 1.0, 1.2, 5.0]))
    always_ok = {i: i != 5 for i in typical}
    assert run.median_by_kind(solves, typical, always_ok) == pytest.approx(
        0.65)


def test_open_path_speeds_cover_every_stratum():
    for seed in (0, 1):
        solves = workloads.build("open-paths", seed)
        assert len(solves) == 2 * workloads.OPEN_PATHS_PER_PASS
        # each generator path is solved twice; its reference closes over
        # the thetas s * eig(H), and H has spectral radius 1
        thetas = [solve.reference.__defaults__[0] for solve in solves
                  if solve.reference is not None][::2]
        speeds = sorted(float(np.max(np.abs(t))) for t in thetas)
        edges = np.linspace(0.5, 6.0, len(speeds) + 1)
        assert all(lo <= s < hi for s, lo, hi in
                   zip(speeds, edges[:-1], edges[1:]))


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.GENERATORS)


def _run(name, trace, cwd=ROOT):
    # --seconds 0: the fewest passes the mode allows
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_pass_records_fail_frac(name):
    out = _run(name, trace=1)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] / summary["attempted"] == pytest.approx(
        RECORDED_FAIL_FRAC[name])
    metrics = summary["metrics"]
    assert metrics["fail_frac"]["value"] == pytest.approx(
        RECORDED_FAIL_FRAC[name])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]


def test_untraced_run_reports_end_to_end_metrics():
    out = _run("open-paths", trace=0)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(summary["metrics"]) == [m["name"] for m in
                                        spec["end_to_end"]]
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "workloads.py", "references.py", "tracer.py",
              "probe.py"):
        (tmp_path / "bench" / f).write_text((BENCH / f).read_text())
    out = _run("open-paths", trace=0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
