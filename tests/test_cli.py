import json
import os
import subprocess
import sys

import numpy as np
import pytest

import specflow
from specflow import cli
from specflow.cli import main, potential_from_file
from specflow.rdet import logdet_p_vs_logdet
from specflow.upath import UnitaryPath, model_loop
from specflow.scatter import ChannelData, RadialPotential, levinson
from specflow.scatter.potentials import CALLABLE_SHELLS


def run_lines(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return rc, [json.loads(line) for line in out]


def test_import_leaves_scipy_integrate_unloaded():
    # a fresh interpreter that imports the package, as the console script
    # does, loads no scipy.integrate, scipy.interpolate or scipy.optimize:
    # the winding quadrature is the package's own, the phase table holds
    # no spline and regularization_necessity telescopes its rows
    src = os.path.dirname(os.path.dirname(specflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys, specflow.cli; "
         "print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.split(".")[:2] in (
        ["scipy", "integrate"], ["scipy", "interpolate"],
        ["scipy", "optimize"])]


def test_sf_loop_model(capsys):
    rc, recs = run_lines(["sf-loop", "--model", "k=2,dim=4"], capsys)
    assert rc == 0
    rec = recs[-1]
    assert rec["record_version"] == 1
    assert rec["command"] == "sf-loop"
    assert rec["result"]["value"] == 2
    assert rec["result"]["residual"] < 1e-6
    assert rec["result"]["method"] == "phillips"


def test_sf_loop_integral_methods(capsys):
    # the order flag picks the route
    for method, extra in (("alpha", ["--n", "2"]), ("beta", ["--r", "0.5"]),
                          ("det", ["--p", "2"])):
        rc, recs = run_lines(["sf-loop", "--model", "k=1,dim=3"] + extra,
                             capsys)
        assert rc == 0
        assert recs[-1]["result"]["value"] == 1
        assert recs[-1]["result"]["method"] == method


def test_sf_loop_error_record(capsys):
    rc, recs = run_lines(["sf-loop", "--model", "k=2"], capsys)
    assert rc == 2
    err = recs[-1]["result"]["error"]
    assert err["type"] == "SpecflowError"
    assert "model spec" in err["message"]


def test_sf_loop_invalid_order(capsys):
    rc, recs = run_lines(["sf-loop", "--model", "k=1,dim=2", "--r", "-1"],
                         capsys)
    assert rc == 2
    assert recs[-1]["result"]["error"]["type"] == "InvalidOrder"


def test_sf_path_geodesic(tmp_path, capsys):
    npz = tmp_path / "ends.npz"
    np.savez(npz, U0=np.eye(2, dtype=complex),
             U1=np.diag([1j, 1.0]).astype(complex))
    rc, recs = run_lines(["sf-path", "--path", f"geodesic:{npz}"], capsys)
    assert rc == 0
    res = recs[-1]["result"]
    assert res["value"] == 0
    assert "body_integral" in res
    assert "endpoint_correction" in res


def test_sf_path_scattering_sweep(tmp_path, capsys):
    pot = tmp_path / "well20.json"
    pot.write_text(json.dumps({"dimension": 1,
                               "segments": [[-1.0, 1.0, -20.0]]}))
    rc, recs = run_lines(["sf-path", "--path", f"scattering:{pot}"], capsys)
    assert rc == 0
    res = recs[-1]["result"]
    assert res["value"] == -2
    assert res["residual"] < 1e-6
    assert abs(res["body_integral"]["re"] - (-2.5)) < 0.05


def test_scattering_path_needs_a_1d_potential(tmp_path, capsys):
    # a radial potential file has no 1D sweep: an error record, not a
    # traceback
    pot = tmp_path / "radial.json"
    pot.write_text(json.dumps({"dimension": 3, "radius": 1.0, "depth": 3.0}))
    rc = main(["sf-path", "--path", f"scattering:{pot}"])
    out, err = capsys.readouterr()
    assert rc == 2
    error = json.loads(out.strip().splitlines()[-1])["result"]["error"]
    assert error["type"] == "SpecflowError"
    assert "needs a 1D potential" in error["message"]
    assert "Traceback" not in out + err


def test_scattering_path_has_exact_derivative(tmp_path, monkeypatch):
    # dS/dt comes from the kernel's exact S'(k), never from the path's
    # central-difference fallback
    pot = tmp_path / "well20.json"
    pot.write_text(json.dumps({"dimension": 1,
                               "segments": [[-1.0, 1.0, -20.0]]}))
    path = cli.path_from_spec(f"scattering:{pot}")
    h = 1e-4
    for t in (0.1, 0.5, 0.9):
        fd = (8.0 * (path(t + h) - path(t - h))
              - (path(t + 2 * h) - path(t - 2 * h))) / (12.0 * h)
        assert np.max(np.abs(path.derivative(t) - fd)) \
            < 1e-7 * np.max(np.abs(fd))

    def refuse(ts):
        raise AssertionError("the derivative sampled the path")

    monkeypatch.setattr(path, "_array_sampler", refuse)
    assert path.derivative(0.3).shape == (2, 2)
    assert path.derivatives(np.array([0.2, 0.7])).shape == (2, 2, 2)
    # the sweep is the one that levinson_verify counts on, over its
    # default wavenumbers
    same = levinson._sweep_1d(potential_from_file(pot))
    for t in (0.0, 0.37, 1.0):
        assert np.array_equal(path.derivative(t), same.derivative(t))


def test_det_winding(capsys):
    rc, recs = run_lines(["det", "--model", "k=1,dim=2", "--p", "1",
                          "--samples", "21"], capsys)
    assert rc == 0
    res = recs[-1]["result"]
    assert abs(res["winding"] - 1.0) < 1e-10
    assert len(res["samples"]) == 21
    row = res["samples"][0]
    assert set(row) >= {"t", "det_p", "log_det_p", "logderiv"}


@pytest.mark.parametrize("samples, winding", [(3, None), (5, None),
                                               (9, 3.0)])
def test_det_refuses_aliased_unwinding(samples, winding, capsys):
    # the winding-3 loop sampled at 3 and 5 points unwinds to 1 and -1; the
    # trapezoid of the log-derivative sees the step turn by more, and the
    # record is a PartitionFailure naming it.  At 9 points every step turns
    # by 3 pi / 4 and the winding is read
    rc, recs = run_lines(["det", "--model", "k=3,dim=3", "--p", "1",
                          "--samples", str(samples)], capsys)
    res = recs[-1]["result"]
    if winding is None:
        assert rc == 2
        assert res["error"]["type"] == "PartitionFailure"
        assert res["error"]["message"].startswith("step 0 ")
    else:
        assert rc == 0
        assert abs(res["winding"] - winding) < 1e-10


def test_det_samples_each_row_once(capsys, monkeypatch):
    # Det_p and both log-derivative sides share one U_t, so a row takes
    # the samples of the log-derivative sides and no more: five inside
    # the interval (U_t and a four-point stencil), three at its ends
    calls = []

    def counting_loop(k, dim):
        loop = model_loop(k, dim)

        def sampler(t):
            calls.append(t)
            return loop(t)

        return UnitaryPath(sampler, closed=True, dim=loop.dim)

    monkeypatch.setattr(cli, "model_loop", counting_loop)
    rc, recs = run_lines(["det", "--model", "k=1,dim=2", "--p", "2",
                          "--samples", "5"], capsys)
    assert rc == 0
    assert len(recs[-1]["result"]["samples"]) == 5
    assert len(calls) == 3 + 5 * 3 + 3
    calls.clear()
    path = counting_loop(1, 2)
    for t in np.linspace(0.0, 1.0, 5):
        logdet_p_vs_logdet(path, t, 2)
    assert len(calls) == 3 + 5 * 3 + 3


def test_cayley_record(capsys):
    rc, recs = run_lines(["cayley", "--model", "k=1,dim=2", "--t", "0.3"],
                         capsys)
    assert rc == 0
    res = recs[-1]["result"]
    assert res["subspace_dim"] == 1
    assert abs(res["eigenvalues"][0] - 1.0 / np.tan(0.3 * np.pi)) < 1e-10
    assert res["roundtrip_defect"] < 1e-10
    assert res["graph_idempotency_defect"] < 1e-10
    assert res["resolvent_bound_at_2i"] == 3.0
    assert abs(res["fp_distance_from_start"] - np.sin(0.3 * np.pi)) < 1e-10


def test_levinson_1d(capsys):
    rc, recs = run_lines(["levinson", "--dim", "1", "--well",
                          "depth=20,halfwidth=1"], capsys)
    assert rc == 0
    res = recs[-1]["result"]
    assert res["N"] == 3
    assert res["sf"] == -3
    assert res["verdict"] == "pass"
    assert res["classification"] == "none"


def test_levinson_1d_rejects_grid(capsys):
    rc, recs = run_lines(["levinson", "--dim", "1", "--well",
                          "depth=20,halfwidth=1", "--grid", "50"], capsys)
    assert rc == 2
    assert recs[-1]["result"]["error"]["type"] == "InvalidGrid"


LEVINSON_1D = ["levinson", "--dim", "1", "--well", "depth=2"]
SF_LOOP = ["sf-loop", "--model", "k=1,dim=2"]


@pytest.mark.parametrize("flag", [LEVINSON_1D + ["--jobs", "2"],
                                  LEVINSON_1D + ["--lmax", "4"],
                                  LEVINSON_1D + ["--seed", "3"],
                                  LEVINSON_1D + ["--tol", "1e-6"],
                                  SF_LOOP + ["--method", "alpha"],
                                  ["selftest", "--seed", "3"]])
def test_unused_flags_are_gone(flag):
    with pytest.raises(SystemExit) as exc:
        main(flag)
    assert exc.value.code == 2


def error_record(argv, capsys):
    rc, recs = run_lines(argv, capsys)
    assert rc == 2
    return recs[-1]["result"]["error"]


@pytest.mark.parametrize("orders", [["--n", "1", "--r", "1"],
                                    ["--n", "1", "--p", "2"],
                                    ["--r", "1", "--p", "2"]])
def test_sf_loop_rejects_two_orders(orders, capsys):
    err = error_record(SF_LOOP + orders, capsys)
    assert err["type"] == "SpecflowError"
    assert "at most one order flag" in err["message"]


def test_sf_loop_tol_needs_an_order(capsys):
    err = error_record(SF_LOOP + ["--tol", "1e-6"], capsys)
    assert err["type"] == "SpecflowError"
    assert "--tol needs an order flag" in err["message"]
    # with an order flag --tol is accepted
    rc, recs = run_lines(SF_LOOP + ["--n", "1", "--tol", "1e-6"], capsys)
    assert rc == 0
    assert recs[-1]["config"]["tol"] == 1e-6


@pytest.mark.parametrize("argv, kind", [
    (SF_LOOP + ["--n", "1", "--tol", "-1"], "SpecflowError"),
    (SF_LOOP + ["--n", "1", "--tol", "nan"], "SpecflowError"),
    (["sf-path", "--path", "model:1:2", "--tol", "0"], "SpecflowError"),
    (SF_LOOP + ["--r", "nan"], "InvalidOrder"),
    (SF_LOOP + ["--r", "inf"], "InvalidOrder"),
    (["sf-path", "--path", "model:1:2", "--r", "nan"], "InvalidOrder"),
    (["det", "--model", "k=1,dim=2", "--samples", "0"], "SpecflowError"),
    (SF_LOOP + ["--path", "model:1:2"], "SpecflowError"),
    (LEVINSON_1D + ["--potential", "well.json"], "SpecflowError"),
    (["levinson", "--dim", "1", "--well", "depth=2,radius=1"],
     "SpecflowError"),
    (["levinson", "--dim", "1", "--well", "depth=nan"], "SpecflowError"),
    (["levinson", "--dim", "1", "--well", "depth=inf"], "SpecflowError"),
    (["levinson", "--dim", "1", "--well", "depth=2,halfwidth=inf"],
     "SpecflowError"),
    (["levinson", "--dim", "3", "--well", "depth=nan"], "SpecflowError"),
    (["levinson", "--dim", "3", "--well", "depth=inf"], "SpecflowError"),
    (["levinson", "--dim", "3", "--well", "depth=3,radius=inf"],
     "SpecflowError"),
    (["levinson", "--dim", "3", "--well", "depth=3,radius=nan"],
     "SpecflowError"),
    (["cayley", "--model", "k=1,dim=2", "--p", "nan"], "InvalidOrder"),
])
def test_bad_values_are_error_records(argv, kind, capsys):
    assert error_record(argv, capsys)["type"] == kind


@pytest.mark.parametrize("argv, doc", [
    (LEVINSON_1D, {"seed": 3}),
    (LEVINSON_1D, {"tol": 1e-3}),
    (SF_LOOP, {"command": "det"}),
    (SF_LOOP, {"config": "other.json"}),
    (SF_LOOP, {"method": "alpha"}),
    (SF_LOOP, {"n": 1.5}),
    (SF_LOOP, {"n": 1, "r": 1}),
    (SF_LOOP, {"out": None}),
    (SF_LOOP, {"n": True}),
    (SF_LOOP, {"model": ["k=1,dim=2"]}),
    (LEVINSON_1D, {"dim": 2}),
    (SF_LOOP, [1, 2]),
    (SF_LOOP, None),
    (SF_LOOP, "{not json"),
])
def test_bad_config_is_an_error_record(argv, doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if doc is not None:
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    err = error_record(argv + ["--config", str(cfg)], capsys)
    assert err["type"] == "SpecflowError"


@pytest.mark.parametrize("argv", [
    ["sf-loop", "--model", "k=1.5,dim=2.7"],
    ["sf-loop", "--model", "k=1,dim=2.5"],
    ["sf-loop", "--model", "k=x,dim=2"],
    ["sf-loop", "--model", "k=1,dim="],
    ["sf-loop", "--path", "model:1.5:2"],
    ["sf-loop", "--path", "model:x:2"],
    ["sf-loop", "--path", "model:1"],
    ["det", "--model", "k=1.5,dim=2"],
    ["cayley", "--path", "model:1:2.5"],
])
def test_bad_model_spec_is_an_error_record(argv, capsys):
    err = error_record(argv, capsys)
    assert err["type"] == "SpecflowError"
    assert "integer k and dim" in err["message"] \
        or "key=number" in err["message"]


@pytest.mark.parametrize("spec", ["geodesic:{tmp}/missing.npz",
                                  "geodesic:{tmp}/u0_only.npz",
                                  "scattering:{tmp}/missing.json",
                                  "scattering:{tmp}/bad.json"])
def test_bad_path_file_is_an_error_record(spec, tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"segments": [[0, 1]]}))
    np.savez(tmp_path / "u0_only.npz", U0=np.eye(2, dtype=complex))
    err = error_record(["sf-path", "--path", spec.format(tmp=tmp_path)],
                       capsys)
    assert err["type"] == "SpecflowError"


@pytest.mark.parametrize("depth, points, N", [(3.0, 200, 1),
                                                (200.0, 400, 205)])
def test_levinson_3d_csv_export(depth, points, N, tmp_path, capsys):
    # the table is exactly its grid, also through the depth-200 well's
    # shape resonances, which are narrower than the grid spacing
    csv = tmp_path / "phases.csv"
    rc, recs = run_lines(["levinson", "--dim", "3", "--well",
                          f"depth={depth},radius=1", "--grid", str(points),
                          "--csv", str(csv)], capsys)
    assert rc == 0
    assert recs[-1]["result"]["verdict"] == "pass"
    assert recs[-1]["result"]["N"] == N
    V = RadialPotential.square_well(depth)
    data = ChannelData(V, 1e-2, 100.0, points)
    lines = csv.read_text().splitlines()
    assert len(lines) == points + 1
    assert lines[0] == "lambda," + ",".join(
        f"delta_{l}" for l in range(data.lmax + 1))
    back = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], data.ks ** 2)
    assert np.array_equal(back[:, 1:], data.deltas)
    # the verify reads the same end rows: its k_max row is the table's, and
    # its k_min row differs only above the table's low-band cutoff, where
    # the table holds 0.0 for shifts far below CHANNEL_TOL
    rep = levinson.levinson_verify(V, 3, grid=points)
    assert np.array_equal(back[-1, 1:], rep.data["hi"])
    np.testing.assert_allclose(back[0, 1:], rep.data["lo"], rtol=0.0,
                               atol=1e-15)


def test_levinson_1d_rejects_csv(tmp_path, capsys):
    csv = tmp_path / "phases.csv"
    rc, recs = run_lines(["levinson", "--dim", "1", "--well", "depth=2",
                          "--csv", str(csv)], capsys)
    assert rc == 2
    assert recs[-1]["result"]["error"]["type"] == "SpecflowError"
    assert not csv.exists()


def test_levinson_potential_file(tmp_path, capsys):
    pot = tmp_path / "well.json"
    pot.write_text(json.dumps({"dimension": 1,
                               "segments": [[-1.0, 1.0, -5.0]]}))
    rc, recs = run_lines(["levinson", "--dim", "1", "--potential", str(pot)],
                         capsys)
    assert rc == 0
    assert recs[-1]["result"]["N"] == 2
    assert recs[-1]["result"]["verdict"] == "pass"


@pytest.mark.parametrize("dim, text", [
    ("1", '{"dimension": 1, "segments": [[-1, 1, NaN]]}'),
    ("1", '{"dimension": 1, "segments": [[-Infinity, 1, -5]]}'),
    ("3", '{"dimension": 3, "radius": 1.0, "depth": NaN}'),
    ("3", '{"dimension": 3, "radius": Infinity, "depth": 3.0}'),
])
def test_non_finite_potential_file_is_an_error_record(tmp_path, capsys, dim,
                                                      text):
    # json reads NaN and Infinity; the potential refuses them
    pot = tmp_path / "well.json"
    pot.write_text(text)
    err = error_record(["levinson", "--dim", dim, "--potential", str(pot)],
                       capsys)
    assert err["type"] == "SpecflowError"
    assert "finite" in err["message"]


@pytest.mark.parametrize("dim, doc", [
    ("1", {"dimension": 3, "radius": 1.0, "depth": 3.0}),
    ("3", {"dimension": 1, "segments": [[-1.0, 1.0, -5.0]]}),
], ids=["radial-file-dim1", "1d-file-dim3"])
def test_levinson_dimension_mismatch_is_a_record(tmp_path, capsys, dim, doc):
    # a potential file of the other dimension than --dim: a typed record
    # naming both, not an AttributeError traceback
    pot = tmp_path / "well.json"
    pot.write_text(json.dumps(doc))
    rc = main(["levinson", "--dim", dim, "--potential", str(pot)])
    out, err = capsys.readouterr()
    assert rc == 2
    error = json.loads(out.strip().splitlines()[-1])["result"]["error"]
    assert error["type"] == "UnsupportedDimension"
    assert f"d = {dim}" in error["message"]
    assert "Traceback" not in out + err


@pytest.mark.parametrize("dimension", [2, 3.7, True])
def test_potential_file_dimension_is_1_or_3(tmp_path, capsys, dimension):
    pot = tmp_path / "well.json"
    pot.write_text(json.dumps({"dimension": dimension, "radius": 1.0,
                               "depth": 3.0,
                               "segments": [[-1.0, 1.0, -5.0]]}))
    rc, recs = run_lines(["levinson", "--dim", "3", "--potential", str(pot)],
                         capsys)
    assert rc == 2
    error = recs[-1]["result"]["error"]
    assert error["type"] == "UnsupportedDimension"
    assert repr(dimension) in error["message"]


def test_sampled_radial_potential_file(tmp_path):
    pot = tmp_path / "radial.json"
    pot.write_text(json.dumps({"dimension": 3, "radius": 1.0,
                               "samples": [[0.0, -4.0], [0.5, -2.0],
                                           [1.0, 0.0]]}))
    V = potential_from_file(str(pot))
    # the linear interpolation of the samples, taken at the midpoints of
    # equal shells: constant on each shell, not linear between samples
    edges = np.linspace(0.0, 1.0, CALLABLE_SHELLS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    want = np.interp(mids, [0.0, 0.5, 1.0], [-4.0, -2.0, 0.0])
    assert V.radius == 1.0
    assert len(V.shells) == CALLABLE_SHELLS
    np.testing.assert_allclose([v for _, _, v in V.shells], want, rtol=0.0,
                               atol=1e-15)
    np.testing.assert_array_equal([s[0] for s in V.shells], edges[:-1])
    # inside a shell V holds its midpoint value; zero from the radius on
    r = np.array([0.0, 0.2501, 0.75, 1.0, 2.0])
    np.testing.assert_allclose(V(r), [want[0], want[25], want[75], 0.0, 0.0],
                               rtol=0.0, atol=1e-15)
    # the sample at r = 0 is not a value of V
    assert V(0.0) == want[0] == -3.98


@pytest.mark.parametrize("samples, first", [
    ("[[0, NaN], [1, -3]]", 0),
    ("[[0, -3], [0.5, Infinity], [1, -3]]", 1),
    ("[[0, -3], [NaN, -3], [1, -3]]", 1),
    ("[[0, -3], [0.6, -3], [0.5, -2], [0.4, -1]]", 2),
    ("[[0, -3], [0.5, -3], [0.5, -2], [1, -3]]", 2),
], ids=["nan-value", "infinite-value", "nan-radius", "decreasing-radii",
        "repeated-radius"])
def test_bad_radial_samples_are_error_records(tmp_path, capsys, samples,
                                              first):
    # a NaN reached the radial recursion as an IntegrationFailure, and
    # np.interp silently misreads radii that do not increase strictly
    pot = tmp_path / "radial.json"
    pot.write_text('{"dimension": 3, "radius": 1.0, "samples": %s}'
                   % samples)
    err = error_record(["levinson", "--dim", "3", "--potential", str(pot)],
                       capsys)
    assert err["type"] == "SpecflowError"
    assert f"sample {first} is" in err["message"]


def test_levinson_requires_potential(capsys):
    rc, recs = run_lines(["levinson", "--dim", "1"], capsys)
    assert rc == 2
    assert "--well or --potential" in recs[-1]["result"]["error"]["message"]


def test_config_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1}))
    rc, recs = run_lines(["sf-loop", "--model", "k=1,dim=2", "--n", "3",
                          "--config", str(cfg)], capsys)
    assert rc == 0
    assert recs[-1]["result"]["method"] == "alpha"
    assert recs[-1]["result"]["value"] == 1
    assert recs[-1]["config"]["n"] == 1


def test_out_file_appends_and_reproduces(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    argv = ["sf-loop", "--model", "k=1,dim=2", "--n", "1"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    lines = out1.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == lines[1]
    # a fresh run reproduces the result payload exactly
    rec = json.loads(lines[0])
    other = json.loads(out2.read_text().splitlines()[0])
    assert rec["result"] == other["result"]
    # config echo keeps the flags (and the out path, which differs per file)
    assert rec["config"]["model"] == "k=1,dim=2"


def test_selftest_passes(capsys):
    # one check per family, on fixed inputs: no seed, no quadrature
    rc, recs = run_lines(["selftest"], capsys)
    assert rc == 0
    res = recs[-1]["result"]
    assert res["ok"] is True
    assert [c["name"] for c in res["checks"]] == [
        "model-loop-phillips", "model-loop-alpha", "model-loop-beta",
        "model-loop-det", "gamma-anchors", "cayley-roundtrip",
        "det-recursion", "free-smatrix", "free-phase-shifts"]
    assert all(c["ok"] is True for c in res["checks"])
    # a second run reports the same checks
    assert run_lines(["selftest"], capsys)[1][-1]["result"] == res
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--seed", "3"])
    assert exc.value.code == 2
