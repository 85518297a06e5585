"""Command-line frontend.

Subcommands map one-to-one onto the engines: `sf-loop` and `sf-path` for
closed and open spectral-flow computations, `det` for regularized
determinants along a path, `cayley` for the self-adjoint correspondence,
`levinson` for the scattering verification, and `selftest` for a built-in
invariant suite.  Every run emits line-delimited JSON records with a
version field; energy sweeps can additionally be exported as CSV.  A JSON
config file (--config) overrides command-line flags, and SPECFLOW_LOG
controls verbosity.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from .cayley import cayley, fp_distance, graph_projection, inv_cayley, \
    resolvent_bound_constant
from .errors import SpecflowError
from .matcore import gamma_constant, schatten_norm
from .rdet import det_p, logdet_p_vs_logdet, unwind_log
from .scatter import (
    Potential1D,
    RadialPotential,
    levinson_verify,
    phase_shifts_3d,
    smatrix_1d,
)
from .sflow import sf_alpha, sf_beta, sf_det, sf_open_path, sf_phillips
from .upath import UnitaryPath, geodesic_between, model_loop

log = logging.getLogger("specflow")

RECORD_VERSION = 1


# ---------------------------------------------------------------------------
# Serialization helpers


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (complex, np.complexfloating)):
        return {"re": float(x.real), "im": float(x.imag)}
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


def _emit(record, out):
    line = json.dumps(_jsonable(record), sort_keys=True)
    if out in (None, "-"):
        print(line)
    else:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _record(command, config, result):
    return {"record_version": RECORD_VERSION, "command": command,
            "config": config, "result": result}


def _sf_report_dict(rep):
    return {
        "value": rep.value,
        "raw": rep.raw,
        "residual": rep.residual,
        "method": rep.method,
        "warnings": list(rep.warnings),
    }


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_kv(text):
    """'k=2,dim=4' -> {'k': 2.0, 'dim': 4.0} (values as floats)."""
    out = {}
    for part in text.split(","):
        if not part:
            continue
        key, _, val = part.partition("=")
        if not val:
            raise SpecflowError(f"expected key=value, got {part!r}")
        out[key.strip()] = float(val)
    return out


def _well_potential(dim, spec):
    kv = _parse_kv(spec)
    if dim == 1:
        return Potential1D.square_well(depth=kv.get("depth", 1.0),
                                       halfwidth=kv.get("halfwidth", 1.0))
    return RadialPotential.square_well(depth=kv.get("depth", 1.0),
                                       radius=kv.get("radius", 1.0))


def potential_from_file(path):
    """Structured potential file: JSON with either 1D segments or a radial
    description (constant depth or sampled (r, v) grid)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    dim = int(doc.get("dimension", 1))
    if dim == 1:
        segs = tuple((float(a), float(b), float(v))
                     for a, b, v in doc["segments"])
        return Potential1D(segments=segs)
    radius = float(doc["radius"])
    if "depth" in doc:
        return RadialPotential.square_well(depth=float(doc["depth"]),
                                           radius=radius, dim=dim)
    samples = np.asarray(doc["samples"], dtype=float)
    r_s, v_s = samples[:, 0], samples[:, 1]

    def v_of_r(r):
        return np.interp(r, r_s, v_s)

    return RadialPotential(v_of_r=v_of_r, radius=radius, dim=dim)


def path_from_spec(spec):
    """Path constructors: 'model:k:dim', 'geodesic:FILE' (an .npz with
    arrays U0, U1), 'scattering:FILE' (a potential file; the 1D S-matrix
    sweep over a geometric wavenumber grid)."""
    kind, _, rest = spec.partition(":")
    if kind == "model":
        k_str, _, dim_str = rest.partition(":")
        return model_loop(int(k_str), int(dim_str))
    if kind == "geodesic":
        with np.load(rest) as data:
            return geodesic_between(data["U0"], data["U1"])
    if kind == "scattering":
        V = potential_from_file(rest)
        k_lo, k_hi = 1e-2, 100.0
        ratio = np.log(k_hi / k_lo)

        def sampler(t):
            k = k_lo * np.exp(ratio * t)
            return smatrix_1d(V, k * k)

        return UnitaryPath(sampler, name=f"scattering:{rest}")
    raise SpecflowError(f"unknown path spec {spec!r}")


def _build_parser():
    top = argparse.ArgumentParser(
        prog="specflow",
        description="Spectral flow of identity-plus-Schatten unitary paths.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="append JSON records here instead of stdout")
    common.add_argument("--config", default=None,
                        help="JSON file whose entries override flags")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-9,
                     help="quadrature absolute tolerance")

    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sf-loop", parents=[common, tol],
                       help="spectral flow of a closed path")
    p.add_argument("--model", default=None, help="k=K,dim=D model loop")
    p.add_argument("--path", default=None, help="path spec (see path-from-spec)")
    p.add_argument("--method", default="phillips",
                   choices=["phillips", "alpha", "beta", "det"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--p", type=int, default=1)

    p = sub.add_parser("sf-path", parents=[common, tol],
                       help="spectral flow of an open path with caps")
    p.add_argument("--path", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=float, default=None)

    p = sub.add_parser("det", parents=[common],
                       help="regularized determinant along a path")
    p.add_argument("--model", default=None)
    p.add_argument("--path", default=None)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--samples", type=int, default=9)

    p = sub.add_parser("cayley", parents=[common],
                       help="self-adjoint correspondence at one parameter")
    p.add_argument("--model", default=None)
    p.add_argument("--path", default=None)
    p.add_argument("--t", type=float, default=0.25)
    p.add_argument("--p", type=float, default=2.0,
                   help="Schatten order for the fixed-point distance")

    p = sub.add_parser("levinson", parents=[common],
                       help="scattering verification of the flow-count law")
    p.add_argument("--dim", type=int, required=True, choices=[1, 3])
    p.add_argument("--well", default=None, help="depth=..,halfwidth=.. or "
                   "depth=..,radius=..")
    p.add_argument("--potential", default=None, help="potential file")
    p.add_argument("--grid", type=int, default=None,
                   help="wavenumber nodes for the sweep (d=3 only)")
    p.add_argument("--csv", default=None,
                   help="export the phase-shift table here (d=3 only)")

    p = sub.add_parser("selftest", parents=[common],
                       help="run the built-in invariant suite")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random unitary checks")
    return top


def _apply_config(args):
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        for key, val in doc.items():
            setattr(args, key.replace("-", "_"), val)
    return args


# ---------------------------------------------------------------------------
# Subcommand implementations


def _resolve_path(args):
    if getattr(args, "model", None):
        kv = _parse_kv(args.model)
        if "k" not in kv or "dim" not in kv:
            raise SpecflowError("model spec needs k=...,dim=...")
        return model_loop(int(kv["k"]), int(kv["dim"]))
    if getattr(args, "path", None):
        return path_from_spec(args.path)
    raise SpecflowError("need --model or --path")


def _cmd_sf_loop(args):
    path = _resolve_path(args)
    if args.method == "phillips":
        rep = sf_phillips(path)
    elif args.method == "alpha":
        rep = sf_alpha(path, n=args.n, epsabs=args.tol)
    elif args.method == "beta":
        rep = sf_beta(path, r=args.r, epsabs=args.tol)
    else:
        rep = sf_det(path, p=args.p, epsabs=args.tol)
    return _sf_report_dict(rep)


def _cmd_sf_path(args):
    path = path_from_spec(args.path)
    n, r = args.n, args.r
    if n is None and r is None:
        n = 1
    rep = sf_open_path(path, n=n, r=r, epsabs=args.tol)
    out = _sf_report_dict(rep)
    out["body_integral"] = rep.parameters.get("body")
    out["endpoint_correction"] = rep.parameters.get("endpoint_correction")
    return out


def _cmd_det(args):
    path = _resolve_path(args)
    a, b = path.interval
    ts = np.linspace(a, b, args.samples)
    dets, rows = [], []
    for t in ts:
        d = det_p(path(t), args.p)
        lhs, rhs = logdet_p_vs_logdet(path, t, args.p)
        dets.append(d)
        rows.append({
            "t": float(t),
            "det_p": complex(d.value),
            "log_det_p": complex(d.log_value),
            "logderiv": complex(lhs),
            "logderiv_decomposed": complex(rhs),
        })
    logs = unwind_log(dets)
    winding = (logs[-1].imag - logs[0].imag) / (2.0 * np.pi)
    return {"p": args.p, "samples": rows, "winding": winding}


def _cmd_cayley(args):
    path = _resolve_path(args)
    U = path(args.t)
    op = cayley(U)
    back = inv_cayley(op)
    roundtrip = float(schatten_norm(back - U, np.inf))
    G = graph_projection(op)
    idem = float(np.linalg.norm(G @ G - G))
    base = cayley(path(path.interval[0]))
    return {
        "t": args.t,
        "subspace_dim": op.subspace_dim(),
        "eigenvalues": [float(x) for x in op.eigenvalues()],
        "roundtrip_defect": roundtrip,
        "graph_idempotency_defect": idem,
        "fp_distance_from_start": float(fp_distance(base, op, args.p)),
        "resolvent_bound_at_2i": float(resolvent_bound_constant(2j)),
    }


def _cmd_levinson(args):
    if args.potential:
        V = potential_from_file(args.potential)
    elif args.well:
        V = _well_potential(args.dim, args.well)
    else:
        raise SpecflowError("need --well or --potential")
    if args.csv and args.dim != 3:
        raise SpecflowError("--csv exports the radial phase-shift table "
                            "and needs --dim 3")
    report = levinson_verify(V, args.dim, grid=args.grid)
    if args.csv:
        report.data.to_csv(args.csv)
        log.info("phase table written to %s", args.csv)
    return report.to_dict()


def _cmd_selftest(args):
    rng = np.random.default_rng(args.seed)
    checks = []

    loop = model_loop(2, 4)
    for name, fn in [
        ("phillips", lambda: sf_phillips(loop).value),
        ("alpha", lambda: sf_alpha(loop, n=2).value),
        ("beta", lambda: sf_beta(loop, r=1.0).value),
        ("det", lambda: sf_det(loop, p=2).value),
    ]:
        checks.append({"name": f"model-loop-{name}", "ok": fn() == 2})

    from scipy.integrate import quad
    for r in (0.5, 1.0, 2.25):
        val, _ = quad(lambda t: np.sin(np.pi * t) ** (2 * r), 0.0, 1.0,
                      epsabs=1e-12, limit=200)
        checks.append({"name": f"gamma-normalization-r{r}",
                       "ok": abs(val - 1.0 / (np.pi * gamma_constant(r)))
                       < 1e-10})

    X = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    U, _ = np.linalg.qr(X)
    op = cayley(U)
    checks.append({"name": "cayley-roundtrip",
                   "ok": float(np.linalg.norm(inv_cayley(op) - U)) < 1e-9})

    d2 = det_p(U, 2)
    d1 = det_p(U, 1)
    tr = np.trace(U - np.eye(5))
    checks.append({"name": "det-recursion",
                   "ok": abs(d2.value - d1.value * np.exp(-tr)) < 1e-10})

    V0 = Potential1D(segments=((-1.0, 1.0, 0.0),))
    S = smatrix_1d(V0, 1.0)
    checks.append({"name": "free-smatrix",
                   "ok": float(np.linalg.norm(S - np.eye(2))) < 1e-12})
    W0 = RadialPotential.square_well(depth=0.0, radius=1.0)
    checks.append({"name": "free-phase-shifts",
                   "ok": float(np.max(np.abs(phase_shifts_3d(W0, 1.0, 4))))
                   < 1e-10})

    ok = all(c["ok"] for c in checks)
    return {"ok": ok, "checks": checks}


_COMMANDS = {
    "sf-loop": _cmd_sf_loop,
    "sf-path": _cmd_sf_path,
    "det": _cmd_det,
    "cayley": _cmd_cayley,
    "levinson": _cmd_levinson,
    "selftest": _cmd_selftest,
}


def main(argv=None):
    level = os.environ.get("SPECFLOW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _build_parser().parse_args(argv)
    args = _apply_config(args)
    config = {k: v for k, v in vars(args).items()
              if k not in ("command",) and v is not None}
    try:
        result = _COMMANDS[args.command](args)
    except SpecflowError as exc:
        _emit(_record(args.command, config,
                      {"error": {"type": type(exc).__name__,
                                 "message": str(exc)}}), args.out)
        return 2
    _emit(_record(args.command, config, result), args.out)
    if args.command == "selftest" and not result["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
