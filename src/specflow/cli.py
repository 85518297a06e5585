"""Command-line frontend.

Subcommands map one-to-one onto the engines: `sf-loop` and `sf-path` for
closed and open spectral-flow computations, `det` for regularized
determinants along a path, `cayley` for the self-adjoint correspondence,
`levinson` for the scattering verification, and `selftest` for a built-in
invariant suite on fixed inputs.  `sf-loop` takes its route from its order
flag: none runs the crossing count, --n the alpha form, --r the beta form
and --p the determinant form; two order flags, or --tol without one, are
errors.
Every run emits line-delimited JSON records with a version field; energy
sweeps can additionally be exported as CSV.  A JSON config file (--config)
sets flags of the running subcommand and wins over the command line; any
other key is an error.  Input errors are error records with exit code 2,
and SPECFLOW_LOG controls verbosity.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from .cayley import cayley, fp_distance, graph_projection, inv_cayley, \
    resolvent_bound_constant
from .errors import PartitionFailure, SpecflowError, UnsupportedDimension
from .matcore import check_order, gamma_constant, schatten_norm
from .rdet import _logdet_sides, det_p, unwind_log
from .scatter import (
    ChannelData,
    Potential1D,
    RadialPotential,
    levinson_verify,
    phase_shifts_3d,
    smatrix_1d,
)
from .scatter.levinson import _grid_options, _sweep_1d
from .sflow import (DEFAULT_EPSABS, QUAD_EPSREL, sf_alpha, sf_beta, sf_det,
                    sf_open_path, sf_phillips)
from .upath import geodesic_between, model_loop

log = logging.getLogger("specflow")

RECORD_VERSION = 1


# ---------------------------------------------------------------------------
# Serialization helpers


def _jsonable(x):
    if isinstance(x, (np.ndarray, np.generic)):
        x = x.tolist()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    return x


def _emit(record, out):
    line = json.dumps(_jsonable(record), sort_keys=True)
    if out in (None, "-"):
        print(line)
    else:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


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


def _parse_kv(text, keys):
    """'k=2,dim=4' -> {'k': 2.0, 'dim': 4.0}: numbers under the given keys."""
    out = {}
    for part in text.split(","):
        if not part:
            continue
        key, _, val = part.partition("=")
        if key.strip() not in keys:
            raise SpecflowError(f"unknown key in {part!r}; expected any of "
                                f"{', '.join(keys)}")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise SpecflowError(f"expected key=number, got {part!r}") from None
    return out


def _load(path, what, parse):
    """parse(fh) of an input file opened for binary reading; a file that
    cannot be opened or parsed is a SpecflowError."""
    try:
        with open(path, "rb") as fh:
            return parse(fh)
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise SpecflowError(f"cannot read {what} {path}: {exc!r}") from None


def _well_potential(dim, spec):
    """Square well of a 'depth=..,halfwidth=..' (d = 1) or
    'depth=..,radius=..' (d = 3) spec; each size defaults to 1."""
    cls, size = ((Potential1D, "halfwidth") if dim == 1
                 else (RadialPotential, "radius"))
    kv = _parse_kv(spec, ("depth", size))
    return cls.square_well(kv.get("depth", 1.0), kv.get(size, 1.0))


def potential_from_file(path):
    """Structured potential file: JSON with either 1D segments
    ("dimension" 1, the default) or a 3D radial description ("dimension" 3;
    a constant depth, or (r, v) samples whose linear interpolation is
    taken at the midpoints of RadialPotential.from_callable's shells).
    Any other "dimension" is UnsupportedDimension."""
    return _load(path, "potential file", _potential)


def _potential(fh):
    doc = json.load(fh)
    dim = doc.get("dimension", 1)
    if isinstance(dim, bool) or dim not in (1, 3):
        raise UnsupportedDimension(f"a potential file's \"dimension\" must "
                                   f"be 1 or 3, got {dim!r}")
    if dim == 1:
        segs = tuple((float(a), float(b), float(v))
                     for a, b, v in doc["segments"])
        return Potential1D(segments=segs)
    radius = float(doc["radius"])
    if "depth" in doc:
        return RadialPotential.square_well(depth=float(doc["depth"]),
                                           radius=radius)
    samples = np.asarray(doc["samples"], dtype=float)
    r_s, v_s = samples[:, 0], samples[:, 1]
    # np.interp needs strictly increasing radii; the error names the first
    # sample that breaks this or is not finite
    bad = ~np.isfinite(samples).all(axis=1)
    bad[1:] |= r_s[1:] <= r_s[:-1]
    if bad.any():
        i = int(np.argmax(bad))
        raise SpecflowError(f"radial samples must be finite with strictly "
                            f"increasing radii; sample {i} is "
                            f"{samples[i].tolist()}")
    return RadialPotential.from_callable(lambda r: np.interp(r, r_s, v_s),
                                         radius)


def path_from_spec(spec):
    """Path constructors: 'model:k:dim', 'geodesic:FILE' (an .npz with
    arrays U0, U1), 'scattering:FILE' (a potential file; the 1D S-matrix
    sweep of `levinson_verify` over its default wavenumber range)."""
    kind, _, rest = spec.partition(":")
    if kind == "model":
        try:
            k, dim = (float(x) for x in rest.split(":"))
        except ValueError:
            raise SpecflowError(f"model spec needs integer k and dim as "
                                f"model:K:D, got {spec!r}") from None
        return model_loop(k, dim)
    if kind == "geodesic":
        return geodesic_between(*_load(rest, "endpoint file", _endpoints))
    if kind == "scattering":
        V = potential_from_file(rest)
        if not isinstance(V, Potential1D):
            raise SpecflowError(f"the scattering sweep needs a 1D potential, "
                                f"got {type(V).__name__} from {rest!r}")
        return _sweep_1d(V)
    raise SpecflowError(f"unknown path spec {spec!r}")


def _endpoints(fh):
    with np.load(fh) as data:
        return data["U0"], data["U1"]


class _ConfigParser(argparse.ArgumentParser):
    """Parser of the flags merged in from --config: a bad entry is a
    SpecflowError, reported as a record, not a usage exit."""

    def error(self, message):
        raise SpecflowError(f"config: {message}")


def _build_parser(parser_class=argparse.ArgumentParser):
    top = parser_class(
        prog="specflow",
        description="Spectral flow of identity-plus-Schatten unitary paths.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out",
                        help="append JSON records here instead of stdout")
    common.add_argument("--config", help="JSON file of flags of this "
                        "subcommand; its entries override the command line")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, help="quadrature absolute "
                     f"tolerance, positive (default {DEFAULT_EPSABS:g}); "
                     f"the relative floor {QUAD_EPSREL:g}*|integral| "
                     "still applies")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--model", help="k=K,dim=D model loop")
    source.add_argument("--path", help="path spec (see path_from_spec)")

    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sf-loop", parents=[common, tol, source],
                       help="spectral flow of a closed path",
                       description="No order flag runs the crossing count.")
    p.add_argument("--n", type=int, help="alpha form of order n")
    p.add_argument("--r", type=float, help="beta form of order r")
    p.add_argument("--p", type=int, help="determinant form of order p")

    p = sub.add_parser("sf-path", parents=[common, tol],
                       help="spectral flow of an open path with caps")
    p.add_argument("--path", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=float)

    p = sub.add_parser("det", parents=[common, source],
                       help="regularized determinant along a path")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--samples", type=int, default=9)

    p = sub.add_parser("cayley", parents=[common, source],
                       help="self-adjoint correspondence at one parameter")
    p.add_argument("--t", type=float, default=0.25)
    p.add_argument("--p", type=float, default=2.0,
                   help="Schatten order for the fixed-point distance")

    p = sub.add_parser("levinson", parents=[common],
                       help="scattering verification of the flow-count law")
    p.add_argument("--dim", type=int, required=True, choices=[1, 3])
    p.add_argument("--well", help="depth=D,halfwidth=H or depth=D,radius=R")
    p.add_argument("--potential", help="potential file")
    p.add_argument("--grid", type=int, help="wavenumber nodes (d=3 only)")
    p.add_argument("--csv", help="export the phase-shift table (d=3 only)")

    sub.add_parser("selftest", parents=[common],
                   help="run the built-in invariant suite on fixed inputs")
    return top


def _apply_config(args, argv):
    """Parse argv again with the entries of the --config file appended as
    flags, so that each is checked and converted by its own flag and wins
    over the command line.  A key must be a flag of the subcommand, other
    than --config itself, and a value a string or a number."""
    doc = _load(args.config, "config", json.load)
    if not isinstance(doc, dict):
        raise SpecflowError(f"config {args.config} must hold a JSON object")
    flags = set(vars(args)) - {"command", "config"}
    extra = []
    for key, val in doc.items():
        if key not in flags:
            raise SpecflowError(f"config key {key!r} is not a flag of "
                                f"{args.command}")
        if isinstance(val, bool) or not isinstance(val, (str, int, float)):
            raise SpecflowError(f"config value of {key!r} must be a string "
                                f"or a number, got {val!r}")
        extra.append(f"--{key}={val}")
    return _build_parser(_ConfigParser).parse_args(argv + extra)


# ---------------------------------------------------------------------------
# Subcommand implementations


def _resolve_path(args):
    if bool(args.model) == bool(args.path):
        raise SpecflowError("need exactly one of --model or --path")
    if args.model:
        kv = _parse_kv(args.model, ("k", "dim"))
        if len(kv) != 2:
            raise SpecflowError("model spec needs k=...,dim=...")
        return model_loop(kv["k"], kv["dim"])
    return path_from_spec(args.path)


def _epsabs(args):
    if args.tol is not None and not args.tol > 0:
        raise SpecflowError(f"--tol must be positive, got {args.tol}")
    return {} if args.tol is None else {"epsabs": args.tol}


def _cmd_sf_loop(args):
    orders = {flag: engine for flag, engine in
              (("n", sf_alpha), ("r", sf_beta), ("p", sf_det))
              if getattr(args, flag) is not None}
    if len(orders) > 1:
        raise SpecflowError("pass at most one order flag: --n (alpha), "
                            "--r (beta) or --p (det)")
    if not orders and args.tol is not None:
        raise SpecflowError("--tol needs an order flag (no quadrature in "
                            "a crossing count)")
    path = _resolve_path(args)
    if not orders:
        return _sf_report_dict(sf_phillips(path))
    (flag, engine), = orders.items()
    return _sf_report_dict(engine(path, getattr(args, flag), **_epsabs(args)))


def _cmd_sf_path(args):
    path = path_from_spec(args.path)
    n = 1 if args.n is None and args.r is None else args.n
    rep = sf_open_path(path, n=n, r=args.r, **_epsabs(args))
    out = _sf_report_dict(rep)
    out["body_integral"] = rep.parameters.get("body")
    out["endpoint_correction"] = rep.parameters.get("endpoint_correction")
    return out


def _cmd_det(args):
    if args.samples < 2:
        raise SpecflowError(f"--samples must be >= 2, got {args.samples}")
    path = _resolve_path(args)
    a, b = path.interval
    ts = np.linspace(a, b, args.samples)
    p = check_order("p", args.p, 1, integer=True)
    rows = []
    for t in ts:
        # one U_t feeds Det_p and both log-derivative sides
        U = path(t)
        lhs, rhs = _logdet_sides(U, path.derivative(t), p)
        d = det_p(U, p)
        rows.append({
            "t": float(t),
            "det_p": complex(d.value),
            "log_det_p": complex(d.log_value),
            "logderiv": complex(lhs),
            "logderiv_decomposed": complex(rhs),
        })
    # each step's unwound increment of Im log Det_p must lie within pi/2 of
    # the trapezoid of its log-derivative, or the sampling has aliased
    phase = np.imag(unwind_log([row["det_p"] for row in rows]))
    rate = np.imag([row["logderiv"] for row in rows])
    trapezoid = np.diff(ts) * (rate[1:] + rate[:-1]) / 2.0
    off = np.abs(np.diff(phase) - trapezoid) > np.pi / 2.0
    if off.any():
        i = int(np.argmax(off))
        raise PartitionFailure(
            f"step {i} (t = {ts[i]:.6g} to {ts[i + 1]:.6g}) unwinds Im log "
            f"Det_p by {phase[i + 1] - phase[i]:+.4f}, the trapezoid of its "
            f"log-derivative by {trapezoid[i]:+.4f}: the sampling aliases; "
            f"raise --samples")
    winding = (phase[-1] - phase[0]) / (2.0 * np.pi)
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
    if bool(args.potential) == bool(args.well):
        raise SpecflowError("need exactly one of --well or --potential")
    if args.potential:
        V = potential_from_file(args.potential)
    else:
        V = _well_potential(args.dim, args.well)
    if args.csv and args.dim != 3:
        raise SpecflowError("--csv exports the radial phase-shift table "
                            "and needs --dim 3")
    report = levinson_verify(V, args.dim, grid=args.grid)
    if args.csv:
        # the verify reads only the end rows; the table is built for the file
        grid = _grid_options(3, args.grid)
        ChannelData(V, grid["k_min"], grid["k_max"],
                    grid["points"]).to_csv(args.csv)
        log.info("phase table written to %s", args.csv)
    return report.to_dict()


def _cmd_selftest(args):
    checks = []

    loop = model_loop(2, 4)
    for name, fn in [
        ("phillips", lambda: sf_phillips(loop).value),
        ("alpha", lambda: sf_alpha(loop, n=2).value),
        ("beta", lambda: sf_beta(loop, r=1.0).value),
        ("det", lambda: sf_det(loop, p=2).value),
    ]:
        checks.append({"name": f"model-loop-{name}", "ok": fn() == 2})

    # the closed-form anchors of Gamma(x+1) / (sqrt(pi) Gamma(x+1/2))
    anchors = ((0.0, 1.0 / np.pi), (1.0, 2.0 / np.pi), (1.5, 0.75))
    checks.append({"name": "gamma-anchors",
                   "ok": all(abs(gamma_constant(x) - want) < 1e-14
                             for x, want in anchors)})

    # the unitary discrete Fourier transform of dimension 5
    U = np.fft.fft(np.eye(5)) / np.sqrt(5.0)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    code = 0
    try:
        if args.config:
            args = _apply_config(args, argv)
        result = _COMMANDS[args.command](args)
    except SpecflowError as exc:
        result = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = 2
    config = {k: v for k, v in vars(args).items()
              if k != "command" and v is not None}
    _emit({"record_version": RECORD_VERSION, "command": args.command,
           "config": config, "result": result}, args.out)
    if code == 0 and args.command == "selftest" and not result["ok"]:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
