"""The four benchmark workloads: seeded inputs, one pass of solves, and the
untimed warm-up solves that precede timing.

A solve is one top-level public call.  Every call goes through a module
attribute looked up at call time (``scatter.levinson_verify``,
``sflow.sf_phillips``, ...), so the tracer's wrappers see it when they are
installed and nothing stands between the caller and the package when they
are not.

Why these workloads:

* ``levinson-3d`` is the heaviest user path: ~400 energies of radial
  Numerov over ~117 channels with grid refinement, and no dense matrix work.
  The depth-30 well raises ``RouteDisagreement`` today; it stays in the pass
  and counts as a failure.
* ``levinson-1d`` spends its time in 1D transfer-matrix products and the
  finite-difference S derivatives of the winding quadrature, plus Phillips
  on 2x2 capped paths; it never touches the radial solver.
* ``dense-loop`` is the generic closed-loop user path at dim 64: a plain
  ``UnitaryPath`` with no derivative and the unitarity check on, so LAPACK
  kernels, finite-difference derivatives and quadrature set the time.
* ``open-paths`` runs the same engines at dims 2-4, where per-call Python
  overhead rather than LAPACK sets the time, and is the only workload that
  reaches ``sf_open_path``, the endpoint integrals and the geodesic caps.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from specflow import rdet, scatter, sflow, upath

import references

WELL_RADIUS = 1.0
WELLS_3D = (3.0, 12.0, 30.0)
WELLS_1D = (2.0, 5.0, 20.0)
WELL_HALFWIDTH_1D = 1.0
DOUBLE_WELL = ((-3.0, -1.0, -6.0), (-1.0, 1.0, 2.0), (1.0, 3.0, -6.0))
GAUSSIAN_SEGMENTS = 200

LOOP_DIM = 64
LOOPS_PER_PASS = 5
DET_SAMPLES = 257
OPEN_PATHS_PER_PASS = 24


@dataclass
class Solve:
    """One top-level public call and how to check what it returns.

    ``reference`` computes the expected answer without specflow (None when
    the call's own cross-check is the only check); ``answer`` maps the
    call's result to the value compared against it.
    """

    kind: str
    label: str
    call: Callable
    answer: Callable
    reference: Callable = None


def _levinson_answer(rep):
    return (rep.N, rep.sf, rep.verdict)


def _levinson_reference(count):
    """Expected (N, flow, verdict) from a bound-state count rule."""
    def expected():
        n = count()
        return (n, -n, "pass")
    return expected


def _report_value(rep):
    return rep.value


def levinson_3d(rng):
    solves = []
    for depth in WELLS_3D:
        V = scatter.RadialPotential.square_well(depth, radius=WELL_RADIUS)
        count = (lambda depth=depth: references.bound_states_3d_square_well(
            depth, WELL_RADIUS))
        solves.append(Solve(
            "levinson_verify(d=3)", f"3D square well depth {depth:g}",
            lambda V=V: scatter.levinson_verify(V, 3), _levinson_answer,
            _levinson_reference(count)))
    return [solves[i] for i in rng.permutation(len(solves))]


def _gaussian_segments():
    edges = np.linspace(-4.0, 4.0, GAUSSIAN_SEGMENTS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return tuple((float(a), float(b), float(-8.0 * np.exp(-x * x)))
                 for a, b, x in zip(edges[:-1], edges[1:], mids))


def levinson_1d(rng):
    cases = []
    for depth in WELLS_1D:
        V = scatter.Potential1D.square_well(depth, WELL_HALFWIDTH_1D)
        count = (lambda depth=depth: references.bound_states_1d_square_well(
            depth, WELL_HALFWIDTH_1D))
        cases.append((f"1D square well depth {depth:g}", V, count))
    for label, segs in (("1D double well", DOUBLE_WELL),
                        ("1D Gaussian well, 200 segments",
                         _gaussian_segments())):
        V = scatter.Potential1D(segments=segs)
        cases.append((label, V,
                      lambda segs=segs: references.bound_states_1d_fd(segs)))
    solves = [Solve("levinson_verify(d=1)", label,
                    lambda V=V: scatter.levinson_verify(V, 1),
                    _levinson_answer, _levinson_reference(count))
              for label, V, count in cases]
    return [solves[i] for i in rng.permutation(len(solves))]


def haar_unitary(dim, rng):
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(X)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_hermitian(dim, rng):
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (X + X.conj().T) / 2.0


class LoopSampler:
    """U(t) = V(t) W diag(e^{2 pi i m t}) W* V(t)*, V(t) = e^{i sin(2 pi t) K}.

    K = Q diag(kappa) Q* is diagonalized once, so a sample costs three
    matmuls and the library's own work dominates the solve.
    """

    def __init__(self, Q, kappa, W, m):
        self.Q = Q
        self.Qh = Q.conj().T
        self.kappa = kappa
        self.W = W
        self.m = m

    def __call__(self, t):
        v = np.exp(1j * np.sin(2.0 * np.pi * t) * self.kappa)
        A = ((self.Q * v) @ self.Qh) @ self.W
        return (A * np.exp(2j * np.pi * t * self.m)) @ A.conj().T


def det_winding(path, p=2, samples=DET_SAMPLES):
    """Winding number of Det_p(U_t) from branch-unwound logs on a uniform
    grid, as the ``det`` CLI subcommand computes it."""
    a, b = path.interval
    dets = [rdet.det_p(path(t), p) for t in np.linspace(a, b, samples)]
    logs = rdet.unwind_log(dets)
    return (logs[-1].imag - logs[0].imag) / (2.0 * np.pi)


def _loop_solves(path, label, reference, det_samples=DET_SAMPLES):
    return [
        Solve("sf_phillips", label, lambda: sflow.sf_phillips(path),
              _report_value, reference),
        Solve("sf_alpha(n=1)", label, lambda: sflow.sf_alpha(path, n=1),
              _report_value, reference),
        Solve("sf_beta(r=1)", label, lambda: sflow.sf_beta(path, r=1),
              _report_value, reference),
        Solve("sf_det(p=2)", label, lambda: sflow.sf_det(path, p=2),
              _report_value, reference),
        Solve("det_p winding(p=2)", label,
              lambda: det_winding(path, 2, det_samples),
              lambda w: int(np.round(w)), reference),
    ]


def dense_loop(rng):
    solves = []
    for i in range(LOOPS_PER_PASS):
        W = haar_unitary(LOOP_DIM, rng)
        m = rng.integers(-2, 3, size=LOOP_DIM)
        K = random_hermitian(LOOP_DIM, rng)
        kappa, Q = np.linalg.eigh(K)
        kappa = kappa / np.max(np.abs(kappa))
        path = upath.UnitaryPath(LoopSampler(Q, kappa, W, m), closed=True)
        flow = int(np.sum(m))
        solves += _loop_solves(path, f"dim-{LOOP_DIM} loop {i}",
                               lambda flow=flow: flow)
    return solves


def open_paths(rng):
    """Generator paths e^{i s H t} and geodesics between Haar unitaries,
    cycling through dims 2-4; each is solved in the alpha and beta form.

    H is scaled to spectral radius 1 and the speeds s are drawn one per
    stratum of [0.5, 6), so the number of crossings in a pass, and with it
    the work, varies little from seed to seed.
    """
    generators = (OPEN_PATHS_PER_PASS + 1) // 2
    speeds = 0.5 + 5.5 * (np.arange(generators)
                          + rng.uniform(size=generators)) / generators
    speeds = speeds[rng.permutation(generators)]
    solves = []
    for i in range(OPEN_PATHS_PER_PASS):
        dim = 2 + i % 3
        if i % 2 == 0:
            s = float(speeds[i // 2])
            H = random_hermitian(dim, rng)
            H /= np.max(np.abs(np.linalg.eigvalsh(H)))
            path = upath.generator_path(1j * s * H)
            thetas = s * np.linalg.eigvalsh(H)
            reference = (lambda thetas=thetas:
                         references.open_generator_flow(thetas))
            label = f"generator dim {dim}"
        else:
            path = upath.geodesic_between(haar_unitary(dim, rng),
                                          haar_unitary(dim, rng))
            reference = None
            label = f"geodesic dim {dim}"
        solves.append(Solve("sf_open_path(n=1)", label,
                            lambda path=path: sflow.sf_open_path(path, n=1),
                            _report_value, reference))
        solves.append(Solve("sf_open_path(r=1)", label,
                            lambda path=path: sflow.sf_open_path(path, r=1),
                            _report_value, reference))
    return solves


def warmups(name):
    """One small solve of each kind the workload runs; results unchecked."""
    if name == "levinson-3d":
        V = scatter.RadialPotential.square_well(3.0, radius=WELL_RADIUS)
        return [lambda: scatter.levinson_verify(
            V, 3, grid={"points": 100, "k_max": 20.0})]
    if name == "levinson-1d":
        V = scatter.Potential1D.square_well(2.0, WELL_HALFWIDTH_1D)
        return [lambda: scatter.levinson_verify(V, 1, grid={"k_max": 10.0})]
    if name == "dense-loop":
        m = np.zeros(LOOP_DIM, dtype=int)
        m[0] = 1
        eye = np.eye(LOOP_DIM, dtype=complex)
        path = upath.UnitaryPath(
            LoopSampler(eye, np.zeros(LOOP_DIM), eye, m), closed=True)
        return [s.call for s in _loop_solves(path, "warm-up", None, 17)]
    if name == "open-paths":
        rng = np.random.default_rng(0)
        path = upath.generator_path(2j * random_hermitian(2, rng))
        return [lambda: sflow.sf_open_path(path, n=1),
                lambda: sflow.sf_open_path(path, r=1)]
    raise ValueError(f"unknown workload {name!r}")


GENERATORS = {
    "levinson-3d": levinson_3d,
    "levinson-1d": levinson_1d,
    "dense-loop": dense_loop,
    "open-paths": open_paths,
}


def build(name, seed):
    """The solves of one pass of workload ``name`` for ``seed``."""
    return GENERATORS[name](np.random.default_rng(seed))
