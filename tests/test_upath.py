import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import expit

from specflow.errors import (
    DimensionTooSmall,
    EndpointMismatch,
    NoLimitAtInfinity,
    NonUnitary,
    NotClosed,
    OutsideInterval,
    SpecflowError,
)
from specflow.matcore import eig_unitary
from specflow.scatter import Potential1D
from specflow.scatter.levinson import _sweep_1d
from specflow.sflow import sf_phillips
from specflow.upath import (
    UnitaryPath,
    cap_into,
    cap_outof,
    compactify,
    concatenate,
    constant_path,
    generator_path,
    geodesic_between,
    model_loop,
)

from conftest import haar_unitary, random_hermitian


def test_model_loop_samples():
    loop = model_loop(1, 2)
    assert np.allclose(loop(0.5), np.diag([-1.0, 1.0]))
    assert np.allclose(loop(0.25), np.diag([1j, 1.0]))
    assert np.allclose(model_loop(2, 3)(0.0), np.eye(3))
    loop.check_closed()


def test_model_loop_validation():
    with pytest.raises(DimensionTooSmall):
        model_loop(0, 2)
    with pytest.raises(DimensionTooSmall):
        model_loop(3, 2)
    # a fractional rank or dimension used to build a mismatched loop
    for k, dim in ((1.5, 3), (1, 2.7), (np.nan, 2), (1, np.inf)):
        with pytest.raises(SpecflowError):
            model_loop(k, dim)
    assert model_loop(2.0, 3.0).dim == 3


def test_model_loop_derivative_analytic():
    loop = model_loop(1, 2)
    t = 0.37
    want = np.diag([2j * np.pi * np.exp(2j * np.pi * t), 0.0])
    assert np.linalg.norm(loop.derivative(t) - want) < 1e-14


def test_constant_path_derivative_zero():
    path = constant_path(np.diag([1j, 1.0]))
    assert np.allclose(path.derivative(0.5), 0.0)
    path.check_closed()


def test_finite_difference_matches_analytic_generator(rng):
    H = random_hermitian(4, rng)
    path = generator_path(1j * H)
    # drop the analytic derivative to force the finite-difference stencil
    fd_path = UnitaryPath(path._sampler, check=False)
    t = 0.6
    want = 1j * H @ expm(1j * t * H)
    assert np.linalg.norm(fd_path.derivative(t) - want, ord=2) < 1e-8


def test_sampler_unitarity_is_checked():
    bad = UnitaryPath(lambda t: np.array([[1.0, t], [0.0, 1.0]]))
    with pytest.raises(NonUnitary):
        bad(0.5)


def test_outside_interval():
    loop = model_loop(1, 2)
    with pytest.raises(OutsideInterval):
        loop(1.5)
    with pytest.raises(OutsideInterval):
        loop.derivative(-0.2)


def test_geodesic_between_endpoints(rng):
    U0 = haar_unitary(4, rng)
    U1 = haar_unitary(4, rng)
    g = geodesic_between(U0, U1)
    assert np.linalg.norm(g(0.0) - U0, ord=2) < 1e-12
    assert np.linalg.norm(g(1.0) - U1, ord=2) < 1e-9
    with pytest.raises(EndpointMismatch):
        geodesic_between(np.eye(2), np.eye(3))


def test_caps_end_at_their_unitary(rng):
    U = haar_unitary(3, rng)
    into = cap_into(U)
    outof = cap_outof(U)
    assert np.linalg.norm(into(0.0) - np.eye(3), ord=2) < 1e-12
    assert np.linalg.norm(into(1.0) - U, ord=2) < 1e-9
    assert np.linalg.norm(outof(0.0) - U, ord=2) < 1e-9
    assert np.linalg.norm(outof(1.0) - np.eye(3), ord=2) < 1e-12


def test_generator_path_samples_match_expm(rng):
    # samples and derivatives come from one eigh of -iY, not expm
    H = random_hermitian(4, rng, scale=3.0)
    base = haar_unitary(4, rng)
    path = generator_path(1j * H, base=base)
    for t in (0.0, 0.3, 1.0):
        E = expm(1j * t * H)
        assert np.linalg.norm(path(t) - base @ E, ord=2) < 1e-12
        assert np.linalg.norm(path.derivative(t) - base @ (1j * H) @ E,
                              ord=2) < 1e-11


def _sampled_paths(rng):
    # a path of each kind with an array sampler, and three without; the
    # paths in DERIVED have an array derivative
    H = random_hermitian(3, rng, scale=3.0)
    U0, U1 = haar_unitary(3, rng), haar_unitary(3, rng)
    generator = generator_path(1j * H, base=U0)
    geodesic = geodesic_between(generator(1.0), U1)
    well = Potential1D.square_well(20.0, 1.0)
    return {
        "generator": generator_path(1j * H),
        "generator with base": generator,
        "geodesic": geodesic,
        "cap into": cap_into(U1),
        "cap out of": cap_outof(U1),
        "concatenation": concatenate(generator, geodesic),
        "reversed concatenation": concatenate(generator,
                                              geodesic).reversed(),
        "1D scattering sweep": _sweep_1d(well),
        "model loop": model_loop(2, 3),
        "checked sampler": UnitaryPath(lambda t: U0 * np.exp(1j * t)),
        "compactified": compactify(UnitaryPath(
            lambda s: U0 @ np.diag(np.exp(1j / (1.0 + s) * np.arange(3)))
            @ U0.conj().T, interval=(0.0, np.inf))),
    }


UNSAMPLED = ("model loop", "checked sampler", "compactified")
DERIVED = ("generator", "generator with base", "geodesic", "cap into")


def test_samples_are_the_scalar_samples(rng):
    ts = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(size=20)])
    for name, path in _sampled_paths(rng).items():
        batched = name not in UNSAMPLED
        assert (path._array_sampler is not None) == batched, name
        got = path.samples(ts)
        assert got.shape == (len(ts), path.dim, path.dim)
        assert np.array_equal(got, np.stack([path(t) for t in ts])), name


def test_derivatives_are_the_scalar_derivatives(rng):
    ts = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(size=20)])
    for name, path in _sampled_paths(rng).items():
        assert (path._array_derivative is not None) == (name in DERIVED), name
        got = path.derivatives(ts)
        assert got.shape == (len(ts), path.dim, path.dim)
        assert np.array_equal(got, np.stack([path.derivative(t)
                                             for t in ts])), name
        with pytest.raises(OutsideInterval):
            path.derivatives(np.array([0.2, 1.5]))
        with pytest.raises(OutsideInterval):
            path.derivatives(np.array([-1e-9, 0.2]))
        path.derivatives(np.array([0.0, 0.5, 1.0 + 1e-13]))


def test_samples_check_interval_and_unitarity():
    # a sampler that is not unitary on (0.6, 0.8)
    path = UnitaryPath(lambda t: np.diag([1.0, 1.0 + (0.6 < t < 0.8)]),
                       dim=2)
    with pytest.raises(OutsideInterval):
        path.samples(np.array([0.2, 1.5]))
    path.samples(np.array([0.0, 0.5, 1.0 + 1e-13]))
    with pytest.raises(NonUnitary):
        path.samples(np.array([0.2, 0.7]))


def test_generator_path_rejects_non_skew_hermitian():
    for Y in ([[0.5, 0.0], [0.0, 2j]], [[0.0, 1.0], [0.0, 0.0]],
              [[np.nan, 0.0], [0.0, 1j]], np.ones((2, 3))):
        with pytest.raises(NonUnitary):
            generator_path(Y)
    # rounding-level asymmetry is accepted
    Y = 1j * np.diag([1.0, -2.0]) + 1e-14 * np.array([[0.0, 1.0], [0.0, 0.0]])
    generator_path(Y)


def test_cap_outof_is_cap_into_reversed(rng):
    U = haar_unitary(3, rng)
    into, outof = cap_into(U), cap_outof(U)
    for t in (0.0, 0.25, 0.7, 1.0):
        assert np.array_equal(outof(t), into(1.0 - t))
        assert np.array_equal(outof.derivative(t), -into.derivative(1.0 - t))


def test_concatenate_requires_matching_joint():
    a = constant_path(np.eye(2))
    b = constant_path(np.diag([1j, 1.0]))
    with pytest.raises(EndpointMismatch):
        concatenate(a, b)


def test_concatenate_additivity_and_cancellation():
    loop = model_loop(1, 2)
    assert sf_phillips(concatenate(loop, loop)).value == 2
    assert sf_phillips(concatenate(loop, loop.reversed())).value == 0
    assert sf_phillips(concatenate(constant_path(np.eye(2)), loop)).value == 1


def test_concatenate_marks_joint_breakpoint():
    c = concatenate(model_loop(1, 2), model_loop(1, 2))
    assert 0.5 in c.breakpoints


def test_conjugation_preserves_eigenangles(rng):
    W = haar_unitary(4, rng)
    loop = model_loop(2, 4)
    conj = UnitaryPath(lambda t: W @ loop(t) @ W.conj().T, closed=True,
                       check=False)
    for t in (0.0, 0.21, 0.5, 0.83):
        a1, _ = eig_unitary(loop(t))
        a2, _ = eig_unitary(conj(t))
        assert np.allclose(np.sort(a1), np.sort(a2), atol=1e-10)
    assert sf_phillips(conj).value == 2


def test_compactify_identity_and_flow_preservation():
    # constant Id on [0, inf) stays the constant Id path
    still = compactify(UnitaryPath(lambda s: np.eye(2),
                                   interval=(0.0, np.inf), check=False))
    assert np.allclose(still(0.3), np.eye(2))
    assert still.closed

    # model loop pre-composed with s -> s/(1+s) lives on [0, inf); winding
    # must survive the change of variables
    loop = model_loop(1, 2)
    stretched = UnitaryPath(lambda s: loop(s / (1.0 + s)),
                            interval=(0.0, np.inf), check=False)
    back = compactify(stretched)
    assert sf_phillips(back).value == 1

    # logistic substitution for paths over the whole line
    line = UnitaryPath(lambda s: loop(expit(s)),
                       interval=(-np.inf, np.inf), check=False)
    assert sf_phillips(compactify(line)).value == 1


def test_compactify_rejects_wandering_tail():
    # period-1 oscillation never settles at Id
    periodic = UnitaryPath(lambda s: np.diag([np.exp(2j * np.pi * s), 1.0]),
                           interval=(0.0, np.inf), check=False)
    with pytest.raises(NoLimitAtInfinity):
        compactify(periodic, probes=(100.25, 1000.5, 10000.75))


def test_check_closed_raises_for_open_path(rng):
    g = geodesic_between(np.eye(3), haar_unitary(3, rng))
    with pytest.raises(NotClosed):
        g.check_closed()


def test_concatenate_triple():
    loop = model_loop(1, 2)
    c = concatenate(concatenate(loop, loop), loop)
    assert sf_phillips(c).value == 3
