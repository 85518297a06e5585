"""The finite-difference bound-state count `onedim._fd_count`: a Sturm
(inertia) count of the tridiagonal operator in the window FD_WINDOW, which
computes no eigenvalue, checked against dense eigenvalue counts and
against the integers the bisecting eigenvalue count
(`scipy.linalg.eigvalsh_tridiagonal(select="v")`) gave on the deep-well
and threshold sets."""

import numpy as np
import pytest

from specflow.errors import DecompositionFailure
from specflow.scatter import Potential1D, RadialPotential, onedim
from specflow.scatter.onedim import FD_WINDOW, _bound_states_fd, _fd_count
from specflow.scatter.radial import _bound_states_fd_radial

THRESHOLD_OFFSETS = (0.0, 1e-8, -1e-8, 1e-6, -1e-6, 1e-4, -1e-4, 1e-2, -1e-2)


def _dense_eigenvalues(diag, h):
    off = np.full(len(diag) - 1, -1.0 / h ** 2)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                              + np.diag(off, -1))


@pytest.mark.parametrize("end", [0, 1], ids=["at_-1e8", "at_-1e-8"])
def test_count_matches_dense_eigenvalues_near_window_ends(end):
    # random diagonals under the constant off-diagonal -1/h^2, shifted so
    # that one eigenvalue lies within 1e-12 of a window end (relative to
    # the end's size at -1e8, where rounding is 1e8 times coarser), on
    # either side of it
    rng = np.random.default_rng(2024)
    target = FD_WINDOW[end]
    scale = max(1.0, abs(target))
    sides = set()
    for _ in range(40):
        n = int(rng.integers(50, 401))
        h = rng.uniform(0.5, 2.0)
        diag = rng.uniform(-3.0, 3.0, n) / h ** 2
        w = _dense_eigenvalues(diag, h)
        offset = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0) * 1e-12
        diag = diag + (target + offset * scale - w[rng.integers(n)])
        sides.add(offset > 0)
        w = _dense_eigenvalues(diag, h)
        want = int(np.sum((w > FD_WINDOW[0]) & (w <= FD_WINDOW[1])))
        assert _fd_count(diag, h) == want
    assert sides == {False, True}


# the counts of eigvalsh_tridiagonal(select="v") on the same operators
PARENT_1D_DEEP = {100.0: 7, 400.0: 13, 1000.0: 21}
PARENT_1D_DOUBLE_WELL = 4
PARENT_3D_DEEP = {
    50.0: [2, 2, 1, 1, 1, 0],
    100.0: [3, 3, 2, 2, 1, 1, 1, 0],
    200.0: [5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1, 0],
}
# threshold depths (m pi / 2)^2 (1 + offset), offsets as THRESHOLD_OFFSETS
PARENT_1D_THRESHOLD = {
    1: [1, 1, 1, 1, 1, 1, 1, 1, 1],
    2: [2, 2, 2, 2, 2, 2, 2, 2, 2],
    3: [3, 3, 3, 3, 3, 3, 3, 4, 3],
}
PARENT_3D_THRESHOLD = {
    1: [[0]] * 9,
    2: [[1, 1, 0]] * 8 + [[1, 0]],
    3: [[1, 1, 1, 0]] * 7 + [[2, 1, 1, 0], [1, 1, 1, 0]],
}


def test_count_matches_bisection_on_deep_wells():
    for depth, want in PARENT_1D_DEEP.items():
        assert _bound_states_fd(Potential1D.square_well(depth)) == want
    double_well = Potential1D(segments=(
        (-3.0, -1.0, -6.0), (-1.0, 1.0, 2.0), (1.0, 3.0, -6.0)))
    assert _bound_states_fd(double_well) == PARENT_1D_DOUBLE_WELL
    for depth, want in PARENT_3D_DEEP.items():
        V = RadialPotential.square_well(depth)
        assert list(_bound_states_fd_radial(V, range(len(want)))) == want


def test_count_matches_bisection_on_threshold_set():
    # 54 runs: m = 1, 2, 3 in 1D and 3D at nine offsets each.  Near a
    # threshold the box misses shallow states and the grid adds some (3D,
    # l = 1 just below m = 2); those miscounts are the operator's own and
    # stay as they were
    for m in (1, 2, 3):
        depths = [(m * np.pi / 2) ** 2 * (1.0 + o) for o in THRESHOLD_OFFSETS]
        got = [_bound_states_fd(Potential1D.square_well(d)) for d in depths]
        assert got == PARENT_1D_THRESHOLD[m]
        for d, want in zip(depths, PARENT_3D_THRESHOLD[m]):
            V = RadialPotential.square_well(d)
            assert list(_bound_states_fd_radial(V, range(len(want)))) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_diagonal_raises(bad):
    diag = np.full(64, 2.0)
    diag[17] = bad
    with pytest.raises(DecompositionFailure):
        _fd_count(diag, 1.0)


def test_lapack_failure_raises(monkeypatch):
    def failing(d, e, *args):
        return 0, np.zeros(len(d)), None, None, 1

    monkeypatch.setattr(onedim, "dstebz", failing)
    with pytest.raises(DecompositionFailure):
        _fd_count(np.full(64, 2.0), 1.0)
