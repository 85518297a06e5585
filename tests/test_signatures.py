"""The public signatures hold no tuning parameter that only tests set: each
such value is a module constant."""

import inspect

import pytest

from specflow import (
    compactify,
    generator_path,
    sf_fp_path,
    theta_endpoint,
    xi_endpoint,
)
from specflow.scatter import (
    ChannelData,
    birman_schwinger_det_1d,
    regularization_necessity,
    resonance_detect,
    threshold_statistics_radial,
)

RETIRED = [
    (sf_fp_path, ("method", "kwargs")),
    (resonance_detect, ("tol",)),
    (ChannelData.__init__, ("lmax",)),
    (regularization_necessity, ("data", "Lambda")),
    (threshold_statistics_radial, ("lmax",)),
    (birman_schwinger_det_1d, ("n", "n_max")),
    (theta_endpoint, ("epsabs",)),
    (xi_endpoint, ("epsabs",)),
    (compactify, ("probes",)),
    (generator_path, ("base",)),
]


@pytest.mark.parametrize("func, names", RETIRED,
                         ids=[f.__qualname__ for f, _ in RETIRED])
def test_retired_parameters_are_gone(func, names):
    params = inspect.signature(func).parameters
    assert not set(names) & set(params)
    assert not any(p.kind is p.VAR_KEYWORD for p in params.values())


def test_channel_data_keeps_points_fourth():
    # the bench tracer reads the node count as positional argument 4
    params = list(inspect.signature(ChannelData.__init__).parameters)
    assert params == ["self", "V", "k_min", "k_max", "points"]
