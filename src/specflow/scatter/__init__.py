"""Schrödinger scattering backends and the Levinson verification."""

from .levinson import (
    ChannelData,
    HighEnergyPoly,
    LevinsonReport,
    high_energy_poly,
    levinson_verify,
    regularization_necessity,
    resonance_detect,
    schatten_decay_exponent,
)
from .onedim import (
    birman_schwinger_det_1d,
    bound_states_1d,
    resonance_statistic_1d,
    smatrix_1d,
    transfer_matrix,
)
from .potentials import Potential1D, RadialPotential
from .radial import (
    bound_state_channels,
    bound_states_radial,
    choose_lmax,
    phase_shifts_3d,
    smatrix_diag_radial,
    threshold_statistics_radial,
)

__all__ = [
    "ChannelData",
    "HighEnergyPoly",
    "LevinsonReport",
    "Potential1D",
    "RadialPotential",
    "birman_schwinger_det_1d",
    "bound_state_channels",
    "bound_states_1d",
    "bound_states_radial",
    "choose_lmax",
    "high_energy_poly",
    "levinson_verify",
    "phase_shifts_3d",
    "regularization_necessity",
    "resonance_detect",
    "resonance_statistic_1d",
    "schatten_decay_exponent",
    "smatrix_1d",
    "smatrix_diag_radial",
    "threshold_statistics_radial",
    "transfer_matrix",
]
