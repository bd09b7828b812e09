"""Loss-resilient entanglement swapping with hybrid photonic resources.

Simulates two-party entanglement swapping on a truncated Fock space,
comparing hybrid qubit/coherent-state carriers against the
vacuum/single-photon baseline under channel loss and detector
inefficiency, and checks the simulated success probabilities and
entanglement negativities against their closed forms.
"""

from .fock import (
    DensityOperator,
    ModeKind,
    ModeRegister,
    ModeSpec,
    StateVector,
    bosonic,
    coherent_tail_mass,
    fidelity,
    make_coherent,
    make_fock,
    make_hybrid_pair,
    make_vsp_bell,
    mean_photon,
    overlap,
    qubit,
    reduced_density,
    tensor,
)
from .optics import (
    FIFTY_FIFTY,
    BeamSplitterParams,
    apply_bs,
    apply_loss,
    apply_loss_dilated,
    bs_unitary,
    homodyne_grid,
    loss_channel,
    measure_and_reduce,
    quadrature_amplitudes,
    with_inefficiency,
)
from .negativity import negativity, partial_transpose
from .closed_form import SCHEMES, ClosedFormPoint, closed_form, dv_loss_limit
from .protocols import (
    DEFAULT_CUTOFF,
    SwapOutcome,
    SwapResult,
    default_cutoff,
    dv_swap,
    he_swap_homodyne,
    he_swap_spd,
)
from .sweep import (
    CSV_COLUMNS,
    ConfigError,
    SweepConfig,
    evaluate_point,
    format_value,
    parse_config,
    run_sweep,
)
from .verification import cv_bsm_failure_prob

__version__ = "0.1.0"
