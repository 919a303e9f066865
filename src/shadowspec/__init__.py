"""shadowspec: spectral verdicts and shadow trajectories for invertible linear operators.

Decides hyperbolicity, uniform expansivity and the shadowing property from
spectra (dense matrices numerically, two-sided weighted shifts analytically),
builds the unit-circle Riesz projector by inverse-free repeated squaring and
resolvent Laurent coefficients by contour quadrature, and explicitly
constructs shadow trajectories for pseudo-orbits, cross-checked by a
least-squares oracle.
"""

from .errors import (
    ContourThroughSpectrumError,
    ConvergenceError,
    DecayCertificateError,
    DimensionMismatchError,
    NotUnimodularError,
    ShadowspecError,
    SingularOperatorError,
)
from .operators import (
    DenseOperator,
    ShiftOperator,
    SupportedVector,
    adjoint,
    apply,
    basis_vector,
    diagonal,
    identity,
    inverse,
    materialize,
    operator_from_json,
    operator_to_json,
    rotate,
)
from .projector import (
    ContourConfig,
    DecayRates,
    LaurentRelationsReport,
    LaurentTable,
    RieszSplitting,
    decay_rates,
    laurent_coefficient,
    laurent_table,
    riesz_projector,
    riesz_splitting,
    verify_laurent_relations,
)
from .shadowing import (
    BGainResult,
    OracleResult,
    PseudoOrbit,
    ShadowResult,
    WindowProbe,
    bgain_test_sequence,
    construct_shadow,
    generate_pseudo_orbit,
    orbit_from_defects,
    rotate_orbit,
    shadow_oracle_lsq,
    window_probe,
)
from .spectral import (
    DualityReport,
    ExpansivityWitness,
    ShiftSpectra,
    SpectralReport,
    Verdicts,
    classify_dense,
    classify_shift,
    duality_check,
    eigenvalues,
    expansivity_witness,
    shift_eigenvector,
    shift_spectra,
    unit_circle_gap,
)

__version__ = "0.1.0"
