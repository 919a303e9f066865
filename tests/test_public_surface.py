"""The public surface: each layer's `__all__` and the names the package exports,
which are exactly those `__all__` entries.

Tracing and tooling look the `__all__` entries up with `getattr(mod, name, None)`
and skip a stale entry silently, so every entry must resolve here; the package's
export list is pinned so that removing a name is a deliberate change.
"""

import importlib
import types

import pytest

import shadowspec

LAYERS = ("errors", "operators", "spectral", "projector", "shadowing")

EXPORTS = [
    "BGainResult",
    "ContourConfig",
    "ContourThroughSpectrumError",
    "ConvergenceError",
    "DEFAULT_GAP_TOL",
    "DecayCertificateError",
    "DecayRates",
    "DenseOperator",
    "DimensionMismatchError",
    "DualityReport",
    "ExpansivityWitness",
    "LaurentRelationsReport",
    "LaurentTable",
    "NotUnimodularError",
    "OracleResult",
    "PseudoOrbit",
    "RieszSplitting",
    "ShadowResult",
    "ShadowspecError",
    "ShiftOperator",
    "ShiftSpectra",
    "SingularOperatorError",
    "SpectralReport",
    "SupportedVector",
    "Verdicts",
    "WindowProbe",
    "adjoint",
    "apply",
    "basis_vector",
    "bgain_test_sequence",
    "classify_dense",
    "classify_shift",
    "construct_shadow",
    "decay_rates",
    "diagonal",
    "duality_check",
    "eigenvalues",
    "expansivity_witness",
    "generate_pseudo_orbit",
    "identity",
    "inverse",
    "laurent_coefficient",
    "laurent_table",
    "materialize",
    "operator_from_json",
    "operator_to_json",
    "orbit_from_defects",
    "riesz_projector",
    "riesz_splitting",
    "rotate",
    "rotate_orbit",
    "shadow_oracle_lsq",
    "shift_eigenvector",
    "shift_spectra",
    "splitting_power_stacks",
    "unit_circle_gap",
    "vec_norm",
    "verify_laurent_relations",
    "window_probe",
]


@pytest.mark.parametrize("layer", LAYERS)
def test_every_all_entry_resolves(layer):
    mod = importlib.import_module(f"shadowspec.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_are_pinned():
    exported = sorted(
        name
        for name, value in vars(shadowspec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == EXPORTS


def test_package_exports_exactly_the_layers_all():
    layers = [importlib.import_module(f"shadowspec.{layer}") for layer in LAYERS]
    names = [name for mod in layers for name in mod.__all__]
    # a name in two layers would be bound by whichever star import runs last
    assert len(set(names)) == len(names)
    assert sorted(names) == EXPORTS
