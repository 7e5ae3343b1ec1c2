"""The public names of numrad: each module's ``__all__`` and the package's
top-level exports."""

import importlib
import types

import pytest

import numrad

MODULES = ("matrixcore", "meansfuncs", "radii", "catalog", "harness")

# the package's top-level public names; a name added or removed is a
# change of the public interface and shows up here
TOP_LEVEL = [
    "ALL_BOUND_IDS", "BoundReport", "CampaignConfig", "CampaignReport",
    "EnsembleSpec", "HermEigen", "LEMMA_IDS", "LoewnerReport", "NumradError",
    "PolarParts", "RadiusResult", "ReferenceRow", "ScalarFn",
    "SharpnessReport", "SpectrumBounds", "abs_op", "aluthge_transform",
    "apply_fn", "as_cmatrix", "check_alpha", "check_aluthge", "check_block",
    "check_classics", "check_lemma", "check_mean_h", "check_mean_h_weighted",
    "check_mox", "check_omega_harmonic", "check_symmetrized", "compress",
    "eval_fn", "evaluate_bound", "general_eigenvalues", "generate", "get_fn",
    "get_pair", "herm_eigen", "kantorovich", "mean", "moduli",
    "numerical_radius", "numerical_radius_oracle", "op_norm", "polar",
    "psd_pow", "reference_examples", "replay_failure", "run_campaign",
    "sharpness_compare", "spectral_radius", "spectrum_bounds",
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"numrad.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_top_level_names_are_pinned():
    public = sorted(name for name, value in vars(numrad).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == TOP_LEVEL
    assert numrad.__version__ == "1.0.0"
