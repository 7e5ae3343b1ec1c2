"""numrad: numerical radius computations and an inequality verification lab.

The package has three layers:

* `matrixcore` / `radii` / `meansfuncs` — dense complex matrix
  primitives, the certified numerical radius (plus an independent
  oracle), and operator means with a closed scalar-function registry;
* `catalog` — evaluators for a fixed vocabulary of inequality claims
  (B01-B21) and auxiliary lemmas (L01-L09), each returning a report
  with both sides, slack, and hypothesis diagnostics;
* `harness` / `cli` — seeded random-matrix campaigns that try to
  falsify every catalogued claim, reference-value reproduction, and a
  command-line front end (``numrad eval|check|campaign|repro``).
"""

from .catalog import (
    ALL_BOUND_IDS,
    LEMMA_IDS,
    BoundReport,
    LoewnerReport,
    aluthge_transform,
    check_alpha,
    check_aluthge,
    check_block,
    check_classics,
    check_lemma,
    check_mean_h,
    check_mean_h_weighted,
    check_mox,
    check_omega_harmonic,
    check_symmetrized,
    evaluate_bound,
)
from .errors import NumradError
from .harness import (
    CampaignConfig,
    CampaignReport,
    EnsembleSpec,
    ReferenceRow,
    SharpnessReport,
    generate,
    reference_examples,
    replay_failure,
    run_campaign,
    sharpness_compare,
)
from .matrixcore import (
    HermEigen,
    PolarParts,
    abs_op,
    apply_fn,
    as_cmatrix,
    general_eigenvalues,
    herm_eigen,
    moduli,
    op_norm,
    polar,
)
from .meansfuncs import (
    ScalarFn,
    SpectrumBounds,
    compress,
    eval_fn,
    get_fn,
    get_pair,
    kantorovich,
    mean,
    psd_pow,
    spectrum_bounds,
)
from .radii import (
    RadiusResult,
    numerical_radius,
    numerical_radius_oracle,
    spectral_radius,
)

__version__ = "1.0.0"
