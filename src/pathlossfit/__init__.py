"""Multi-frequency path loss model fitting, comparison and sensitivity analysis.

Fits the floating-intercept (ABG/AB) and close-in reference (CI, CI with
optimized d0, CIF) large-scale path loss models to measurement data with
exact closed-form minimum-shadow-fading estimators, conditions raw data by
distance binning and thresholding, and scores each model's prediction error
over distance/frequency splits of the data.
"""

from .domain import (
    ABGParams,
    ABParams,
    CIFParams,
    CIOptParams,
    CIParams,
    Dataset,
    DomainError,
    Environment,
    FitReport,
    FREE_SPACE_INTERCEPT_DB,
    INH_OFFICE,
    INH_SM,
    ModelParams,
    OTHER,
    PathLossSample,
    Scenario,
    SPEED_OF_LIGHT,
    UMA,
    UMI_SC,
    evaluate,
    fspl,
    param_values,
    params_from_dict,
    params_to_dict,
    rms,
)
from .fitters import (
    DegenerateDesignError,
    FitError,
    RegressionDesign,
    SingleFrequencyError,
    SingularDesignError,
    fit_ab,
    fit_abg,
    fit_ci,
    fit_ci_opt,
    fit_cif,
    fit_with_reversion,
)
from .ingest import IngestError, SyntheticSpec, counter_uniforms, generate, load_csv, write_csv
from .oracle import oracle_fit
from .preprocess import PreprocessSettings, apply as preprocess, bin_by_distance, threshold
from .sensitivity import (
    DistanceClose,
    DistanceFar,
    FrequencyLOO,
    PredictionReport,
    SweepError,
    parameter_trace,
    prediction_sigma,
    run_sweep,
    split,
)

__version__ = "0.1.0"
