"""Distillability of bipartite Gaussian states at the correlation-matrix level.

A bipartite Gaussian state is distillable exactly when its partial transpose
fails to be a valid state, and the proof is constructive: this package
decides the question (``is_npt``, ``distill_pipeline``) and builds the
certifying protocol — an entanglement witness, local symplectics
concentrating it into one mode pair, a standard-form reduction, a
measurement-based symmetrization, and a reduction-criterion witness value.

Conventions: correlation matrices satisfy gamma - iJ >= 0 with vacuum = I
(see the symplectic module docstring for the form and pairing conventions);
modes are ordered side A first with interleaved (q, p) coordinates.
"""

from .errors import (ConcentrationError, DegeneracyError, DistillError,
                     MeasurementError, NumericsError, PreconditionError)
from .symplectic import (SymplecticMatrix, beam_splitter, direct_sum,
                         embed_pair, extend_to_symplectic_basis, form_matrix,
                         is_symplectic, random_symplectic, skew_product,
                         symplectic_eigenvalues, two_mode_squeezer)
from .states import (CorrelationMatrix, GaussianState, NptVerdict,
                     PhysicalityVerdict, apply_symplectic,
                     condition_on_x_measurement, direct_sum_states, is_npt,
                     is_pure, partial_transpose, pt_form, reduce_to_modes,
                     vacuum, validate_physical, wigner_cm)
from .two_mode import (InseparabilityCheck, RcWitnessResult, StandardForm,
                       StdFormParams, TwoModePhysicality, check_inseparable,
                       check_physical, check_symmetric_inseparable,
                       det_invariants, is_symmetric, rc_sweep, rc_value,
                       standard_form_params, standard_form_transform,
                       tmss_cm, wigner_params)
from .distill import (Concentration, NptWitness, PipelineReport,
                      PipelineStageError, SymmetrizationReport,
                      VERDICT_BOUNDARY, VERDICT_DISTILLABLE,
                      VERDICT_NOT_DISTILLABLE, concentrate, distill_pipeline,
                      find_npt_witness, symmetrize)
from .random_states import (KINDS, local_scramble, random_asymmetric_npt_1x1,
                            random_npt_cm, random_physical_cm, random_state,
                            random_symmetric_two_mode, random_unphysical_pd)
from .statefile import (StateFileError, load_state, pipeline_report_to_dict,
                        save_state, state_from_dict, state_to_dict)
from .fuzz import DEFAULT_TOLERANCES, FuzzConfig, run_fuzz

__version__ = "0.1.0"

__all__ = [
    "CorrelationMatrix", "GaussianState", "NptVerdict", "PhysicalityVerdict",
    "SymplecticMatrix", "StdFormParams", "TwoModePhysicality",
    "InseparabilityCheck", "RcWitnessResult", "NptWitness", "PipelineReport",
    "StandardForm", "Concentration", "SymmetrizationReport", "FuzzConfig",
    "DistillError", "PreconditionError", "NumericsError", "DegeneracyError",
    "ConcentrationError", "MeasurementError", "PipelineStageError",
    "StateFileError",
    "VERDICT_DISTILLABLE", "VERDICT_NOT_DISTILLABLE", "VERDICT_BOUNDARY",
    "KINDS", "DEFAULT_TOLERANCES",
    "form_matrix", "is_symplectic", "symplectic_eigenvalues",
    "skew_product", "extend_to_symplectic_basis", "random_symplectic",
    "direct_sum", "beam_splitter", "two_mode_squeezer", "embed_pair",
    "vacuum", "pt_form", "validate_physical",
    "partial_transpose", "is_npt", "wigner_cm", "is_pure", "reduce_to_modes",
    "condition_on_x_measurement", "apply_symplectic", "direct_sum_states",
    "det_invariants", "standard_form_params", "standard_form_transform",
    "check_physical", "check_inseparable", "is_symmetric",
    "check_symmetric_inseparable", "tmss_cm", "wigner_params",
    "rc_value", "rc_sweep",
    "find_npt_witness", "concentrate", "symmetrize", "distill_pipeline",
    "local_scramble", "random_physical_cm", "random_unphysical_pd",
    "random_state", "random_npt_cm", "random_asymmetric_npt_1x1",
    "random_symmetric_two_mode",
    "load_state", "save_state", "state_from_dict", "state_to_dict",
    "pipeline_report_to_dict", "run_fuzz",
]
