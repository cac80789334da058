"""Pseudo-difference operator calculus on the integer lattice.

Symbols sigma(k, x) on box x grid quantize into operators on lattice
sequences; the package provides the transforms, the symbolic calculus
(composition, adjoint, transpose, approximate inverses), operator
diagnostics, and difference-equation solvers, all on an exactly cyclic
desk-scale model.
"""

from .errors import (ConfigError, DivergenceError, DomainMismatchError,
                     NonFiniteValueError, NotEllipticError, PdzError,
                     ResourceLimitError, SingularSymbolError)
from .grids import LatticeBox, LatticeSequence, TorusFunction, TorusGrid, character_matrix
from .fourier import forward_fourier, inverse_fourier, plancherel_defect
from .symbols import (AmplitudeDefinition, EllipticityReport, PeriodicTaylor,
                      SampledSymbol, SymbolClassParams, SymbolDefinition,
                      constant_symbol, ellipticity_check, falling_derivative,
                      forward_difference, generalized_difference, multi_factorial,
                      multi_indices_below, multi_indices_of_degree, order_fit,
                      periodic_taylor, sample, seminorm_estimate, x_derivative,
                      x_reflect)
from .quantize import (Kernel, OperatorMatrix, PhaseFunction, ToroidalSymbol, apply,
                       apply_amplitude, apply_fso, apply_toroidal, fso_boundedness_check,
                       kernel, kernel_apply, link_defect, matrix, sample_toroidal,
                       symbol_from_operator, toroidal_from_lattice)
from .calculus import (SymbolExpansion, adjoint, amplitude_to_symbol, compose, parametrix,
                       partial_sum, transpose)
from .report import DiagnosticsReport
from .analysis import (WeightedNormParams, compactness_tail, hs_norm,
                       kernel_decay_fit, kernel_decay_fits, lp_bound_report,
                       lp_bound_reports, lp_norm, mikhlin_uniformity,
                       operator_norm_power, schatten_report, schatten_reports, trace,
                       weighted_norm)
from .solver import (SolveReport, invert_multiplier, solve, solve_dense, solve_elliptic,
                     solve_krylov)

__version__ = "0.1.0"
