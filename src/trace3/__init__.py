"""Exact counting of binary-field elements and irreducible polynomials by
their first three traces, cross-verified through point counts on three
supersingular Artin-Schreier curve families."""

__version__ = "0.1.0"

from .field import BudgetError, FieldContext, build_context
from .traces import (TraceCensus, count_irreducibles_with_prefix,
                     trace_census, trace_class_count, trace_triple)
from .closedforms import (carlitz_count, count_all_zero_traces,
                          count_three_traces, count_two_traces, gauss_count,
                          irreducible_all_zero)
from .curves import (CurveSpec, FrobeniusData, closed_count_combined,
                     closed_count_twist, count_points_oracle,
                     frobenius_charpoly, kani_rosen_check, power_sum_sequence,
                     spectral_count, supersingularity_certificate)
from .quadforms import (QuadForm, RadicalReport, cubic_root_census,
                        cubic_root_count, radical_report, twist_form)
from .fourier import PeriodicFormula, analyze_sequence, dft_extract, reconstruct
