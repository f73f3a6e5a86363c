"""symprod: exact arithmetic for symmetric products of rational self-maps of
the projective line.

The k-symmetric product of f sends a degree-d self-map of P^1 to the degree-d
endomorphism F of P^k acting on unordered k-tuples of points; rational points
of P^k encode Galois-stable multisets, so computations over number fields of
degree up to k (preperiodic structure, canonical heights, multiplier spectra)
reduce to exact computations over Q.
"""

from .errors import (BudgetExceededError, CertificateError, DegenerateMapError,
                     DomainError, FieldMismatchError, ParseError,
                     PrecisionError, SymprodError)
from .unipoly import Rat, UniPoly
from .intfactor import factor_integer, is_prime, prime_divisors
from .polyfactor import (factor_unipoly, is_irreducible, rational_roots,
                         squarefree_decomposition)
from .numberfield import (NFElem, NumberField, minimal_polynomial, nf_arith,
                          roots_in_number_field, same_field)
from .mpoly import MPoly, elementary_symmetric
from .projective import (AlgebraicPoint, BinaryForm, MorphismPk, P1_INFINITY,
                         PkPoint, RationalMap1, form_of_point,
                         morphism_of_map, p1_point, point_of_form,
                         zero_form_to_point_form)
from .symmetric import (conjugate_points, decompose_form, eta, eta_coords,
                        eta_tilde, symmetrize, verify_commutation)
from .dynamics import (DEFAULT_BUDGET, OrbitClassification, PeriodBoundInput,
                       PreperiodicGraph, apply, default_n_max, exponent_bound,
                       fixed_point_form, orbit_classify, period_bound,
                       periods_mod_p, preperiodic_graph, rational_periodic_points,
                       rational_preimages)
from .heights import (BadPrimeSet, HeightValue, bad_primes, bad_primes_sym,
                      canonical_height, canonical_height_nf, green_local,
                      height_comparison_constant, morphism_certificate,
                      naive_height, preperiodicity_bound)
from .spectra import (MultiplierReport, PCFCertificate, critical_points,
                      is_pcf, is_strongly_pcf_symmetric, multiplier_F,
                      multiplier_f)
from .parser import MapExpression, parse_map, parse_point

__version__ = "0.1.0"

__all__ = [
    "AlgebraicPoint", "BadPrimeSet", "BinaryForm", "BudgetExceededError",
    "CertificateError", "DEFAULT_BUDGET", "DegenerateMapError", "DomainError",
    "FieldMismatchError", "HeightValue", "MapExpression", "MorphismPk",
    "MPoly", "MultiplierReport", "NFElem", "NumberField",
    "OrbitClassification", "P1_INFINITY", "ParseError", "PCFCertificate",
    "PeriodBoundInput", "PkPoint", "PrecisionError", "PreperiodicGraph",
    "Rat", "RationalMap1", "SymprodError", "UniPoly", "apply", "bad_primes",
    "bad_primes_sym", "canonical_height", "canonical_height_nf",
    "conjugate_points", "critical_points", "decompose_form", "default_n_max",
    "elementary_symmetric", "eta", "eta_coords", "eta_tilde",
    "exponent_bound", "factor_integer", "factor_unipoly", "fixed_point_form",
    "form_of_point", "green_local", "height_comparison_constant",
    "is_irreducible", "is_pcf", "is_prime", "is_strongly_pcf_symmetric",
    "minimal_polynomial", "morphism_certificate", "morphism_of_map",
    "multiplier_F", "multiplier_f", "naive_height",
    "nf_arith", "orbit_classify", "p1_point", "parse_map", "parse_point",
    "period_bound", "periods_mod_p", "point_of_form", "preperiodic_graph",
    "preperiodicity_bound", "prime_divisors", "rational_periodic_points",
    "rational_preimages", "rational_roots", "roots_in_number_field",
    "same_field", "squarefree_decomposition", "symmetrize",
    "verify_commutation", "zero_form_to_point_form",
]
