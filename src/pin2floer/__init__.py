"""Pin(2)-monopole Floer machinery: module algebra, Gysin solvers, surgery.

The package computes with graded modules over F[[V]][Q]/(Q^3) in
characteristic two: standard modules and their correction terms, an
oracle + closed form for the Gysin partner problem, exact-triangle and
spectral-sequence utilities over GF(2), surgery formulas for alternating
knots, and a catalog of known model spaces. ``p2f --help`` lists the
command-line surface.
"""

from __future__ import annotations

from .complexes import (
    ChainMap,
    GradedComplex,
    ExactnessReport,
    GradedMap,
    Homotopy,
    NotAcyclic,
    SpectralPages,
    Triangle,
    assemble_monopole_complexes,
    check_exact_triangle,
    filtered_pages,
    iterated_mapping_cone,
    triangle_detect,
)
from .gf2 import ContractError, F2Matrix
from .gysin import (
    FamilyAnswer,
    GysinCandidate,
    GysinError,
    GysinSolution,
    closed_form_corrected,
    feasibility_check,
    increase_classify,
    oracle_solve,
    stated_corrected_diffs,
)
from .modules import (
    Box,
    CorrectionTerms,
    RingElement,
    StandardModule,
    StructuredModule,
    Tower,
    WindowError,
    F_box,
    T_plus,
    classify_parity,
    correction_terms_of,
    direct_sum,
    format_grading,
    module_from_json,
    module_to_json,
    reverse_orientation,
    standard_from_starts,
)
from .surgery import (
    BarTowers,
    CatalogEntry,
    KnotData,
    KnotError,
    PipelineMismatch,
    blowup_coefficient,
    catalog,
    catalog_check,
    catalog_names,
    correction_terms,
    hm_plus_one_surgery,
    hm_zero_surgery,
    hs_plus_one_surgery,
    minus_one_towers,
    plus_one_from_signature,
    seifert_obstruction,
    spin_cobordism_check,
    table_correction_terms,
    validate_knot,
    zero_surgery_bar_towers,
)
from .verify import VerifyReport, run_verify

__version__ = "0.1.0"
