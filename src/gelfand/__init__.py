"""Exact verification toolkit for invariant-dimension bounds of matrix-group
pairs over small finite fields: double-coset decompositions with a transpose
action, the symmetric-matrix transporter solver, sphere-swapping reflections,
and complex character tables computed by the modular (mod-l) method.
"""

import os
import sys

# gelfand never calls BLAS: every @ has int16 or int64 operands, which run on
# numpy's own loops, and float64 only appears as bincount weights.  So numpy
# starts without OpenBLAS's worker pool, unless the caller chose a count.
if "numpy" not in sys.modules and not (
        {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
        & os.environ.keys()):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import CapExceededError, DomainError, InternalCheckError
from .field import Fq, Scalar, build_field, field_from_q
from .matrix import MatFq, format_matrix, mat_vec, parse_vector, vec_dot
from .groups import (Embedding, GroupTable, embed_standard, enumerate_gl,
                     enumerate_o, gl_order)
from .cosets import (DoubleCosetDecomposition, InvolutionAction,
                     double_cosets, involution_action)
from .symsolve import oracle_symmetric, solve_symmetric
from .reflections import sphere_points, swap_element
from .chartab import (CharacterTable, ConjClasses, character_table,
                      conjugacy_classes, dim_invariants, verify_pair)
from .pipeline import run_verify, run_sweep

__version__ = "0.1.0"

__all__ = [
    "CapExceededError", "DomainError", "InternalCheckError",
    "Fq", "Scalar", "build_field", "field_from_q",
    "MatFq", "format_matrix", "mat_vec", "parse_vector", "vec_dot",
    "Embedding", "GroupTable", "embed_standard", "enumerate_gl",
    "enumerate_o", "gl_order",
    "DoubleCosetDecomposition", "InvolutionAction", "double_cosets",
    "involution_action",
    "oracle_symmetric", "solve_symmetric",
    "sphere_points", "swap_element",
    "CharacterTable", "ConjClasses", "character_table", "conjugacy_classes",
    "dim_invariants", "verify_pair",
    "run_verify", "run_sweep",
]
