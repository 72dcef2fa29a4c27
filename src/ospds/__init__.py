"""Weight-diagram calculus for the orthosymplectic series: arc diagrams,
translation moves, reduction of simple modules, superdimensions."""

from .diagram import (CROSS, EMPTY, GT, LT, DomainError, ParseError,
                      WeightDiagram, atypicality, core_of,
                      enumerate_corefree, fmt, is_stable, pari, parse, sigma,
                      tail_length, validate)
from .ds import Decomposition, GradedMult, check_purity, ds1, ds_osp, dsr
from .howl import howl, tau, tau_inv, unhowl
from .oracle import oracle_mult1
from .sdim import superdimension, weyl_dim_so
from .translate import shrink, stabilize, trans_swap
from .weightmap import DominantWeight, diagram_to_weight, weight_to_diagram

__all__ = [
    "WeightDiagram", "GT", "LT", "CROSS", "EMPTY",
    "ParseError", "DomainError",
    "parse", "fmt", "validate", "core_of", "atypicality", "tail_length",
    "is_stable", "sigma", "pari", "enumerate_corefree",
    "howl", "unhowl", "tau", "tau_inv",
    "trans_swap", "stabilize", "shrink",
    "Decomposition", "GradedMult", "ds1", "dsr", "check_purity",
    "ds_osp", "oracle_mult1",
    "superdimension", "weyl_dim_so",
    "DominantWeight", "weight_to_diagram", "diagram_to_weight",
]

__version__ = "0.1.0"
