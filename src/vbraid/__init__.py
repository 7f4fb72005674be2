"""Exact coordinates for braid and virtual braid groups.

Words in the crossing generators sigma_i and the virtual generators rho_i
act on Z^{2n} by exact piecewise-linear bijections.  The package models
words, implements the action, decides word equality where the action is
known to be faithful, machine-checks the two-strand faithfulness diagram,
and runs randomized searches for words acting trivially.
"""

from .action import (
    Coordinates,
    Quad,
    act_quad,
    act_rho,
    act_sigma,
    act_sigma_inv,
    act_word,
    apply_letters,
    base_vector,
    even_sum,
)
from .diagram import (
    BOXES,
    Arrow,
    ArrowCheck,
    Box,
    Certificate,
    ClosureCheck,
    DiagramReport,
    arrow_table,
    certify_nontrivial,
    classify,
    l1_norm,
    pattern_matches,
    sample_matching,
    symbol_matches,
    verify_arrow,
    verify_closure,
    verify_diagram,
)
from .hunt import (
    Fixer,
    HuntConfig,
    HuntReport,
    hunt,
    moved_fraction,
    provably_trivial,
    relation_rules,
)
from .wordproblem import (
    Equality,
    Verdict,
    are_equal_bn,
    are_equal_vb2,
    distinguish_vbn,
)
from .words import (
    RHO,
    SIGMA,
    SIGMA_INV,
    BraidWord,
    Letter,
    ParseError,
    cancels,
    format_word,
    free_reduce,
    inverse,
    parse_word,
    permutation,
    random_reduced_word,
)

__version__ = "0.1.0"
