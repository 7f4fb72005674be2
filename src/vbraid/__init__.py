"""Exact coordinates for braid and virtual braid groups.

Words in the crossing generators sigma_i and the virtual generators rho_i
act on Z^{2n} by exact piecewise-linear bijections.  The package models
words, implements the action, decides word equality where the action is
known to be faithful, machine-checks the two-strand faithfulness diagram,
and runs randomized searches for words acting trivially.

Every public name lives in its submodule (``vbraid.words.parse_word``,
``vbraid.hunt.hunt``, ...); the package re-exports none of them.
"""

from . import action, diagram, hunt, wordproblem, words

__version__ = "0.1.0"
