"""Machine-checked transition diagram certifying two-strand faithfulness.

The action of a freely reduced word on a start vector (0, x, 0, y), with x
and y distinct positive integers, never returns to the start.  The argument
is a finite diagram over nine sign-pattern regions of Z^4: every region
reachable from the start box is closed under the next non-cancelling
generator, each crossing step obeys a closed-form linear image map valid on
its source region and strictly increases the L1 norm, and each virtual step
permutes coordinates, preserving the norm.  A nonempty reduced word hence
ends at a vector of larger norm, or at the pair-swapped start, and both
differ from the start vector.  ``VB2_START`` = (0, 2, 0, 1) is such a
vector, so its image decides equality in VB_2 (``wordproblem.distinguish_vbn``
on two strands).

Sign symbols '0', '+', '-', '+0' and '-0' admit zero, positive, negative,
nonnegative and nonpositive entries (the sign table ``_SIGNS``); a pattern
is a quadruple of symbols, met coordinatewise.  ``_BOX_OF``, built from the
patterns and ``_SIGNS``, is the one box lookup (``classify``, ``_step``).

This module encodes the nine boxes and the nineteen arrows (fourteen
crossing arrows plus five virtual ones), checks every arrow on randomized
region samples, checks the diagram's closure combinatorially, and traces
certified paths for concrete words.  One routine, ``_step``, takes a step
along an arrow and checks its laws, for the samples and the traces alike.

The inverse crossing is the positive one mirrored by M(a, b, c, d) =
(-a, b, -c, d), which fixes B1 and swaps B2/B3, B4/B5, B6/B7 and B8/B9: the
fourteen crossing arrows are the seven mirror pairs (sigma^-1 arrow, sigma
arrow) (1, 2), (3, 4), (5, 6), (8, 7), (9, 12), (10, 13) and (14, 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from random import Random
from typing import Callable

from .action import Quad, act_quad
from .words import RHO, SIGMA, SIGMA_INV, BraidWord, free_reduce

# The signs (x > 0) - (x < 0) of the entries x each symbol admits.
_SIGNS = {"0": (0,), "+": (1,), "-": (-1,), "+0": (0, 1), "-0": (-1, 0)}

GENERATOR_NAMES = {SIGMA: "sigma", SIGMA_INV: "sigma^-1", RHO: "rho"}

# Longest freely reduced word ``certify_nontrivial`` takes: a certificate
# keeps the norm of every step, and the entries grow about linearly in bits,
# so its memory is quadratic in the length.
MAX_CERTIFY_LETTERS = 10**4

SignPattern = tuple[str, str, str, str]


# The nine sign-pattern regions of Z^4, by name.
BOXES: dict[str, SignPattern] = {
    "B1": ("0", "+", "0", "+"),
    "B2": ("+", "0", "0", "+"),
    "B3": ("-", "0", "0", "+"),
    "B4": ("0", "+", "+", "0"),
    "B5": ("0", "+", "-", "0"),
    "B6": ("-", "-", "+0", "+"),
    "B7": ("+", "-", "-0", "+"),
    "B8": ("+0", "+", "-", "-"),
    "B9": ("-0", "+", "+", "-"),
}

START_BOX = "B1"
VB2_START = (0, 2, 0, 1)  # a start vector in START_BOX


# The box of each sign quadruple ((a > 0) - (a < 0), ...) some pattern admits.
# The nine patterns are pairwise disjoint, so each key has one box.
_BOX_OF: dict[tuple[int, int, int, int], str] = {
    signs: name
    for name, pattern in BOXES.items()
    for signs in product(*(_SIGNS[symbol] for symbol in pattern))
}


def classify(quad: Quad) -> list[str]:
    """The names of all boxes whose pattern the quadruple satisfies.

    The nine patterns are pairwise disjoint, so the result has at most one
    element; quadruples outside the diagram (for example any with all
    entries positive) match none.
    """
    a, b, c, d = quad
    name = _BOX_OF.get(
        ((a > 0) - (a < 0), (b > 0) - (b < 0), (c > 0) - (c < 0), (d > 0) - (d < 0))
    )
    return [] if name is None else [name]


@dataclass(frozen=True)
class Arrow:
    """A transition of the diagram.

    ``closed_form`` is the explicit image map valid on the source region;
    on every quadruple matching the source pattern it agrees with the
    general action of the generator and lands in the target pattern.
    """

    case: int | None  # 1..14 for crossing arrows, None for virtual ones
    source: str
    generator: int  # SIGMA, SIGMA_INV or RHO
    target: str
    closed_form: Callable[[int, int, int, int], Quad] = field(compare=False)

    @property
    def label(self) -> str:
        return "rho" if self.case is None else str(self.case)

    def describe(self) -> str:
        return (
            f"{self.label}: {self.source} --{GENERATOR_NAMES[self.generator]}--> "
            f"{self.target}"
        )


def _rho_closed_form(a: int, b: int, c: int, d: int) -> Quad:
    return (c, d, a, b)


_ARROWS: tuple[Arrow, ...] = (
    Arrow(1, "B1", SIGMA_INV, "B3", lambda a, b, c, d: (-b, 0, 0, b + d)),
    Arrow(2, "B1", SIGMA, "B2", lambda a, b, c, d: (b, 0, 0, b + d)),
    Arrow(3, "B3", SIGMA_INV, "B6", lambda a, b, c, d: (a, a, 0, d - a)),
    Arrow(4, "B2", SIGMA, "B7", lambda a, b, c, d: (a, -a, 0, a + d)),
    Arrow(5, "B5", SIGMA_INV, "B3", lambda a, b, c, d: (c - b, 0, 0, b)),
    Arrow(6, "B4", SIGMA, "B2", lambda a, b, c, d: (b + c, 0, 0, b)),
    Arrow(7, "B5", SIGMA, "B7", lambda a, b, c, d: (b, c, c, b - c)),
    Arrow(8, "B4", SIGMA_INV, "B6", lambda a, b, c, d: (-b, -c, c, b + c)),
    Arrow(9, "B6", SIGMA_INV, "B6", lambda a, b, c, d: (a, a + b - c, c, c + d - a)),
    Arrow(10, "B8", SIGMA_INV, "B6", lambda a, b, c, d: (c - b, d, a - d, b)),
    Arrow(11, "B8", SIGMA, "B7", lambda a, b, c, d: (a + b, c + d - a, c + d, a + b - c)),
    Arrow(12, "B7", SIGMA, "B7", lambda a, b, c, d: (a, b + c - a, c, a + d - c)),
    Arrow(13, "B9", SIGMA, "B7", lambda a, b, c, d: (b + c, d, a + d, b)),
    Arrow(14, "B9", SIGMA_INV, "B6", lambda a, b, c, d: (a - b, a + d - c, c - d, b + c - a)),
    # Virtual arrows, one out of each box a reduced path can leave by rho.
    # The pair swap carries B2/B4, B3/B5, B6/B8 and B7/B9 onto each other
    # and fixes B1; boxes B4, B5, B8 and B9 are only ever entered by rho,
    # so no reduced path leaves them by rho again.
    Arrow(None, "B1", RHO, "B1", _rho_closed_form),
    Arrow(None, "B2", RHO, "B4", _rho_closed_form),
    Arrow(None, "B3", RHO, "B5", _rho_closed_form),
    Arrow(None, "B6", RHO, "B8", _rho_closed_form),
    Arrow(None, "B7", RHO, "B9", _rho_closed_form),
)

_ARROW_FROM: dict[tuple[str, int], Arrow] = {
    (arrow.source, arrow.generator): arrow for arrow in _ARROWS
}


def arrow_table() -> tuple[Arrow, ...]:
    """The full transition table: fourteen crossing arrows plus five virtual."""
    return _ARROWS


def l1_norm(quad: Quad) -> int:
    """|a| + |b| + |c| + |d|."""
    a, b, c, d = quad
    return abs(a) + abs(b) + abs(c) + abs(d)


# How ``sample_matching`` draws each symbol: (always zero, may be zero, sign).
_PLAN = {
    symbol: (signs == (0,), 0 in signs, 1 if 1 in signs else -1)
    for symbol, signs in _SIGNS.items()
}


def sample_matching(pattern: SignPattern, rng: Random) -> Quad:
    """Draw a quadruple matching the pattern.

    Magnitudes favour the boundary where the piecewise formulas switch:
    value 1 with probability 1/4, otherwise uniform in [1, 10^6]; the
    half-line symbols '+0' and '-0' produce their boundary zero with
    probability 1/4.  Each uniform magnitude is ``rng.randint(1, 10**6)``
    written out as CPython's ``Random._randbelow_with_getrandbits`` draw
    (20 bits, redrawn while ``>= 10**6``), so quadruples and the rng state
    match the ``randint`` stream exactly.
    """
    random = rng.random
    getrandbits = rng.getrandbits
    quad = []
    for zero, may_be_zero, sign in map(_PLAN.__getitem__, pattern):
        if zero or may_be_zero and random() < 0.25:
            quad.append(0)
        elif random() < 0.25:
            quad.append(sign)
        else:
            r = getrandbits(20)  # (10**6).bit_length()
            while r >= 10**6:
                r = getrandbits(20)
            quad.append(sign * (r + 1))
    return tuple(quad)


# The four laws every step along an arrow obeys, each with the key of its
# count in ``ArrowCheck.as_dict``, in the order of the flags of ``_step``.
_LAWS = (
    ("closed form", "closed_form_mismatches"),
    ("target box", "target_escapes"),
    ("norm", "norm_violations"),
    ("b + d", "pair_sum_violations"),
)


def _step(
    arrow: Arrow, quad: Quad, before: int
) -> tuple[Quad, int, tuple[bool, bool, bool, bool]]:
    """The step along ``arrow`` from ``quad`` of L1 norm ``before``: the image,
    its norm and a flag for each law it breaks: the closed form, the target
    box, the norm law (the norm above ``before`` for crossings, equal to it
    for virtual steps) and b + d conservation."""
    kind = arrow.generator
    image = act_quad(kind, quad)
    a, b, c, d = image
    after = abs(a) + abs(b) + abs(c) + abs(d)
    # classify's lookup, written out: a call per step costs about 3% of a trace.
    signs =(a > 0) - (a < 0), (b > 0) - (b < 0), (c > 0) - (c < 0), (d > 0) - (d < 0)
    return image, after, (
        image != arrow.closed_form(*quad),
        _BOX_OF.get(signs) != arrow.target,
        after != before if kind == RHO else after <= before,
        b + d != quad[1] + quad[3],
    )


@dataclass(frozen=True)
class ArrowCheck:
    """Result of sampling one arrow.

    ``violations`` counts the samples breaking each law of ``_step``;
    ``counterexample`` is the first sample that broke any.
    """

    arrow: Arrow
    samples: int
    violations: tuple[int, int, int, int] = (0, 0, 0, 0)
    counterexample: Quad | None = None

    @property
    def ok(self) -> bool:
        return not any(self.violations)

    def as_dict(self) -> dict:
        return {
            "arrow": self.arrow.label,
            "source": self.arrow.source,
            "generator": GENERATOR_NAMES[self.arrow.generator],
            "target": self.arrow.target,
            "samples": self.samples,
            "pass": self.ok,
            **{key: count for (_, key), count in zip(_LAWS, self.violations)},
            "counterexample": None
            if self.counterexample is None
            else list(self.counterexample),
        }


def verify_arrow(arrow: Arrow, samples: int, rng: Random) -> ArrowCheck:
    """Check one arrow on randomized samples of its source region."""
    if samples < 1:
        raise ValueError("at least one sample is required")
    source = BOXES[arrow.source]
    violations = (0, 0, 0, 0)
    counterexample: Quad | None = None
    for _ in range(samples):
        quad = sample_matching(source, rng)
        _, _, broken = _step(arrow, quad, l1_norm(quad))
        if True in broken:
            violations = tuple(n + flag for n, flag in zip(violations, broken))
            if counterexample is None:
                counterexample = quad
    return ArrowCheck(arrow, samples, violations, counterexample)


@dataclass(frozen=True)
class ClosureCheck:
    """Combinatorial closure of the diagram under reduced-word successors.

    For every arrow into a box, each generator that does not freely cancel
    the incoming one must label an arrow out of that box; the start box
    needs all three generators.  ``missing`` lists violations.
    """

    missing: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.missing

    def as_dict(self) -> dict:
        return {"pass": self.ok, "missing": [list(pair) for pair in self.missing]}


def verify_closure() -> ClosureCheck:
    available = set(_ARROW_FROM)
    required: set[tuple[str, int]] = {(START_BOX, kind) for kind in (SIGMA, SIGMA_INV, RHO)}
    for arrow in _ARROWS:
        for kind in (SIGMA, SIGMA_INV, RHO):
            if kind == -arrow.generator:  # would cancel the incoming letter
                continue
            required.add((arrow.target, kind))
    missing = sorted(required - available)
    return ClosureCheck(
        tuple((box, GENERATOR_NAMES[kind]) for box, kind in missing)
    )


@dataclass(frozen=True)
class DiagramReport:
    """Aggregate of all arrow checks and the closure check."""

    arrow_checks: tuple[ArrowCheck, ...]
    closure: ClosureCheck

    @property
    def ok(self) -> bool:
        return self.closure.ok and all(check.ok for check in self.arrow_checks)

    def as_dict(self) -> dict:
        return {
            "pass": self.ok,
            "arrows": [check.as_dict() for check in self.arrow_checks],
            "closure": self.closure.as_dict(),
        }


def verify_diagram(samples: int, rng: Random) -> DiagramReport:
    """Check every arrow on ``samples`` region samples plus the closure."""
    checks = tuple(verify_arrow(arrow, samples, rng) for arrow in _ARROWS)
    return DiagramReport(checks, verify_closure())


@dataclass(frozen=True)
class Certificate:
    """Evidence that a two-strand word acts nontrivially on the start vector.

    ``boxes`` is the traced path (start box first), ``norms`` the L1 norm
    after each step (start norm first).  ``violation`` is None unless the
    trace ever left the diagram or broke a law of its arrow, which would
    contradict the faithfulness theorem and must never happen.
    """

    word: BraidWord
    reduced: BraidWord
    start: Quad
    trivial: bool
    image: Quad
    boxes: tuple[str, ...]
    norms: tuple[int, ...]
    violation: str | None = None


def certify_nontrivial(word: BraidWord, start: Quad = VB2_START) -> Certificate:
    """Freely reduce a two-strand word and certify whether it acts trivially.

    An empty reduction is reported as trivial.  Otherwise the word is
    applied to ``start``, which must have the form (0, x, 0, y) with x and
    y distinct positive integers, and the certificate records the box path
    through the diagram together with the norm sequence, checking each step
    against the arrow table.  A reduced word longer than
    ``MAX_CERTIFY_LETTERS`` is a ValueError.
    """
    if word.strands != 2:
        raise ValueError("certification applies to words on exactly 2 strands")
    start = tuple(start)
    if (
        len(start) != 4
        or not all(map(isinstance, start, (int,) * 4))
        or classify(start) != [START_BOX]
        or start[1] == start[3]
    ):
        raise ValueError(
            "start vector must be (0, x, 0, y) with distinct positive x and y"
        )
    reduced = free_reduce(word)
    if len(reduced.letters) > MAX_CERTIFY_LETTERS:
        raise ValueError(
            f"certification takes at most {MAX_CERTIFY_LETTERS} reduced letters, "
            f"got {len(reduced.letters)}"
        )
    trivial = not reduced.letters
    current = start
    box = START_BOX
    norm = l1_norm(start)
    boxes = [box]
    norms = [norm]
    violation: str | None = None
    for step, (kind, _) in enumerate(reduced.letters, start=1):
        arrow = _ARROW_FROM.get((box, kind))
        if arrow is None:
            violation = f"step {step}: no {GENERATOR_NAMES[kind]} arrow out of {box}"
            break
        image, norm, broken = _step(arrow, current, norm)
        if True in broken:
            law = _LAWS[broken.index(True)][0]
            violation = f"step {step}: arrow {arrow.describe()} breaks the {law} law"
            break
        box = arrow.target
        boxes.append(box)
        norms.append(norm)
        current = image

    if violation is None and not trivial and current == start:
        violation = "nonempty reduced word returned to the start vector"
    return Certificate(
        word, reduced, start, trivial, current, tuple(boxes), tuple(norms), violation
    )
