"""Word-problem deciders built on the coordinate action.

Equality of classical braid words is decided completely by comparing images
of the base vector (0, 1, ..., 0, 1); the action separates distinct braids.
On two strands the full virtual braid group is likewise separated by the
vector ``diagram.VB2_START``, as that module proves.  ``distinguish_vbn`` is
the one entry point for a pair: it applies these two complete deciders where
they hold, on two strands and to two classical words.  For virtual words on
three or more strands faithfulness of the action is an open question, so
there it is sound but incomplete: it reports Distinct only with a concrete
witness and otherwise answers Equal solely for letter-identical reduced
words, else Unknown.

One routine, ``_distinct_on``, acts on a pair, and only where the two words
differ.  It splits them once with ``words._common_prefix`` as x m1 z and
x m2 z, with x the longest common prefix and z the longest common prefix of
the reversed rests.  Every letter acts as a bijection of Z^{2n}, so
p.x.m1.z = p.x.m2.z exactly when p.x.m1 = p.x.m2: x is applied once and z
only to build the witness images of a Distinct verdict.  On a faithful probe
(the base vector in B_n, ``VB2_START`` on two strands) only the identity
fixes p, so two blocks s and r, wherever they stand in the words, are equal
exactly when p.s = p.r.  The two complete
deciders alone set its ``faithful`` flag, and it then first cuts the middles
with ``words._blocks`` as m1 = s_1 c_1 s_2 ... s_k and m2 = r_1 c_1 r_2 ... r_k
at their common runs c_i, found within a few letters of each block, and acts
on each block pair from the probe itself: if every pair agrees, the words are
equal.  Middles of at most 128 letters together are one block, so a short
pair crosses its middles as before, and that one block is tested only when x
is nonempty, since with x empty it is the pass itself.  The blocks are tested
only when 2 (|s_1| + |r_1| + ... + |s_k| + |r_k|) <= |x| + |m1| + |m2| + 2|z|,
the letters of one pass, so a Distinct pair, which then makes the one pass
as well, does at most half again its work.

Free reduction never changes the action (a cancelled pair is the identity),
so the battery runs on the freely reduced quotient w1 w2^-1 and moves the
same probes as the unreduced one.  ``action.moved_probes`` splits its word w
once as x m x^-1, with x the common prefix of w and w^-1 capped at half of w,
and applies each probe to x once: p.x.m.x^-1 = p exactly when p.x.m = p.x.
It compiles x and m once per call into schedules of their crossings, with
the virtual letters folded into a map of where each entry pair stands, so
a probe pays for the crossings of x and m and for nothing else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random

from .action import Coordinates, apply_letters, base_vector, moved_probes
from .diagram import VB2_START
from .words import (
    BraidWord, _blocks, _common_prefix, _inverted, _reduced, format_word, free_reduce, permutation
)

# The probe distribution for randomized batteries: entries uniform on
# integers in [-BATTERY_BOUND, BATTERY_BOUND].
BATTERY_BOUND = 100


class Equality(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an equality test.

    Distinct verdicts always carry a reproducible witness: either a probe
    vector with the two differing images, or the two differing strand
    permutations (probe is None in that case).
    """

    status: Equality
    witness: str | None = None
    probe: tuple[int, ...] | None = None
    images: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def _distinct_on(
    probe: Coordinates, w1: BraidWord, w2: BraidWord, faithful: bool = False
) -> Verdict | None:
    """None when both words move ``probe`` alike, else Distinct with the images
    of the whole words, by the split and passes of the module docstring.  Set
    ``faithful`` only for a probe that the identity alone fixes: then block
    pairs that all agree on the probe decide the words equal, and otherwise
    the one pass decides."""
    a, b = w1.letters, w2.letters
    x = _common_prefix(a, b)
    z = _common_prefix(a[x:][::-1], b[x:][::-1])
    m1, m2 = a[x : len(a) - z], b[x : len(b) - z]
    start = probe.entries
    if faithful:
        blocks = _blocks(m1, m2, (x + len(m1) + len(m2) + 2 * z) // 2)
        if blocks and (x or len(blocks) > 1):
            for s, r in blocks:
                if apply_letters(start, s) != apply_letters(start, r):
                    break
            else:
                return None
    shared = apply_letters(start, a[:x])
    left, right = apply_letters(shared, m1), apply_letters(shared, m2)
    if left == right:
        return None
    suffix = a[len(a) - z :]
    return Verdict(
        Equality.DISTINCT,
        witness=f"vector {probe.to_csv()} is moved differently",
        probe=start,
        images=(tuple(apply_letters(left, suffix)), tuple(apply_letters(right, suffix))),
    )


def are_equal_bn(w1: BraidWord, w2: BraidWord) -> Verdict:
    """Decide equality in the braid group B_n; never Unknown.

    Both words must be classical (no virtual letters).  Equality holds
    exactly when the images of the base vector coincide.
    """
    if w1.strands != w2.strands:
        raise ValueError(f"strand counts differ: {w1.strands} vs {w2.strands}")
    for word in (w1, w2):
        if not word.is_classical():
            raise ValueError(
                f"word {format_word(word)!r} contains a virtual letter; "
                "B_n equality is defined for crossing letters only"
            )
    return _decide_bn(w1, w2)


def _decide_bn(w1: BraidWord, w2: BraidWord) -> Verdict:
    """``are_equal_bn`` behind its checks: the base vector decides the pair."""
    probe = base_vector(w1.strands)
    why = f"equal image of the base vector {probe.to_csv()}, which separates distinct braids"
    return _distinct_on(probe, w1, w2, faithful=True) or Verdict(Equality.EQUAL, witness=why)


def distinguish_vbn(
    w1: BraidWord, w2: BraidWord, battery: int = 1000, rng: Random | None = None
) -> Verdict:
    """Sound equality test for virtual braid words on any strand count.

    Words on two strands go to the complete two-strand decider, and two
    classical words, after the one check of each, to the braid decider's
    core, as given: never Unknown, and no probe is drawn.  Otherwise it
    returns Distinct when the strand permutations differ, when the base
    vector is moved differently, or when any of ``battery`` random probe
    vectors is; Equal only for letter-identical reduced words; else Unknown,
    for no faithful vector is known.  A negative ``battery`` is a ValueError,
    and so is ``rng`` None with ``battery`` > 0 on a pair the complete
    deciders leave, before any work.
    """
    if w1.strands != w2.strands:
        raise ValueError(f"strand counts differ: {w1.strands} vs {w2.strands}")
    if battery < 0:
        raise ValueError(f"battery size must be nonnegative, got {battery}")
    if w1.strands == 2:
        probe = Coordinates(2, VB2_START)
        why = f"equal image of {probe.to_csv()}, on which the two-strand action is faithful"
        return _distinct_on(probe, w1, w2, faithful=True) or Verdict(Equality.EQUAL, witness=why)
    if w1.is_classical() and w2.is_classical():
        return _decide_bn(w1, w2)
    if battery > 0 and rng is None:
        raise ValueError(
            "the probe battery (battery > 0) needs a seeded Random: --seed on the command line"
        )
    # Free reduction keeps the action, so the checks below use the reduced words.
    w1, w2 = free_reduce(w1), free_reduce(w2)
    if w1.letters == w2.letters:
        return Verdict(Equality.EQUAL, witness="identical words after free reduction")

    p1, p2 = permutation(w1), permutation(w2)
    if p1 != p2:
        return Verdict(
            Equality.DISTINCT,
            witness="strand permutations differ",
            images=(p1, p2),
        )
    verdict = _distinct_on(base_vector(w1.strands), w1, w2)
    if verdict is not None:
        return verdict

    if battery > 0:
        # The action is a bijection: p.w1 != p.w2 exactly when w1 w2^-1 moves p.
        quotient = _reduced(w1.letters + _inverted(w2.letters))
        probe = next(moved_probes(quotient, 2 * w1.strands, battery, BATTERY_BOUND, rng), None)
        if probe is not None:
            return _distinct_on(Coordinates(w1.strands, tuple(probe)), w1, w2)
    return Verdict(
        Equality.UNKNOWN,
        witness=f"agree on the strand permutation, the base vector and "
        f"{battery} random probes; equality is undecided for "
        f"{w1.strands} strands",
    )
