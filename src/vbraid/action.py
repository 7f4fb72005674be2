"""Exact piecewise-linear action of braid and virtual braid words on Z^{2n}.

A configuration on n strands is a vector (a_1, b_1, ..., a_n, b_n) of
signed integers.  A generator with index i rewrites the quadruple
(a_i, b_i, a_{i+1}, b_{i+1}) and leaves all other entries alone.  Writing
x+ = max(x, 0) and x- = min(x, 0), the positive crossing acts by

    (a, b, c, d) -> (a + b+ + (d+ - e)+,  d - e+,  c + d- + (b- + e)-,  b + e+)

with e = a - b- - c + d+.  The inverse crossing is its mirror image: it is
M o sigma o M with M(a, b, c, d) = (-a, b, -c, d), so it replaces a - c by
c - a in e and subtracts, rather than adds, the two terms added to a and c.
The virtual crossing swaps the two pairs, (a, b, c, d) -> (c, d, a, b).
Words act on the right: the leftmost letter is applied first.

The code evaluates this formula by cases on the signs of b, d and e and
forms no term that the signs make zero.  When e <= 0 the positive crossing
gives (b + c, d, a + d, b) and the inverse (c - b, d, a - d, b): the new b
and d are the old d and b objects, swapped as they are.  When e > 0, d - e
and b + e are formed once as the new b and d, and a and c each become the
sum or difference of two entries, or stay as they are.  Entries meet only
+, - and the comparisons < 0 and > 0, so the action runs unchanged on any
number type that has these.

One routine, ``_run``, writes that formula, and every action reaches it
through a compiled schedule.  ``_steps`` keeps a pair map, the offset of
the entry pair at each position, which a virtual letter updates at compile
time, and turns each crossing into a step on the two offsets it meets.
A classical word never moves the map, so from the identity map its steps
are read from one cached table of letter to step, at C speed.
``act_quad`` runs a one-step schedule; ``apply_letters`` compiles its
letters, runs them and puts back in position order the pairs that the map
moved; the probe battery compiles its word once and runs it on every
probe.

All arithmetic is exact.  Entries are unbounded Python integers; iterated
crossings grow coordinates without bound and no fixed-width type is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from random import Random
from typing import Iterable, Iterator, Sequence

from .words import (
    RHO, SIGMA, SIGMA_INV, BraidWord, Letter, _common_prefix, _inverted, check_strands
)

Quad = tuple[int, int, int, int]
# A crossing of a schedule: (plus, p, p + 1, q, q + 1), plus True for SIGMA.
_Step = tuple[bool, int, int, int, int]
# The one-step schedules of the two crossings on a quadruple.
_QUAD_STEP = {SIGMA: ((True, 0, 1, 2, 3),), SIGMA_INV: ((False, 0, 1, 2, 3),)}


def act_sigma(quad: Quad) -> Quad:
    """Image of a quadruple under the positive crossing."""
    return act_quad(SIGMA, quad)


def act_sigma_inv(quad: Quad) -> Quad:
    """Image of a quadruple under the inverse crossing."""
    return act_quad(SIGMA_INV, quad)


def act_quad(kind: int, quad: Quad) -> Quad:
    """Dispatch on the letter kind (SIGMA, SIGMA_INV or RHO): a crossing runs
    the one-step schedule on the quad's four entries, rho swaps the pairs."""
    a, b, c, d = quad
    if kind == RHO:
        return (c, d, a, b)
    step = _QUAD_STEP.get(kind)
    if step is None:
        raise ValueError(f"unknown letter kind {kind}")
    v = [a, b, c, d]
    _run(v, step)
    return tuple(v)


@dataclass(frozen=True)
class Coordinates:
    """A point of Z^{2n}: entries (a_1, b_1, ..., a_n, b_n)."""

    strands: int
    entries: tuple[int, ...]

    def __post_init__(self):
        check_strands(self.strands)
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != 2 * self.strands:
            raise ValueError(
                f"expected {2 * self.strands} entries for {self.strands} strands, "
                f"got {len(self.entries)}"
            )

    @classmethod
    def from_entries(cls, entries: Iterable[int]) -> "Coordinates":
        entries = tuple(entries)
        if len(entries) % 2 != 0:
            raise ValueError(f"entry count must be even, got {len(entries)}")
        return cls(len(entries) // 2, entries)

    @classmethod
    def from_csv(cls, text: str, strands: int) -> "Coordinates":
        """Parse comma-separated entries; the vector must have exactly
        ``2 * strands`` entries."""
        try:
            entries = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"not a comma-separated integer vector: {text!r}") from None
        return cls(strands, entries)

    def to_csv(self) -> str:
        return ",".join(str(x) for x in self.entries)


def base_vector(strands: int) -> Coordinates:
    """The distinguished start vector (0, 1, 0, 1, ..., 0, 1)."""
    check_strands(strands)  # before the entries are allocated
    return Coordinates(strands, (0, 1) * strands)


def even_sum(coords: Coordinates) -> int:
    """b_1 + ... + b_n; conserved by the action of every word."""
    return sum(coords.entries[1::2])


def apply_letters(entries: Sequence[int], letters: Iterable[Letter]) -> list[int]:
    """Low-level engine: act on a raw entry sequence, returning a new list.

    No validation is performed; callers guarantee letter indices fit the
    vector.  The letters are compiled (``_steps``) and run (``_run``) on a
    copy of the entries, so the virtual letters move no entry at run time.
    The image is a copy of the run vector with each pair that the final
    pair map moved read back into its position; a classical word moves
    none.
    """
    v = list(entries)
    at = list(range(0, len(v), 2))
    _run(v, _steps(letters, at))
    image = v[:]
    j = 0
    for p in at:
        if p != j:
            image[j], image[j + 1] = v[p], v[p + 1]
        j += 2
    return image


class _IdentitySteps(dict):
    """The step of each crossing letter under the identity pair map, built
    the first time the letter is seen: (kind, i) crosses the pairs at
    offsets 2i - 2 and 2i whatever the width, so one table serves every
    strand count and holds at most 2 (MAX_STRANDS - 1) steps."""

    def __missing__(self, letter: Letter) -> _Step:
        kind, i = letter
        step = self[letter] = (kind == SIGMA, 2 * i - 2, 2 * i - 1, 2 * i, 2 * i + 1)
        return step


_IDENTITY_STEPS = _IdentitySteps()


def _steps(letters: Iterable[Letter], at: list[int]) -> list[_Step]:
    """Compile letters into a schedule of crossings (plus, p, p + 1, q, q + 1).

    ``at`` is the pair map: ``at[k]`` is the offset of the entry pair that
    stands at position k + 1.  A rho letter swaps two entries of ``at`` and
    adds no step; a crossing at i crosses the pairs at offsets
    p = at[i - 1] and q = at[i], and ``plus`` is True for SIGMA.  ``at`` is
    left as it is after the letters.  Letters with no rho among them leave
    an identity map as it is, so there each step depends on its letter
    alone and is read from ``_IDENTITY_STEPS`` at C speed; any other call
    compiles letter by letter.
    """
    letters = tuple(letters)  # read twice: scanned for rho, then compiled
    if RHO not in map(itemgetter(0), letters) and at == list(range(0, 2 * len(at), 2)):
        return list(map(_IDENTITY_STEPS.__getitem__, letters))
    steps = []
    for kind, i in letters:
        if kind == RHO:
            at[i - 1], at[i] = at[i], at[i - 1]
        else:
            p, q = at[i - 1], at[i]
            steps.append((kind == SIGMA, p, p + 1, q, q + 1))
    return steps


def _run(v: list[int], steps: Sequence[_Step]) -> None:
    """Run a schedule of ``_steps`` on ``v`` in place: the one crossing formula.

    Each step is the positive crossing of the module docstring on
    (a, b, c, d) = (v[p], v[p1], v[q], v[q1]), or its mirror when ``plus``
    is False, by cases on the signs of b, d and e.  Only the entries that
    change are stored, and when e <= 0 the new (b, d) are the old (d, b) as
    they are.  s and t are the terms added to a and c, and the comments give
    the positive crossing's.  No term the signs make zero is added (an entry
    that is itself 0 is not looked for), and the entries see only +, - and
    the comparisons < 0 and > 0.
    """
    for plus, p, p1, q, q1 in steps:
        a = v[p]
        b = v[p1]
        c = v[q]
        d = v[q1]
        e = a - c if plus else c - a
        if b < 0:
            e -= b
        if d > 0:
            e += d
        if not e > 0:
            v[p] = c + b if plus else c - b
            v[p1] = d
            v[q] = a + d if plus else a - d
            v[q1] = b
            continue
        nb = d - e
        nd = b + e
        if d > 0 and nb > 0:  # s = b+ + nb, so a + s = c + b
            v[p] = c + b if plus else c - b
        elif b > 0:  # s = b; else s = 0 and a stays
            v[p] = a + b if plus else a - b
        if b < 0 and nd < 0:  # t = d- + nd, so c + t = a + d
            v[q] = a + d if plus else a - d
        elif d < 0:  # t = d; else t = 0 and c stays
            v[q] = c + d if plus else c - d
        v[p1] = nb
        v[q1] = nd


def moved_probes(
    letters: tuple[Letter, ...], width: int, count: int, bound: int, rng: Random
) -> Iterator[list[int]]:
    """The probe battery: yield each of ``count`` random probes the letters move.

    Probes have ``width`` entries drawn independently and uniformly from the
    integers in [-bound, bound]: each entry is ``rng.randint(-bound, bound)``,
    written out as CPython's ``Random._randbelow_with_getrandbits`` draw
    (``k = span.bit_length()`` bits, redrawn while ``>= span``), so probes
    and the rng state match the ``randint`` stream exactly.  Probes are drawn
    lazily, so a caller that stops early leaves ``rng`` just past the last
    probe it saw.

    Each probe crosses the conjugator x of letters = x m x^-1 once and m
    once (the split of the ``wordproblem`` module docstring), and the same
    probes are yielded as by acting with the whole word.  The word is
    compiled once per call: x and m become schedules of their crossings
    alone (``_steps``), and the virtual letters only move entry pairs in
    the pair map.  Each probe runs x's schedule on a copy of itself and m's
    on a copy of that; where m's virtual letters leave the map as x left
    it, the two lists are compared as they are, else through the map.
    """
    if bound < 1:
        raise ValueError(f"probe bound must be positive, got {bound}")
    peel = min(_common_prefix(letters, _inverted(letters)), len(letters) // 2)
    at = list(range(0, width, 2))
    head = _steps(letters[:peel], at)
    shared_at = at[:]
    core = _steps(letters[peel : len(letters) - peel], at)
    # order[j] is the entry of the core's image that stands where the head's
    # entry j does; None when the two maps agree.
    order = None
    if at != shared_at:
        order = [0] * width
        for p, q in zip(shared_at, at):
            order[p], order[p + 1] = q, q + 1
    span = 2 * bound + 1
    bits = span.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(count):
        probe = []
        for _ in range(width):
            r = getrandbits(bits)
            while r >= span:
                r = getrandbits(bits)
            probe.append(r - bound)
        shared = probe[:]
        _run(shared, head)
        image = shared[:]
        _run(image, core)
        if order is None:
            if image != shared:
                yield probe
        elif [image[j] for j in order] != shared:
            yield probe


def act_word(coords: Coordinates, word: BraidWord) -> Coordinates:
    """Act by a word, leftmost letter first; the empty word is the identity."""
    if word.strands != coords.strands:
        raise ValueError(
            f"word on {word.strands} strands cannot act on a vector for "
            f"{coords.strands} strands"
        )
    return Coordinates(coords.strands, tuple(apply_letters(coords.entries, word.letters)))
