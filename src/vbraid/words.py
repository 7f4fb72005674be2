"""Words in the generators of the braid group B_n and the virtual braid group VB_n.

A word over n strands is a finite sequence of letters drawn from
sigma_1, ..., sigma_{n-1} (positive crossings), their inverses, and
rho_1, ..., rho_{n-1} (virtual crossings, each an involution).

Text format: one token per letter, whitespace separated.  's3' is sigma_3,
'S3' is sigma_3^{-1}, 'r3' is rho_3.  A token may carry an integer exponent
after '^', e.g. 's1^-2'; rho tokens with even exponent vanish and with odd
exponent contribute a single rho.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from random import Random
from typing import NamedTuple

SIGMA = 1
SIGMA_INV = -1
RHO = 0

_KINDS = (SIGMA, SIGMA_INV, RHO)
_KIND_CHAR = {SIGMA: "s", SIGMA_INV: "S", RHO: "r"}
_CHAR_KIND = {char: kind for kind, char in _KIND_CHAR.items()}

# Upper bound on the letters of a parsed word, checked before exponents
# expand, so no word text can make the parser allocate without limit.
MAX_LETTERS = 10**6

# Upper bound on the strand count of a word, a vector or a hunt; vectors and
# permutations take memory linear in it.
MAX_STRANDS = 10**4

_TOKEN_RE = re.compile(r"([sSr])([0-9]+)(?:\^(-?[0-9]+))?\Z")
_BAD_EXPONENT_RE = re.compile(r"[sSr][0-9]+\^.*\Z")


class Letter(NamedTuple):
    """A single generator letter; kind is SIGMA, SIGMA_INV or RHO."""

    kind: int
    index: int

    def inverse(self) -> "Letter":
        # -0 == 0, so rho letters are their own inverses.
        return Letter(-self.kind, self.index)


def cancels(first: Letter, second: Letter) -> bool:
    """True when the two adjacent letters cancel freely."""
    return first.index == second.index and first.kind == -second.kind


def check_strands(strands: int) -> None:
    """Reject a strand count outside [2, MAX_STRANDS] with a ValueError."""
    if strands < 2:
        raise ValueError(f"strand count must be at least 2, got {strands}")
    if strands > MAX_STRANDS:
        raise ValueError(f"strand count must be at most {MAX_STRANDS}, got {strands}")


class ParseError(ValueError):
    """Raised for malformed word text; carries the 1-based token position."""

    def __init__(self, position: int, token: str, problem: str):
        super().__init__(f"token {position} ({token!r}): {problem}")
        self.position = position


@dataclass(frozen=True)
class BraidWord:
    """A word in the generators of VB_n (or of B_n, if no rho occurs)."""

    strands: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        check_strands(self.strands)
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        for letter in self.letters:
            if letter.kind not in _KINDS:
                raise ValueError(f"unknown letter kind {letter.kind}")
            if not 1 <= letter.index < self.strands:
                raise ValueError(
                    f"letter index {letter.index} out of range for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands != other.strands:
            raise ValueError("cannot concatenate words with different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def __str__(self) -> str:
        return format_word(self)

    def is_classical(self) -> bool:
        """True when the word contains no virtual letter."""
        return RHO not in map(itemgetter(0), self.letters)


def _decimal(position: int, token: str, digits: str, what: str) -> int:
    # int() refuses more than sys.get_int_max_str_digits() digits.
    try:
        return int(digits)
    except ValueError:
        raise ParseError(position, token, f"{what} has too many digits") from None


def parse_word(text: str, strands: int | None = None) -> BraidWord:
    """Parse word text into a BraidWord.

    With ``strands`` omitted the strand count is inferred as one more than
    the largest generator index (minimum 2).  Exponents expand in place:
    's1^3' gives three copies of sigma_1, negative exponents invert, and a
    rho exponent only matters mod 2.  A word longer than ``MAX_LETTERS``
    letters, or an index that needs more than ``MAX_STRANDS`` strands, is a
    ParseError.
    """
    limit = MAX_STRANDS if strands is None else strands
    check_strands(limit)
    letters: list[Letter] = []
    max_index = 0
    for position, token in enumerate(text.split(), start=1):
        match = _TOKEN_RE.match(token)
        if match is None:
            if _BAD_EXPONENT_RE.match(token):
                raise ParseError(position, token, "exponent is not an integer")
            raise ParseError(position, token, "malformed token")
        char, index_text, exponent_text = match.groups()
        index = _decimal(position, token, index_text, "index")
        if index == 0:
            raise ParseError(position, token, "generator index must be at least 1")
        if index >= limit:
            raise ParseError(
                position, token, f"index {index} out of range for {limit} strands"
            )
        max_index = max(max_index, index)
        kind = _CHAR_KIND[char]
        if exponent_text is None:
            exponent = 1
        elif kind == RHO:
            # Only the parity matters, and the last digit has it.
            exponent = int(exponent_text[-1])
        else:
            exponent = _decimal(position, token, exponent_text, "exponent")
        count = exponent % 2 if kind == RHO else abs(exponent)
        if len(letters) + count > MAX_LETTERS:
            raise ParseError(position, token, f"word exceeds {MAX_LETTERS} letters")
        letter = Letter(kind, index)
        letters.extend([letter if exponent > 0 else letter.inverse()] * count)
    if strands is None:
        strands = max(2, max_index + 1)
    return BraidWord(strands, tuple(letters))


def format_word(word: BraidWord) -> str:
    """Canonical text: one token per letter, space separated, no exponents."""
    return " ".join(_KIND_CHAR[kind] + str(index) for kind, index in word.letters)


def _reduced(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Free reduction of a letter tuple; ``free_reduce`` on bare letters."""
    stack: list[Letter] = []
    for letter in letters:
        if stack and cancels(stack[-1], letter):
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _inverted(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Group inverse of a letter tuple: reversed, crossings inverted."""
    return tuple(letter.inverse() for letter in reversed(letters))


def _common_prefix(a: tuple[Letter, ...], b: tuple[Letter, ...]) -> int:
    """Length of the longest common prefix of two letter tuples."""
    # a[:low] == b[:low] throughout; the halving slice comparisons run in C.
    low, high = 0, min(len(a), len(b))
    while low < high:
        mid = (low + high + 1) // 2
        if a[low:mid] == b[low:mid]:
            low = mid
        else:
            high = mid - 1
    return low


_SPLIT = 128
_SPAN = 16
_GUARD = 8


def _blocks(
    a: tuple[Letter, ...], b: tuple[Letter, ...], budget: int
) -> list[tuple[tuple[Letter, ...], tuple[Letter, ...]]] | None:
    """Differing blocks (s_1, r_1), ..., (s_k, r_k) with a = s_1 c_1 s_2 ... s_k
    and b = r_1 c_1 r_2 ... r_k, each c_i a longest common run, so the blocks
    being equal in pairs makes a and b equal; None once the blocks hold more
    than ``budget`` letters.  The words differ in their first letters, as two
    middles do.

    Words of at most _SPLIT letters together are one block.  Otherwise each
    block is the shortest within _SPAN letters a side after which _GUARD
    letters agree, and the rest one block where there is none.  The guard
    decides only how the words are cut, never whether the cuts are exact."""
    if len(a) + len(b) <= _SPLIT:
        return [(a, b)] if len(a) + len(b) <= budget else None
    blocks = []
    i = j = 0
    while i < len(a) or j < len(b):
        # The nearest ends first, by their sum.  A guard cut short by the end
        # of a word agrees only with one as short, so every cut is inside both.
        cut = next(
            (
                (di, d - di)
                for d in range(1, 2 * _SPAN + 1)
                for di in range(max(0, d - _SPAN), min(d, _SPAN) + 1)
                if a[i + di : i + di + _GUARD] == b[j + d - di : j + d - di + _GUARD]
            ),
            (len(a) - i, len(b) - j),
        )
        budget -= sum(cut)
        if budget < 0:
            return None
        blocks.append((a[i : i + cut[0]], b[j : j + cut[1]]))
        i, j = i + cut[0], j + cut[1]
        # The common run, in slices of doubling length: time linear in the run.
        run = step = _GUARD // 2
        while run == step:
            step *= 2
            run = _common_prefix(a[i : i + step], b[j : j + step])
            i, j = i + run, j + run
    return blocks


def free_reduce(word: BraidWord) -> BraidWord:
    """Delete adjacent sigma/sigma-inverse and rho/rho pairs until none remain.

    Only free cancellation is applied; no braid or mixed relations are used.
    A word in which nothing cancels is returned itself.
    """
    letters = _reduced(word.letters)
    if len(letters) == len(word.letters):
        return word
    return BraidWord(word.strands, letters)


def inverse(word: BraidWord) -> BraidWord:
    """The group inverse: reversed letters with crossings inverted."""
    return BraidWord(word.strands, _inverted(word.letters))


@lru_cache(maxsize=64)
def _alphabet(strands: int, virtual: bool) -> tuple[tuple[Letter, ...], tuple[int, ...]]:
    """The letters of ``random_reduced_word`` by alphabet id, and the id of
    each letter's cancelling partner, its inverse."""
    kinds = _KINDS if virtual else _KINDS[:2]
    letters = tuple(Letter(kind, index) for index in range(1, strands) for kind in kinds)
    ids = {letter: letter_id for letter_id, letter in enumerate(letters)}
    return letters, tuple(ids[letter.inverse()] for letter in letters)


def _reduced_letters(
    strands: int, length: int, rng: Random, virtual: bool = True
) -> tuple[Letter, ...]:
    """The letters of ``random_reduced_word``, unchecked.

    Each draw is ``rng.randrange(m)`` written out as CPython's
    ``Random._randbelow_with_getrandbits``: ``k = m.bit_length()`` bits,
    redrawn while ``>= m``.  Words and the rng state after each call are
    exactly those of the ``randrange`` loop, without its call chain.
    """
    alphabet, partners = _alphabet(strands, virtual)
    getrandbits = rng.getrandbits
    total = len(alphabet)
    bits = total.bit_length()
    rest = total - 1  # letters that do not cancel the previous one
    rest_bits = rest.bit_length()
    letters: list[Letter] = []
    append = letters.append
    banned = -1  # alphabet id that would cancel the previous letter
    for _ in range(length):
        if banned < 0:
            letter_id = getrandbits(bits)
            while letter_id >= total:
                letter_id = getrandbits(bits)
        else:
            letter_id = getrandbits(rest_bits)
            while letter_id >= rest:
                letter_id = getrandbits(rest_bits)
            if letter_id >= banned:
                letter_id += 1
        append(alphabet[letter_id])
        banned = partners[letter_id]
    return tuple(letters)


def random_reduced_word(
    strands: int, length: int, rng: Random, *, virtual: bool = True
) -> BraidWord:
    """Draw a uniformly random freely reduced word of exactly ``length`` letters.

    Each letter is uniform over the generator letters that do not cancel
    against the previous one.  With ``virtual=False`` only crossing letters
    are used, i.e. the word lies in B_n.  Deterministic for a fixed rng state:
    the letter ids are the ``rng.randrange`` draws over the alphabet (minus
    the cancelling partner of the previous letter).
    """
    check_strands(strands)
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    return BraidWord(strands, _reduced_letters(strands, length, rng, virtual))


def permutation(word: BraidWord) -> tuple[int, ...]:
    """Image of the word in the symmetric group, in one-line notation.

    Every letter, crossing or virtual, maps to the transposition of the
    strand positions it touches.  Entry k is the final position of the
    strand that starts at position k.
    """
    at = list(range(1, word.strands + 1))  # the strand at each position
    for _, index in word.letters:
        at[index - 1], at[index] = at[index], at[index - 1]
    return tuple(sorted(range(1, word.strands + 1), key=lambda position: at[position - 1]))
