import itertools
import random
import time

import pytest

from vbraid import words
from vbraid.words import (
    MAX_LETTERS,
    MAX_STRANDS,
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


KINDS = (SIGMA, SIGMA_INV, RHO)

# Strand count -> the length up to which every letter tuple is enumerated.
EXHAUSTIVE_LENGTHS = {2: 8, 3: 5, 4: 4}


def every_tuple(strands, longest):
    """Every letter tuple of at most ``longest`` letters on ``strands``
    strands, reduced or not: shorter first, and in the order of
    ``itertools.product`` over s1, S1, r1, s2, S2, r2, ..."""
    alphabet = [Letter(kind, i) for i in range(1, strands) for kind in KINDS]
    return [
        letters
        for size in range(longest + 1)
        for letters in itertools.product(alphabet, repeat=size)
    ]


def input_words():
    """The words the algebraic properties are checked on: every letter tuple
    up to ``EXHAUSTIVE_LENGTHS``, then 1,000 seeded random tuples of 0-30
    letters on 2-6 strands. None is reduced on purpose."""
    for strands, longest in EXHAUSTIVE_LENGTHS.items():
        for letters in every_tuple(strands, longest):
            yield BraidWord(strands, letters)
    rng = random.Random(2016)
    for _ in range(1000):
        strands = rng.randint(2, 6)
        yield BraidWord(
            strands,
            tuple(
                Letter(rng.choice(KINDS), rng.randint(1, strands - 1))
                for _ in range(rng.randint(0, 30))
            ),
        )


WORDS = list(input_words())


class TestInputWords:
    def test_sizes(self):
        assert len(WORDS) == 27553
        sizes = {n: len(every_tuple(n, k)) for n, k in EXHAUSTIVE_LENGTHS.items()}
        assert sizes == {2: 9841, 3: 9331, 4: 7381}
        exhaustive = sum(sizes.values())
        assert len(set(WORDS[:exhaustive])) == exhaustive
        drawn = WORDS[exhaustive:]
        assert {w.strands for w in drawn} == set(range(2, 7))
        assert {len(w) for w in drawn} == set(range(31))


class TestParse:
    def test_tokens(self):
        word = parse_word("s1 S2", 3)
        assert word.letters == (Letter(SIGMA, 1), Letter(SIGMA_INV, 2))

    def test_exponent_expansion(self):
        word = parse_word("s1^3", 2)
        assert word.letters == (Letter(SIGMA, 1),) * 3

    def test_twenty_letter_word(self):
        text = "s1 r2 s1 S2 s1 s2 S1 r1 s2 r1 s1 r2 S1 r2 S2 S1 s2 S1 r2 S1"
        word = parse_word(text, 3)
        assert len(word) == 20
        assert word.letters[0] == Letter(SIGMA, 1)
        assert word.letters[1] == Letter(RHO, 2)
        assert format_word(word) == text

    def test_negative_exponent_inverts(self):
        assert parse_word("s1^-2", 2).letters == (Letter(SIGMA_INV, 1),) * 2
        assert parse_word("S2^-1", 3).letters == (Letter(SIGMA, 2),)

    def test_rho_exponents_mod_two(self):
        assert parse_word("r1^2", 2).letters == ()
        assert parse_word("r1^-3", 2).letters == (Letter(RHO, 1),)
        assert parse_word("r1^0", 2).letters == ()

    def test_strands_inferred(self):
        assert parse_word("s2").strands == 3
        assert parse_word("").strands == 2
        assert parse_word("r1").strands == 2

    def test_empty_text_is_identity(self):
        assert parse_word("", 4).letters == ()

    @pytest.mark.parametrize(
        "text, position",
        [
            ("x1", 1),
            ("s1 sS2", 2),
            ("s", 1),
            ("s1 r2 s1^", 3),
        ],
    )
    def test_malformed_token(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_word(text, 3)
        assert info.value.position == position

    def test_index_zero(self):
        with pytest.raises(ParseError) as info:
            parse_word("s1 r0", 3)
        assert info.value.position == 2

    def test_index_out_of_range(self):
        with pytest.raises(ParseError) as info:
            parse_word("s3", 3)
        assert "3" in str(info.value)
        # without a strand count the same text is fine
        assert parse_word("s3").strands == 4

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError) as info:
            parse_word("s1^two", 2)
        assert "exponent" in str(info.value)

    @pytest.mark.parametrize(
        "text", ["s1^100000000000000000000", f"s1^-{MAX_LETTERS + 1}"]
    )
    def test_letter_cap_fails_before_allocating(self, text, peak_traced_bytes):
        with pytest.raises(ParseError) as info:
            parse_word(text, 2)
        assert f"{MAX_LETTERS} letters" in str(info.value)
        assert peak_traced_bytes() < 2**20

    @pytest.mark.parametrize(
        "text, position",
        [("s1^" + "1" * 5000, 1), ("s1 s" + "1" * 5000, 2), ("r1 S1^-" + "9" * 5000, 2)],
    )
    def test_oversized_number_is_a_parse_error(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_word(text, 2)
        assert info.value.position == position

    def test_long_rho_exponent_keeps_its_parity(self):
        assert parse_word("r1^" + "1" * 5000, 2) == parse_word("r1", 2)
        assert parse_word("r1^-" + "2" * 5000, 2) == BraidWord(2)

    def test_largest_index_under_the_strand_cap(self):
        assert parse_word(f"s{MAX_STRANDS - 1}").strands == MAX_STRANDS

    @pytest.mark.parametrize("text", [f"s1 s{MAX_STRANDS}", "s1 r300000000^5"])
    def test_index_above_the_strand_cap_fails_before_allocating(
        self, text, peak_traced_bytes
    ):
        with pytest.raises(ParseError) as info:
            parse_word(text)
        assert info.value.position == 2
        assert f"{MAX_STRANDS} strands" in str(info.value)
        assert peak_traced_bytes() < 2**20

    def test_letter_cap_counts_the_whole_word(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_LETTERS", 5)
        assert len(parse_word("s1^3 S2 r1 r2^2", 3)) == 5
        with pytest.raises(ParseError) as info:
            parse_word("s1^3 S2^3", 3)
        assert info.value.position == 2


class TestFormat:
    def test_examples(self):
        assert format_word(BraidWord(3, (Letter(SIGMA, 1), Letter(SIGMA_INV, 2)))) == "s1 S2"
        assert format_word(BraidWord(2)) == ""
        assert format_word(BraidWord(2, (Letter(RHO, 1), Letter(SIGMA_INV, 1)))) == "r1 S1"

    def test_roundtrip(self):
        for word in WORDS:
            assert parse_word(format_word(word), word.strands) == word


class TestFreeReduce:
    def test_sigma_pair(self):
        assert free_reduce(parse_word("s1 S1", 2)).letters == ()

    def test_rho_square(self):
        assert free_reduce(parse_word("r1 r1 s2", 3)).letters == (Letter(SIGMA, 2),)

    def test_cascade(self):
        assert free_reduce(parse_word("s1 r2 r2 S1", 3)).letters == ()

    def test_no_fragment_left(self):
        word = free_reduce(parse_word("s1 s1 S1 r1 r1 S1 s2 S2 r2", 3))
        for first, second in zip(word.letters, word.letters[1:]):
            assert not cancels(first, second)

    def test_idempotent(self):
        for word in WORDS:
            once = free_reduce(word)
            assert free_reduce(once) == once, word

    def test_preserves_permutation(self):
        for word in WORDS:
            assert permutation(free_reduce(word)) == permutation(word), word

    def test_a_reduced_word_is_returned_itself(self):
        word = parse_word("s1 r1 S1 s2", 3)
        assert free_reduce(word) is word

    def test_an_unreduced_word_gives_an_equal_new_word(self):
        word = parse_word("s1 r2 r2 s2", 3)
        reduced = free_reduce(word)
        assert reduced is not word
        assert reduced == parse_word("s1 s2", 3)


class TestInverse:
    def test_examples(self):
        assert inverse(parse_word("s1 r1", 2)) == parse_word("r1 S1", 2)
        assert inverse(BraidWord(2)) == BraidWord(2)
        assert inverse(parse_word("s1 S2", 3)) == parse_word("s2 S1", 3)

    def test_product_with_inverse_reduces_to_identity(self):
        for word in WORDS:
            assert free_reduce(word * inverse(word)).letters == (), word

    def test_involution(self):
        for word in WORDS:
            assert inverse(inverse(word)) == word


class TestRandomReducedWord:
    def test_length_zero(self):
        rng = random.Random(1)
        assert random_reduced_word(2, 0, rng).letters == ()

    @pytest.mark.parametrize("seed", range(20))
    def test_no_cancelling_fragment(self, seed):
        rng = random.Random(seed)
        word = random_reduced_word(2, 50, rng)
        assert len(word) == 50
        for first, second in zip(word.letters, word.letters[1:]):
            assert not cancels(first, second)
        assert free_reduce(word) == word

    def test_deterministic(self):
        one = random_reduced_word(4, 30, random.Random(99))
        two = random_reduced_word(4, 30, random.Random(99))
        assert one == two

    def test_two_strand_alphabet(self):
        rng = random.Random(3)
        word = random_reduced_word(2, 200, rng)
        kinds = {letter.kind for letter in word.letters}
        assert kinds == {SIGMA, SIGMA_INV, RHO}
        assert all(letter.index == 1 for letter in word.letters)

    def test_classical_only(self):
        rng = random.Random(7)
        word = random_reduced_word(3, 100, rng, virtual=False)
        assert word.is_classical()
        assert free_reduce(word) == word

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_reduced_word(1, 5, random.Random(0))
        with pytest.raises(ValueError):
            random_reduced_word(2, -1, random.Random(0))


def randrange_reduced_letters(strands, length, rng, virtual):
    """Reference for the letter sampler: one ``rng.randrange`` per letter."""
    per_index = 3 if virtual else 2
    total = per_index * (strands - 1)
    letters = []
    banned = -1
    for _ in range(length):
        if banned < 0:
            letter_id = rng.randrange(total)
        else:
            letter_id = rng.randrange(total - 1)
            if letter_id >= banned:
                letter_id += 1
        position, slot = divmod(letter_id, per_index)
        letters.append(Letter((SIGMA, SIGMA_INV, RHO)[slot], position + 1))
        banned = per_index * position + (1 - slot if slot < 2 else slot)
    return tuple(letters)


class TestRandomStream:
    """Words and the rng state after them are those of the randrange loop."""

    @pytest.mark.parametrize("virtual", [True, False])
    @pytest.mark.parametrize("strands", range(2, 9))
    def test_matches_randrange_stream(self, strands, virtual):
        for length in range(61):
            for seed in range(5):
                rng = random.Random(1000 * length + seed)
                reference = random.Random(1000 * length + seed)
                word = random_reduced_word(strands, length, rng, virtual=virtual)
                expected = randrange_reduced_letters(strands, length, reference, virtual)
                assert word.letters == expected
                assert rng.random() == reference.random()


def quadratic_permutation(word):
    """Reference: relabel every strand position for each letter."""
    images = list(range(1, word.strands + 1))
    for _, index in word.letters:
        for k, value in enumerate(images):
            if value == index:
                images[k] = index + 1
            elif value == index + 1:
                images[k] = index
    return tuple(images)


class TestPermutation:
    def test_matches_the_quadratic_reference(self):
        rng = random.Random(23)
        for strands in range(2, 10):
            for _ in range(50):
                word = random_reduced_word(strands, rng.randint(0, 40), rng)
                assert permutation(word) == quadratic_permutation(word)

    def test_both_caps_in_linear_time(self):
        word = random_reduced_word(MAX_STRANDS, MAX_LETTERS, random.Random(29))
        started = time.perf_counter()
        images = permutation(word)
        assert time.perf_counter() - started < 5
        # The two halves compose to the whole, leftmost letter first.
        cut = MAX_LETTERS // 2
        first = permutation(BraidWord(MAX_STRANDS, word.letters[:cut]))
        second = permutation(BraidWord(MAX_STRANDS, word.letters[cut:]))
        assert images == tuple(second[position - 1] for position in first)
        assert sorted(images) == list(range(1, MAX_STRANDS + 1))

    def test_single_crossing(self):
        assert permutation(parse_word("s1", 2)) == (2, 1)

    def test_rho_square_is_identity(self):
        assert permutation(parse_word("r1 r1", 2)) == (1, 2)

    def test_half_twist_swaps_outer_strands(self):
        assert permutation(parse_word("s1 s2 s1", 3)) == (3, 2, 1)

    def test_crossing_and_virtual_agree(self):
        assert permutation(parse_word("s2 s1", 3)) == permutation(parse_word("r2 r1", 3))

    def test_inverse_gives_identity(self):
        for word in WORDS:
            identity = tuple(range(1, word.strands + 1))
            assert permutation(word * inverse(word)) == identity, word


class TestBraidWord:
    def test_validates_index_range(self):
        with pytest.raises(ValueError):
            BraidWord(2, (Letter(SIGMA, 2),))
        with pytest.raises(ValueError):
            BraidWord(1, ())

    def test_validates_letter_kind(self):
        with pytest.raises(ValueError, match="unknown letter kind 2"):
            BraidWord(2, (Letter(2, 1),))

    def test_letters_become_a_tuple(self):
        word = BraidWord(2, [Letter(SIGMA, 1), Letter(RHO, 1)])
        assert word.letters == (Letter(SIGMA, 1), Letter(RHO, 1))
        assert word == parse_word("s1 r1", 2)

    def test_only_words_concatenate(self):
        with pytest.raises(TypeError):
            BraidWord(2) * 3

    def test_strand_cap(self):
        assert BraidWord(MAX_STRANDS).strands == MAX_STRANDS
        with pytest.raises(ValueError, match=f"at most {MAX_STRANDS}"):
            BraidWord(MAX_STRANDS + 1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: parse_word("s1", 300_000_000),
            lambda: random_reduced_word(300_000_000, 5, random.Random(0)),
        ],
        ids=["parse_word", "random_reduced_word"],
    )
    def test_strand_cap_fails_before_allocating(self, make, peak_traced_bytes):
        with pytest.raises(ValueError, match=f"at most {MAX_STRANDS}"):
            make()
        assert peak_traced_bytes() < 2**20

    def test_concat_checks_strands(self):
        with pytest.raises(ValueError):
            parse_word("s1", 2) * parse_word("s1", 3)

    def test_str_is_canonical_text(self):
        assert str(parse_word("s1  r2", 3)) == "s1 r2"

    def test_is_classical_matches_a_scan_of_the_letters(self):
        for word in WORDS:
            assert word.is_classical() == all(letter.kind != RHO for letter in word.letters)
        assert {word.is_classical() for word in WORDS} == {True, False}
