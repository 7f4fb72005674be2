import random

import pytest

from vbraid.action import apply_letters, base_vector
from vbraid.wordproblem import (
    Equality,
    are_equal_bn,
    are_equal_vb2,
    distinguish_vbn,
)
from vbraid.words import (
    BraidWord,
    free_reduce,
    inverse,
    parse_word,
    random_reduced_word,
)

BURAU_KERNEL_WORD = "s1^2 r1 S1 r1 S1 r1 s1^2 r1 S1 r1 S1 r1"


class TestBn:
    def test_braid_relation_equal(self):
        verdict = are_equal_bn(parse_word("s1 s2 s1", 3), parse_word("s2 s1 s2", 3))
        assert verdict.status is Equality.EQUAL

    def test_opposite_crossings_distinct(self):
        verdict = are_equal_bn(parse_word("s1", 2), parse_word("S1", 2))
        assert verdict.status is Equality.DISTINCT
        assert verdict.images == ((1, 0, 0, 2), (-1, 0, 0, 2))

    def test_free_cancellation_equal(self):
        verdict = are_equal_bn(parse_word("", 2), parse_word("s1 S1", 2))
        assert verdict.status is Equality.EQUAL

    def test_rejects_virtual_letters(self):
        with pytest.raises(ValueError):
            are_equal_bn(parse_word("r1", 2), parse_word("s1", 2))

    def test_rejects_strand_mismatch(self):
        with pytest.raises(ValueError):
            are_equal_bn(parse_word("s1", 2), parse_word("s1", 3))

    def test_never_unknown_on_random_pairs(self):
        rng = random.Random(5)
        for _ in range(50):
            w1 = random_reduced_word(3, rng.randint(0, 12), rng, virtual=False)
            w2 = random_reduced_word(3, rng.randint(0, 12), rng, virtual=False)
            assert are_equal_bn(w1, w2).status is not Equality.UNKNOWN


class TestVb2:
    def test_burau_kernel_word_distinct_from_identity(self):
        verdict = are_equal_vb2(parse_word(BURAU_KERNEL_WORD, 2), BraidWord(2))
        assert verdict.status is Equality.DISTINCT

    def test_rho_square_equal_identity(self):
        verdict = are_equal_vb2(parse_word("r1 r1", 2), BraidWord(2))
        assert verdict.status is Equality.EQUAL

    def test_crossing_and_virtual_do_not_commute(self):
        verdict = are_equal_vb2(parse_word("s1 r1", 2), parse_word("r1 s1", 2))
        assert verdict.status is Equality.DISTINCT

    def test_rejects_other_strand_counts(self):
        with pytest.raises(ValueError):
            are_equal_vb2(parse_word("s1", 3), parse_word("s1", 3))


class TestVbn:
    def test_forbidden_relation_distinct(self):
        verdict = distinguish_vbn(
            parse_word("r1 s2 s1", 3), parse_word("s2 s1 r2", 3), 10, random.Random(0)
        )
        assert verdict.status is Equality.DISTINCT
        assert verdict.probe == (0, 1, 0, 1, 0, 1)
        assert verdict.images == ((2, 0, 0, 1, 0, 2), (2, 0, 0, 2, 0, 1))

    def test_near_kernel_word_distinct_from_identity(self):
        beta = parse_word(
            "s1 r2 s1 S2 s1 s2 S1 r1 s2 r1 s1 r2 S1 r2 S2 S1 s2 S1 r2 S1", 3
        )
        assert apply_letters(base_vector(3).entries, beta.letters) == [0, 1, 0, 1, 0, 1]
        verdict = distinguish_vbn(beta, BraidWord(3), 4000, random.Random(12))
        assert verdict.status is Equality.DISTINCT

    def test_battery_separates_words_agreeing_on_cheap_checks(self):
        from vbraid.words import permutation

        beta = parse_word(
            "s1 r2 s1 S2 s1 s2 S1 r1 s2 r1 s1 r2 S1 r2 S2 S1 s2 S1 r2 S1", 3
        )
        other = parse_word("r1 r2", 3)
        # same strand permutation, both fix the base vector: only the
        # battery can tell them apart
        assert permutation(beta) == permutation(other)
        assert apply_letters(base_vector(3).entries, other.letters) == [0, 1, 0, 1, 0, 1]
        verdict = distinguish_vbn(beta, other, 1000, random.Random(12))
        assert verdict.status is Equality.DISTINCT
        assert verdict.probe is not None

    def test_word_against_itself(self):
        word = parse_word("s1 r2 S1", 3)
        verdict = distinguish_vbn(word, word, 10, random.Random(0))
        assert verdict.status is Equality.EQUAL

    def test_two_strands_delegates_to_complete_decider(self):
        verdict = distinguish_vbn(
            parse_word("r1 s1 r1", 2), parse_word("s1", 2), 10, random.Random(0)
        )
        assert verdict.status is not Equality.UNKNOWN

    def test_permutation_witness(self):
        verdict = distinguish_vbn(
            parse_word("r1", 3), parse_word("r2", 3), 10, random.Random(0)
        )
        assert verdict.status is Equality.DISTINCT
        assert verdict.probe is None
        assert verdict.images == ((2, 1, 3), (1, 3, 2))

    def test_unknown_requires_rng(self):
        # related by the virtual braid relation: all cheap checks agree,
        # so the battery is reached and the missing rng is an error
        beta = parse_word("r1 r2 r1", 3)
        gamma = parse_word("r2 r1 r2", 3)
        with pytest.raises(ValueError):
            distinguish_vbn(beta, gamma, 10, None)

    def test_negative_battery_is_rejected(self):
        w1 = parse_word("s1 s2 s1", 3)
        w2 = parse_word("s2 s1 s2", 3)
        with pytest.raises(ValueError, match="battery"):
            distinguish_vbn(w1, w2, -5, random.Random(1))


def insert_relator(word, relator_words, rng):
    relator = parse_word(rng.choice(relator_words), word.strands)
    cut = rng.randint(0, len(word.letters))
    letters = word.letters[:cut] + relator.letters + word.letters[cut:]
    return BraidWord(word.strands, letters)


def classical_relators(n):
    relators = []
    for i in range(1, n):
        relators += [f"s{i} S{i}", f"S{i} s{i}"]
    for i in range(1, n - 1):
        relators.append(f"s{i} s{i+1} s{i} S{i+1} S{i} S{i+1}")
    for i in range(1, n):
        for j in range(i + 2, n):
            relators.append(f"s{i} s{j} S{i} S{j}")
    return relators


def virtual_relators(n):
    relators = classical_relators(n)
    for i in range(1, n):
        relators.append(f"r{i} r{i}")
    for i in range(1, n - 1):
        relators.append(f"r{i} r{i+1} r{i} r{i+1} r{i} r{i+1}")
        relators.append(f"r{i} r{i+1} s{i} r{i+1} r{i} S{i+1}")
    for i in range(1, n):
        for j in range(i + 2, n):
            relators += [f"r{i} r{j} r{i} r{j}", f"s{i} r{j} S{i} r{j}"]
    return relators


class TestSoundness:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bn_relator_insertion_judged_equal(self, n):
        rng = random.Random(100 + n)
        relators = classical_relators(n)
        for _ in range(40):
            word = random_reduced_word(n, rng.randint(0, 15), rng, virtual=False)
            other = insert_relator(word, relators, rng)
            assert are_equal_bn(word, other).status is Equality.EQUAL

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_vbn_relator_insertion_never_distinct(self, n):
        rng = random.Random(200 + n)
        relators = virtual_relators(n)
        for _ in range(40):
            word = random_reduced_word(n, rng.randint(0, 15), rng)
            other = insert_relator(word, relators, rng)
            verdict = distinguish_vbn(word, other, 50, rng)
            assert verdict.status is not Equality.DISTINCT

    def test_distinct_witnesses_recompute(self):
        rng = random.Random(77)
        checked = 0
        while checked < 25:
            w1 = random_reduced_word(3, rng.randint(1, 10), rng)
            w2 = random_reduced_word(3, rng.randint(1, 10), rng)
            verdict = distinguish_vbn(w1, w2, 200, rng)
            if verdict.status is not Equality.DISTINCT or verdict.probe is None:
                continue
            left = apply_letters(list(verdict.probe), w1.letters)
            right = apply_letters(list(verdict.probe), w2.letters)
            assert (tuple(left), tuple(right)) == verdict.images
            assert left != right
            checked += 1

    def test_inverse_pairs_judged_equal(self):
        rng = random.Random(31)
        for _ in range(20):
            word = random_reduced_word(2, rng.randint(0, 20), rng)
            product = word * inverse(word)
            assert are_equal_vb2(product, BraidWord(2)).status is Equality.EQUAL
            assert free_reduce(product).letters == ()
