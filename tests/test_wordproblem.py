import hashlib
import json
import random
import sys

import pytest

from vbraid import action, wordproblem, words
from vbraid.action import Coordinates, act_word, apply_letters, base_vector
from vbraid.hunt import moved_fraction
from vbraid.wordproblem import (
    BATTERY_BOUND,
    VB2_START,
    Equality,
    Verdict,
    are_equal_bn,
    distinguish_vbn,
)
from vbraid.words import (
    RHO,
    SIGMA,
    BraidWord,
    Letter,
    format_word,
    free_reduce,
    inverse,
    parse_word,
    permutation,
    random_reduced_word,
)

BURAU_KERNEL_WORD = "s1^2 r1 S1 r1 S1 r1 s1^2 r1 S1 r1 S1 r1"
PINNED_VERDICTS = "dc5e01e6981dbe5151ee7a21fd5c878df71af1031b4f714b2f9e34f3f67d5b4f"


class TestBn:
    def test_braid_relation_equal(self):
        verdict = are_equal_bn(parse_word("s1 s2 s1", 3), parse_word("s2 s1 s2", 3))
        assert verdict.status is Equality.EQUAL

    def test_opposite_crossings_distinct(self):
        verdict = are_equal_bn(parse_word("s1", 2), parse_word("S1", 2))
        assert verdict.status is Equality.DISTINCT
        assert verdict.images == ((1, 0, 0, 2), (-1, 0, 0, 2))

    def test_a_distinct_verdict_is_truthy(self):
        # A verdict is a record, not a boolean: read its status.
        verdict = are_equal_bn(parse_word("s1", 2), parse_word("S1", 2))
        assert verdict.status is Equality.DISTINCT
        assert verdict

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
    # On two strands distinguish_vbn is the complete decider and draws no
    # probe, so the default battery needs no rng.
    def test_burau_kernel_word_distinct_from_identity(self):
        verdict = distinguish_vbn(parse_word(BURAU_KERNEL_WORD, 2), BraidWord(2))
        assert verdict.status is Equality.DISTINCT

    def test_rho_square_equal_identity(self):
        verdict = distinguish_vbn(parse_word("r1 r1", 2), BraidWord(2))
        assert verdict.status is Equality.EQUAL

    def test_crossing_and_virtual_do_not_commute(self):
        verdict = distinguish_vbn(parse_word("s1 r1", 2), parse_word("r1 s1", 2))
        assert verdict.status is Equality.DISTINCT


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

    def test_classical_words_go_to_the_braid_decider(self):
        w1, w2 = parse_word("s1 s2 s1", 3), parse_word("s2 s1 s2", 3)
        for battery in (0, 1000):
            verdict = distinguish_vbn(w1, w2, battery, None)
            assert verdict == are_equal_bn(w1, w2)
            assert verdict.status is Equality.EQUAL
            assert verdict.witness.endswith("which separates distinct braids")
        # Long words: a copy with braid relators inserted, and one with a letter inverted.
        rng = random.Random(2727)
        for n in (4, 5, 6):
            word = random_reduced_word(n, rng.randint(300, 600), rng, virtual=False)
            letters = list(word.letters)
            position = rng.randrange(len(letters))
            letters[position] = letters[position].inverse()
            equal = with_relators(word, classical_relators(n), rng.randint(1, 3), rng)
            for other, status in ((equal, Equality.EQUAL), (BraidWord(n, tuple(letters)), Equality.DISTINCT)):
                verdict = distinguish_vbn(word, other, 1000, None)
                assert verdict == are_equal_bn(word, other)
                assert verdict.status is status

    def test_a_missing_rng_is_rejected_before_any_work(self):
        # Even a pair the permutation or free reduction would decide.
        for w1, w2 in (("r1", "r2"), ("r1 s2", "r1 s2")):
            with pytest.raises(ValueError, match="seeded Random"):
                distinguish_vbn(parse_word(w1, 3), parse_word(w2, 3), 10, None)

    def test_an_empty_battery_needs_no_rng(self):
        beta = parse_word("r1 r2 r1", 3)
        gamma = parse_word("r2 r1 r2", 3)
        verdict = distinguish_vbn(beta, gamma, 0, None)
        assert verdict.status is Equality.UNKNOWN
        assert "0 random probes" in verdict.witness

    def test_rejects_strand_mismatch(self):
        with pytest.raises(ValueError, match="strand counts differ: 2 vs 3"):
            distinguish_vbn(parse_word("s1", 2), parse_word("s1", 3), 10, random.Random(0))

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
            assert distinguish_vbn(product, BraidWord(2)).status is Equality.EQUAL
            assert free_reduce(product).letters == ()


# ---------------------------------------------------------------------------
# Acting on the differing part only must give the verdicts of acting on the
# whole words.  The reference below acts on both full words for every
# comparison and runs the battery on the unreduced w1 * inverse(w2), with
# its own randint draws.

BETA = parse_word("s1 r2 s1 S2 s1 s2 S1 r1 s2 r1 s1 r2 S1 r2 S2 S1 s2 S1 r2 S1", 3)
BETA_CUBED = BETA * BETA * BETA
SECOND = parse_word("S2 s1 r2 s2 s1 S2 r2 s1 r2 s2 r1 S2 r1 S1 S2 r2 S1 s2", 3)
CASE_BATTERY = 200


def whole_word_distinct_on(probe, w1, w2):
    left = act_word(probe, w1).entries
    right = act_word(probe, w2).entries
    if left == right:
        return None
    return Verdict(
        Equality.DISTINCT,
        witness=f"vector {probe.to_csv()} is moved differently",
        probe=probe.entries,
        images=(left, right),
    )


def first_moved_probe(letters, width, battery, rng):
    """(probe, probes drawn): the battery by definition, the whole word acting
    on each probe of the randint stream until one is moved."""
    for drawn in range(1, battery + 1):
        probe = [rng.randint(-BATTERY_BOUND, BATTERY_BOUND) for _ in range(width)]
        if apply_letters(probe, letters) != probe:
            return probe, drawn
    return None, battery


def whole_word_decision(group, w1, w2, battery, rng):
    """The braid decider for group "bn"; otherwise, in distinguish_vbn's
    order, the two-strand decider on two strands, the braid decider on two
    classical words, and the battery path for the rest."""
    classical = all(letter.kind != RHO for letter in w1.letters + w2.letters)
    if group != "bn" and w1.strands > 2 and not classical:
        if free_reduce(w1).letters == free_reduce(w2).letters:
            return Verdict(Equality.EQUAL, witness="identical words after free reduction")
        p1, p2 = permutation(w1), permutation(w2)
        if p1 != p2:
            return Verdict(
                Equality.DISTINCT, witness="strand permutations differ", images=(p1, p2)
            )
        verdict = whole_word_distinct_on(base_vector(w1.strands), w1, w2)
        if verdict is not None:
            return verdict
        quotient = (w1 * inverse(w2)).letters
        probe, _ = first_moved_probe(quotient, 2 * w1.strands, battery, rng)
        if probe is not None:
            return whole_word_distinct_on(Coordinates(w1.strands, tuple(probe)), w1, w2)
        return Verdict(
            Equality.UNKNOWN,
            witness=f"agree on the strand permutation, the base vector and "
            f"{battery} random probes; equality is undecided for "
            f"{w1.strands} strands",
        )
    if group == "bn" or w1.strands > 2:
        probe = base_vector(w1.strands)
        witness = (
            f"equal image of the base vector {probe.to_csv()}, "
            "which separates distinct braids"
        )
    else:
        probe = Coordinates(2, VB2_START)
        witness = (
            f"equal image of {probe.to_csv()}, on which the two-strand "
            "action is faithful"
        )
    verdict = whole_word_distinct_on(probe, w1, w2)
    return Verdict(Equality.EQUAL, witness=witness) if verdict is None else verdict


def library_decision(group, w1, w2, battery, rng):
    if group == "bn":
        return are_equal_bn(w1, w2)
    return distinguish_vbn(w1, w2, battery, rng)


def invert_letter(word, position):
    letters = list(word.letters)
    letters[position] = letters[position].inverse()
    return BraidWord(word.strands, tuple(letters))


def decision_cases():
    """A fixed batch of (label, group, w1, w2), the same on every run."""
    rng = random.Random(4011)
    cases = []
    for n in range(2, 7):
        virtual, classical = virtual_relators(n), classical_relators(n)
        for _ in range(4):
            word = random_reduced_word(n, rng.randint(0, 20), rng)
            cases.append(("relator", "vbn", word, insert_relator(word, virtual, rng)))
            word = random_reduced_word(n, rng.randint(0, 20), rng, virtual=False)
            cases.append(("relator", "bn", insert_relator(word, classical, rng), word))
    for n in (2, 3, 4):
        for virtual in (False, True):
            word = random_reduced_word(n, 15, rng, virtual=virtual)
            for position in (0, len(word) // 2, len(word) - 1):
                group = "vbn" if virtual else "bn"
                cases.append(("inverted", group, word, invert_letter(word, position)))
    for _ in range(6):
        word = random_reduced_word(3, rng.randint(0, 25), rng)
        cases.append(("beta^3 w", "vbn", BETA_CUBED * word, word))
        cases.append(("w beta^3", "vbn", word, word * BETA_CUBED))
    for n, group in ((2, "vb2"), (3, "vbn"), (4, "vbn"), (3, "bn"), (5, "bn")):
        for _ in range(4):
            virtual = group != "bn"
            w1 = random_reduced_word(n, rng.randint(0, 15), rng, virtual=virtual)
            w2 = random_reduced_word(n, rng.randint(0, 15), rng, virtual=virtual)
            cases.append(("independent", group, w1, w2))
    for n, group in ((2, "vb2"), (3, "vbn"), (4, "bn")):
        word = random_reduced_word(n, 12, rng, virtual=group != "bn")
        empty = BraidWord(n)
        cases += [
            ("identical", group, word, word),
            ("empty", group, word, empty),
            ("empty", group, empty, word),
            ("both empty", group, empty, empty),
            ("prefix", group, BraidWord(n, word.letters[:5]), word),
            ("suffix", group, word, BraidWord(n, word.letters[5:])),
            ("w vs ww", group, word, word * word),
            ("ww vs w", group, word * word, word),
        ]
    return cases


def verdict_record(verdict, rng):
    return [
        verdict.status.value,
        verdict.witness,
        None if verdict.probe is None else list(verdict.probe),
        None if verdict.images is None else [list(side) for side in verdict.images],
        rng.random(),
    ]


def decision_records(decide):
    records = []
    for index, (_, group, w1, w2) in enumerate(decision_cases()):
        rng = random.Random(9000 + index)
        records.append(verdict_record(decide(group, w1, w2, CASE_BATTERY, rng), rng))
    return records


class TestDifferingPart:
    def test_verdicts_equal_the_whole_word_reference(self):
        cases = decision_cases()
        actual = decision_records(library_decision)
        expected = decision_records(whole_word_decision)
        for (label, group, w1, w2), got, want in zip(cases, actual, expected):
            assert got == want, (label, group, format_word(w1), format_word(w2))

    def test_batch_covers_every_verdict(self):
        statuses = {record[0] for record in decision_records(library_decision)}
        assert statuses == {"equal", "distinct", "unknown"}

    def test_verdict_batch_is_pinned(self):
        # Computed with the whole-word reference, in the order of
        # whole_word_decision: the complete deciders before the battery.
        text = json.dumps(decision_records(library_decision), sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PINNED_VERDICTS


def with_relators(word, relator_words, count, rng):
    for _ in range(count):
        word = insert_relator(word, relator_words, rng)
    return word


def separated(word, count, rng):
    """``count`` positions of positive crossings in ``word``, at least 64
    letters apart, the first and last at least 200 apart."""
    while True:
        positions = sorted(rng.sample(range(len(word)), count))
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        if min(gaps) >= 64 and positions[-1] - positions[0] >= 200:
            if all(word.letters[p].kind == SIGMA for p in positions):
                return positions


def long_cases():
    """A fixed batch of long (label, group, w1, w2).  The "replaced" and
    "swapped" pairs share a nonempty prefix and differ in a short middle, so
    the deciders act on the middles from the probe itself before the one pass
    that builds the witness; the "changed" pairs differ at 2-3 separated
    letters, so the middles are cut into blocks, and the first block differs;
    in the "commuting" pairs every block differs on its own although the words
    are equal, so the blocks are tested and the one pass decides."""
    rng = random.Random(4014)
    cases = []
    for n in (4, 5, 6):
        relators = classical_relators(n)
        for _ in range(3):
            word = random_reduced_word(n, rng.randint(300, 600), rng, virtual=False)
            other = with_relators(word, relators, rng.randint(1, 3), rng)
            cases.append(("relators", "bn", word, other))
            letters = list(word.letters)
            position = rng.randrange(1, len(letters))
            kind, index = letters[position]
            other_index = rng.choice([j for j in range(1, n) if j != index])
            letters[position] = Letter(kind, other_index)
            cases.append(("replaced", "bn", word, BraidWord(n, tuple(letters))))
            letters = list(word.letters)
            position = next(
                p for p in range(rng.randrange(1, len(letters) // 2), len(letters) - 1)
                if abs(letters[p].index - letters[p + 1].index) == 1
            )
            letters[position : position + 2] = letters[position + 1], letters[position]
            cases.append(("swapped", "bn", word, BraidWord(n, tuple(letters))))
    cancelling = ["s1 S1", "S1 s1", "r1 r1"]
    for _ in range(6):
        word = random_reduced_word(2, rng.randint(300, 600), rng)
        other = with_relators(word, cancelling, rng.randint(1, 3), rng)
        cases.append(("cancelling", "vb2", word, other))
    for n in (4, 5, 6):
        for count in (2, 3):
            # Each sigma inverted or deleted lowers the exponent sum: Distinct.
            word = random_reduced_word(n, rng.randint(300, 600), rng, virtual=False)
            letters = list(word.letters)
            for position in reversed(separated(word, count, rng)):
                letters[position : position + 1] = rng.choice([[], [letters[position].inverse()]])
            other = BraidWord(n, tuple(letters))
            cases.append(("changed", "bn", *((word, other) if count == 2 else (other, word))))
        # g = sigma_{n-1} commutes with a word A on indices 1 .. n-3.
        x, z = (random_reduced_word(n, rng.randint(1, 150), rng, virtual=False) for _ in "xz")
        a = random_reduced_word(n - 2, rng.randint(150, 300), rng, virtual=False)
        a, g = BraidWord(n, a.letters), BraidWord(n, (Letter(SIGMA, n - 1),))
        cases.append(("commuting", "bn", x * a * z, x * g * a * inverse(g) * z))
    return cases


class TestLongPairs:
    def test_verdicts_equal_the_whole_word_reference(self):
        for label, group, w1, w2 in long_cases():
            got = library_decision(group, w1, w2, CASE_BATTERY, None)
            want = whole_word_decision(group, w1, w2, CASE_BATTERY, None)
            assert got == want, (label, group, format_word(w1), format_word(w2))
            equal = label in ("relators", "cancelling", "commuting")
            assert got.status is (Equality.EQUAL if equal else Equality.DISTINCT)


class LetterCounter:
    """Stands in for apply_letters and records how many letters each call acts on."""

    def __init__(self, apply):
        self.apply = apply
        self.calls = []

    def __call__(self, entries, letters):
        letters = tuple(letters)
        self.calls.append(len(letters))
        return self.apply(entries, letters)


class StepCounter:
    """Stands in for the schedule runner and records how many crossings each
    run makes; given ``caller``, only the runs that function makes itself."""

    def __init__(self, run, caller=None):
        self.run = run
        self.code = caller.__code__ if caller else None
        self.calls = []

    def __call__(self, entries, steps):
        if self.code is None or sys._getframe(1).f_code is self.code:
            self.calls.append(len(steps))
        return self.run(entries, steps)


def crossings(letters):
    """The letters that are not virtual."""
    return sum(kind != RHO for kind, _ in letters)


class TestWorkDone:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_each_classical_word_is_checked_once(self, n, monkeypatch):
        scanned = []
        is_classical = BraidWord.is_classical

        def counted(word):
            scanned.append(word)
            return is_classical(word)

        monkeypatch.setattr(BraidWord, "is_classical", counted)
        rng = random.Random(n)
        w1, w2 = (random_reduced_word(n, 40, rng, virtual=False) for _ in "12")
        for decide in (distinguish_vbn, are_equal_bn):
            scanned.clear()
            assert decide(w1, w2).status is Equality.DISTINCT
            assert len(scanned) == 2 and scanned[0] is w1 and scanned[1] is w2, len(scanned)

    @pytest.mark.parametrize("cut", [0, 1, 57, 100, 199, 200])
    def test_bn_acts_up_to_the_inserted_relator(self, cut, monkeypatch):
        rng = random.Random(cut)
        word = random_reduced_word(4, 200, rng, virtual=False)
        checked = 0
        for text in classical_relators(4):
            relator = parse_word(text, 4).letters
            # The words must first differ at the cut: a relator that starts
            # with the word's letter there is an insertion at a later cut.
            if word.letters[cut : cut + 1] == relator[:1]:
                continue
            other = BraidWord(4, word.letters[:cut] + relator + word.letters[cut:])
            counter = LetterCounter(wordproblem.apply_letters)
            monkeypatch.setattr(wordproblem, "apply_letters", counter)
            assert are_equal_bn(word, other).status is Equality.EQUAL
            assert are_equal_bn(other, word).status is Equality.EQUAL
            monkeypatch.undo()
            assert sum(counter.calls) <= 2 * (cut + len(relator))
            checked += 1
        assert checked >= 6

    @pytest.mark.parametrize("cut", [0, 1, 57, 100, 199, 200])
    def test_bn_acts_on_the_inserted_relator_alone(self, cut, monkeypatch):
        # An Equal pair never crosses the shared prefix or suffix.
        word = random_reduced_word(4, 200, random.Random(cut), virtual=False)
        for text in classical_relators(4):
            relator = parse_word(text, 4).letters
            other = BraidWord(4, word.letters[:cut] + relator + word.letters[cut:])
            for pair in ((word, other), (other, word)):
                counter = LetterCounter(wordproblem.apply_letters)
                monkeypatch.setattr(wordproblem, "apply_letters", counter)
                assert are_equal_bn(*pair).status is Equality.EQUAL
                monkeypatch.undo()
                assert sum(counter.calls) <= len(relator)

    @pytest.mark.parametrize("cut", [0, 1, 57, 100, 199, 200])
    def test_vb2_acts_on_the_inserted_pair_alone(self, cut, monkeypatch):
        word = random_reduced_word(2, 200, random.Random(cut))
        for text in ("s1 S1", "r1 r1"):
            pair = parse_word(text, 2).letters
            other = BraidWord(2, word.letters[:cut] + pair + word.letters[cut:])
            counter = LetterCounter(wordproblem.apply_letters)
            monkeypatch.setattr(wordproblem, "apply_letters", counter)
            assert distinguish_vbn(word, other).status is Equality.EQUAL
            monkeypatch.undo()
            assert sum(counter.calls) <= len(pair)

    @pytest.mark.parametrize("group", ["bn", "vb2"])
    @pytest.mark.parametrize(
        "cuts", [(0, 500, 1000), (200, 400, 600), (250, 500, 750), (400, 600, 800)]
    )
    def test_separated_insertions_act_on_the_inserted_letters_alone(
        self, group, cuts, monkeypatch
    ):
        # Insertions 200 letters apart are blocks between long common runs,
        # and each block equals the identity on the probe itself.
        rng = random.Random(f"{group}:{cuts}")
        strands, texts = (4, classical_relators(4)) if group == "bn" else (2, ["s1 S1", "r1 r1"])
        word = random_reduced_word(strands, 1000, rng, virtual=group != "bn")
        for _ in range(10):
            letters, inserted = word.letters, 0
            for cut in reversed(cuts):
                relator = parse_word(rng.choice(texts), strands).letters
                letters = letters[:cut] + relator + letters[cut:]
                inserted += len(relator)
            other = BraidWord(strands, letters)
            for pair in ((word, other), (other, word)):
                counter = LetterCounter(wordproblem.apply_letters)
                monkeypatch.setattr(wordproblem, "apply_letters", counter)
                assert library_decision(group, *pair, 0, None).status is Equality.EQUAL
                monkeypatch.undo()
                assert sum(counter.calls) <= inserted

    @pytest.mark.parametrize(
        "cuts, inverted, tested",
        [
            ((), (100, 700), True),
            ((), (0, 400, 999), True),
            ((200, 500), (800,), True),
            (range(30, 990, 30), (995,), True),
            (range(100, 900, 3), (950,), False),
        ],
    )
    def test_separated_changes_do_at_most_half_again_the_one_pass(
        self, cuts, inverted, tested, monkeypatch
    ):
        # Relators at the cuts and inverted sigmas: the probe crosses the
        # blocks up to the first that differs on it, then makes the one pass.
        # Relators 3 letters apart leave no run the guard accepts, so the
        # rest is one block, past the budget, and there is only the one pass.
        rng = random.Random(f"{cuts}:{inverted}")
        word = random_reduced_word(4, 1000, rng, virtual=False)
        letters = word.letters
        for position in inverted:
            letters = invert_letter(BraidWord(4, letters), position).letters
        for cut in reversed(cuts):
            relator = parse_word(rng.choice(classical_relators(4)), 4).letters
            letters = letters[:cut] + relator + letters[cut:]
        w1, w2 = word, BraidWord(4, letters)
        counter = LetterCounter(wordproblem.apply_letters)
        monkeypatch.setattr(wordproblem, "apply_letters", counter)
        assert are_equal_bn(w1, w2).status is Equality.DISTINCT
        monkeypatch.undo()
        shared = words._common_prefix(w1.letters, w2.letters)
        tail = words._common_prefix(w1.letters[shared:][::-1], w2.letters[shared:][::-1])
        middles = len(w1) + len(w2) - 2 * (shared + tail)
        one_pass = shared + middles + 2 * tail
        assert (sum(counter.calls) > one_pass) is tested
        assert 2 * sum(counter.calls) <= 3 * one_pass

    @pytest.mark.parametrize("position", [0, 1, 57, 100, 199])
    def test_an_inverted_letter_costs_its_middles_twice(self, position, monkeypatch):
        # With x nonempty the two one-letter middles first act on the probe
        # itself; then the probe crosses x once, the middles again, and z on
        # each side for the witness images.  With x empty there is one pass.
        word = random_reduced_word(4, 200, random.Random(position), virtual=False)
        other = invert_letter(word, position)
        counter = LetterCounter(wordproblem.apply_letters)
        monkeypatch.setattr(wordproblem, "apply_letters", counter)
        assert are_equal_bn(word, other).status is Equality.DISTINCT
        monkeypatch.undo()
        first = 2 if position else 0
        assert sum(counter.calls) == first + position + 2 + 2 * (199 - position)

    @pytest.mark.parametrize(
        "prefix, middle, suffix",
        [(0, 50, 0), (0, 50, 60), (1, 50, 0), (1, 50, 50), (20, 50, 30), (100, 50, 0)],
    )
    def test_a_distinct_pair_does_at_most_half_again_the_one_pass(
        self, prefix, middle, suffix, monkeypatch
    ):
        rng = random.Random(f"{prefix}:{middle}:{suffix}")
        x, u, v, z = (
            random_reduced_word(4, length, rng, virtual=False).letters
            for length in (prefix, middle, middle, suffix)
        )
        w1, w2 = BraidWord(4, x + u + z), BraidWord(4, x + v + z)
        counter = LetterCounter(wordproblem.apply_letters)
        monkeypatch.setattr(wordproblem, "apply_letters", counter)
        assert are_equal_bn(w1, w2).status is Equality.DISTINCT
        monkeypatch.undo()
        shared = words._common_prefix(w1.letters, w2.letters)
        tail = words._common_prefix(w1.letters[shared:][::-1], w2.letters[shared:][::-1])
        middles = len(w1) + len(w2) - 2 * (shared + tail)
        one_pass = shared + middles + 2 * tail
        twice = shared > 0 and middles <= shared + 2 * tail
        assert sum(counter.calls) == one_pass + (middles if twice else 0)
        assert 2 * sum(counter.calls) <= 3 * one_pass

    def test_a_probe_that_is_not_faithful_never_compares_middles_first(self, monkeypatch):
        # On 3 strands equal middles on the base vector do not make the words
        # equal, so x s1 z against x S1 z crosses x once and the two middles,
        # and z only for a Distinct witness; a middles-first pass would add 2.
        s1, S1 = parse_word("s1", 3), parse_word("S1", 3)
        seen = set()
        for seed in range(200):
            rng = random.Random(seed)
            x, z = random_reduced_word(3, 10, rng), random_reduced_word(3, 10, rng)
            w1, w2 = x * s1 * z, x * S1 * z
            if x.is_classical() or free_reduce(w1) is not w1 or free_reduce(w2) is not w2:
                continue
            counter = LetterCounter(wordproblem.apply_letters)
            monkeypatch.setattr(wordproblem, "apply_letters", counter)
            status = distinguish_vbn(w1, w2, 0).status
            monkeypatch.undo()
            seen.add(status)
            assert sum(counter.calls) == 10 + 2 + (2 * 10 if status is Equality.DISTINCT else 0)
        assert seen == {Equality.DISTINCT, Equality.UNKNOWN}

    def test_battery_acts_on_the_reduced_quotient(self, monkeypatch):
        limit = crossings(free_reduce(BETA_CUBED).letters)
        rng = random.Random(3)
        for index in range(6):
            word = random_reduced_word(3, rng.randint(10, 30), rng)
            # The base vector's pass through apply_letters runs a schedule
            # too; count the battery's alone.
            counter = StepCounter(action._run, action.moved_probes)
            monkeypatch.setattr(action, "_run", counter)
            verdict = distinguish_vbn(BETA_CUBED * word, word, 1000, random.Random(index))
            monkeypatch.undo()
            # beta^3 fixes the base vector and the strand permutation, so
            # only the battery can tell the words apart; it rarely does.
            assert verdict.status is not Equality.EQUAL
            assert counter.calls and max(counter.calls) <= limit

    def test_battery_probes_cross_the_conjugator_once(self, monkeypatch):
        # BETA = x m x^-1 with |x| = 6, |m| = 8 and 5 + 4 crossings; SECOND
        # with |x| = 5, |m| = 8 and 4 + 4.  Virtual letters run no step.
        samples = 300
        for word, steps in ((BETA, 5 + 4), (SECOND, 4 + 4)):
            counter = StepCounter(action._run)
            monkeypatch.setattr(action, "_run", counter)
            moved_fraction(word, samples, BATTERY_BOUND, random.Random(5))
            monkeypatch.undo()
            assert sum(counter.calls) == steps * samples

    def test_battery_crosses_the_conjugator_of_the_quotient_once(self, monkeypatch):
        # The reduced quotient of beta^3 w and w is the 36-letter reduced
        # beta^3 = x m x^-1 with |x| = 6: 22 crossings, of which x holds 5
        # and m 12, so each probe runs 17 steps.
        quotient = free_reduce(BETA_CUBED).letters
        assert crossings(quotient) == 22
        rng = random.Random(3)
        for index in range(6):
            word = random_reduced_word(3, rng.randint(10, 30), rng)
            counter = StepCounter(action._run, action.moved_probes)
            monkeypatch.setattr(action, "_run", counter)
            distinguish_vbn(BETA_CUBED * word, word, 1000, random.Random(index))
            monkeypatch.undo()
            _, drawn = first_moved_probe(quotient, 6, 1000, random.Random(index))
            assert 0 < sum(counter.calls) <= 17 * drawn
