import hashlib
import itertools
import json
import multiprocessing
import os
import random
from collections import deque
from fractions import Fraction

import pytest

from vbraid.action import apply_letters
from vbraid.cli import main
from vbraid.hunt import (
    PROVER_NODES,
    HuntConfig,
    _rules,
    hunt,
    moved_fraction,
    provably_trivial,
    relation_rules,
)
from vbraid.words import (
    MAX_LETTERS,
    MAX_STRANDS,
    RHO,
    SIGMA,
    SIGMA_INV,
    BraidWord,
    Letter,
    _inverted,
    _reduced,
    format_word,
    free_reduce,
    inverse,
    parse_word,
    random_reduced_word,
)

BETA = "s1 r2 s1 S2 s1 s2 S1 r1 s2 r1 s1 r2 S1 r2 S2 S1 s2 S1 r2 S1"


def reference_rules(indices):
    """The prover's rule table with far commutation stated as relators.

    Next to the 6-letter relators of each adjacent index pair, every
    rotation of the commutator of each far pair (and of its inverse) is
    split in half.  The 2-letter keys are exactly the far pairs (x, y), each
    with the one replacement (y, x).  The table has O(k^2) keys for k
    indices.
    """
    present = set(indices)
    indices = sorted(present)
    relators = []
    for i in (i for i in indices if i + 1 in present):
        si, sj = Letter(SIGMA, i), Letter(SIGMA, i + 1)
        ti, tj = Letter(SIGMA_INV, i), Letter(SIGMA_INV, i + 1)
        ri, rj = Letter(RHO, i), Letter(RHO, i + 1)
        relators.append((si, sj, si, tj, ti, tj))
        relators.append((ri, rj, ri, rj, ri, rj))
        relators.append((ri, rj, si, rj, ri, tj))
        relators.append((rj, ri, sj, ri, rj, ti))
    for i, j in ((i, j) for i in indices for j in indices if j > i + 1):
        for a in (Letter(SIGMA, i), Letter(SIGMA_INV, i), Letter(RHO, i)):
            for b in (Letter(SIGMA, j), Letter(SIGMA_INV, j), Letter(RHO, j)):
                relators.append((a, b, a.inverse(), b.inverse()))
    rules = {}
    for relator in relators:
        for variant in (relator, _inverted(relator)):
            size = len(variant)
            for shift in range(size):
                rotated = variant[shift:] + variant[:shift]
                left = rotated[: size // 2]
                right = _inverted(rotated[size // 2 :])
                if left != right:
                    rules.setdefault(left, set()).add(right)
    return {key: tuple(sorted(value)) for key, value in rules.items()}


def reference_search(letters, budget):
    """Breadth-first search over ``reference_rules`` of the word's indices,
    block widths shortest first.  Returns (answer, nodes): for True, the
    size of ``seen`` when the node that reached the empty word was taken;
    for False, the final size of ``seen``, at least ``budget`` when the
    budget cut the search off."""
    start = _reduced(letters)
    if not start:
        return True, 0
    rules = reference_rules(index for _, index in start)
    widths = sorted({len(key) for key in rules})
    seen = {start}
    queue = deque([start])
    while queue and len(seen) < budget:
        taken = len(seen)
        current = queue.popleft()
        for width in widths:
            for at in range(len(current) - width + 1):
                for replacement in rules.get(current[at : at + width], ()):
                    candidate = _reduced(current[:at] + replacement + current[at + width :])
                    if not candidate:
                        return True, taken
                    if candidate not in seen:
                        seen.add(candidate)
                        queue.append(candidate)
    return False, len(seen)


def conjugate_batch(per_strands):
    """Seeded words on 3-8 strands: a random reduced word of 0-4 letters with
    up to two conjugates of ``reference_rules`` relators inserted, far
    commutators included."""
    for strands in range(3, 9):
        table = reference_rules(range(1, strands))
        relators = [left + _inverted(right) for left, rights in table.items() for right in rights]
        rng = random.Random(strands)
        for _ in range(per_strands):
            letters = random_reduced_word(strands, rng.randint(0, 4), rng).letters
            for _ in range(rng.randint(0, 2)):
                cut = rng.randint(0, len(letters))
                conjugator = random_reduced_word(strands, rng.randint(0, 1), rng).letters
                inserted = conjugator + rng.choice(relators) + _inverted(conjugator)
                letters = letters[:cut] + inserted + letters[cut:]
            yield BraidWord(strands, letters)


class TestConfig:
    def test_fixed_and_ranged_lengths(self):
        assert HuntConfig(3, 12, 10, seed=1).length_range() == (12, 12)
        assert HuntConfig(3, (1, 30), 10, seed=1).length_range() == (1, 30)

    def test_default_base(self):
        config = HuntConfig(3, (1, 5), 10, seed=1)
        assert config.start_entries() == (0, 1, 0, 1, 0, 1)

    def test_base_override(self):
        config = HuntConfig(2, (1, 5), 10, seed=1, base=(0, 2, 0, 1))
        assert config.start_entries() == (0, 2, 0, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(strands=1, word_length=5, word_count=1, seed=0),
            dict(strands=3, word_length=0, word_count=1, seed=0),
            dict(strands=3, word_length=(5, 2), word_count=1, seed=0),
            dict(strands=3, word_length=5, word_count=-1, seed=0),
            dict(strands=3, word_length=5, word_count=1, seed=0, battery_size=0),
            dict(strands=3, word_length=5, word_count=1, seed=0, coefficient_bound=0),
            dict(strands=3, word_length=5, word_count=1, seed=0, base=(0, 1)),
            dict(strands=3, word_length=MAX_LETTERS + 1, word_count=1, seed=0),
            dict(strands=3, word_length=(1, 2_000_000_000), word_count=1, seed=0),
            dict(strands=MAX_STRANDS + 1, word_length=5, word_count=1, seed=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HuntConfig(**kwargs)


    def test_longest_word_length(self):
        assert HuntConfig(3, (1, MAX_LETTERS), 1, seed=0).length_range() == (1, MAX_LETTERS)


class TestHunt:
    def test_report_is_pinned(self):
        # sha256 of the report without runtime_seconds, as computed with plain
        # randrange/randint draws
        report = hunt(HuntConfig(3, (1, 30), 10**4, seed=2011)).as_dict()
        del report["runtime_seconds"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "5b80f92a4d084b46161707e998ee5e7c3c774b27c5a8ffd8d6f5c3f22481c879"

    @pytest.mark.parametrize(
        "config, workers, digest",
        [
            (
                HuntConfig(4, (1, 12), 20000, seed=5),
                1,
                "ad48d265e57306f1bf42eb8aeca96d5a72193c3e32d7e7ebf89e8b4d60f7c03d",
            ),
            (
                HuntConfig(5, (1, 10), 20000, seed=6),
                2,
                "7e6088f752b769abf364de4ceb465bf205e74476af0f0bc127a249be1acdde3e",
            ),
        ],
        ids=["n4", "n5-2workers"],
    )
    def test_prover_reports_are_pinned(self, config, workers, digest):
        # More strands than the n = 3 pin: dozens of fixers, several of them
        # proved trivial, merged across chunks at 2 workers.
        report = hunt(config, workers).as_dict()
        del report["runtime_seconds"]
        assert report["identity_words"]
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest

    @pytest.mark.parametrize("strands", [100, MAX_STRANDS])
    def test_prover_memory_does_not_grow_with_the_strand_count(self, strands, peak_traced_bytes):
        # One-letter words: every rho letter fixes the base vector, and a
        # one-probe battery with entries in [-1, 1] lets some through to
        # the prover.
        config = HuntConfig(strands, 1, 200, seed=1, battery_size=1, coefficient_bound=1)
        report = hunt(config)
        assert report.kernel_candidates
        assert peak_traced_bytes() < 16 * 2**20

    @pytest.mark.parametrize("cpus, sizes", [(2, [2]), (None, [])])
    def test_pool_is_clamped_to_cpu_count(self, monkeypatch, cpus, sizes):
        opened = []

        class RecordingPool:
            """Stands in for multiprocessing.Pool: records its size, starts no process."""

            def __init__(self, processes):
                opened.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def starmap(self, func, arguments):
                return list(itertools.starmap(func, arguments))

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        config = HuntConfig(3, (1, 10), 500, seed=8)
        report = hunt(config, workers=64)
        assert opened == sizes
        assert report.base_fixers == hunt(config).base_fixers

    def test_empty_run(self):
        report = hunt(HuntConfig(3, (1, 10), 0, seed=5))
        assert report.words_tested == 0
        assert report.base_fixers == ()
        assert report.kernel_candidates == ()

    def test_deterministic(self):
        config = HuntConfig(3, (1, 20), 3000, seed=42)
        one = hunt(config)
        two = hunt(config)
        assert one.base_fixers == two.base_fixers
        assert one.kernel_candidates == two.kernel_candidates
        assert one.words_tested == two.words_tested

    def test_worker_count_independence(self):
        config = HuntConfig(3, (1, 20), 3000, seed=43)
        single = hunt(config, workers=1)
        double = hunt(config, workers=2)
        triple = hunt(config, workers=3)
        assert single.base_fixers == double.base_fixers == triple.base_fixers
        assert (
            single.kernel_candidates
            == double.kernel_candidates
            == triple.kernel_candidates
        )

    def test_fixers_fix_the_base_vector(self):
        config = HuntConfig(3, (1, 10), 5000, seed=11)
        report = hunt(config)
        assert report.base_fixers  # short virtual words occur often
        base = list(config.start_entries())
        for fixer in report.base_fixers:
            word = parse_word(fixer.word, 3)
            assert free_reduce(word) == word
            assert apply_letters(base, word.letters) == base
        # battery survivors must all be provably the identity element
        survivors = {f.word for f in report.base_fixers if f.moved_fraction == 0}
        assert survivors == set(report.identity_words)
        assert report.kernel_candidates == ()

    def test_relator_conjugate_is_classified_as_identity(self):
        # freely reduced, yet equal to 1 by the mixed relation
        word = parse_word("s1 r2 r1 S2 r1 r2", 3)
        assert free_reduce(word) == word
        assert provably_trivial(word)
        # nontrivial words stay unproven
        assert not provably_trivial(parse_word("s1", 3))
        assert not provably_trivial(parse_word(BETA, 3))

    @pytest.mark.parametrize("strands", [3, 4, 5, 6])
    def test_word_indices_give_the_full_table_answer(self, strands):
        rules = relation_rules(strands)
        # u v^-1 is a relator for every rule u -> v; the reference table
        # also holds the far commutators.
        relators = [
            left + inverse(BraidWord(strands, right)).letters
            for left, rights in reference_rules(range(1, strands)).items()
            for right in rights
        ]
        rng = random.Random(strands)
        answers = set()
        for _ in range(200):
            letters = random_reduced_word(strands, rng.randint(0, 4), rng).letters
            for _ in range(rng.randint(0, 1)):
                cut = rng.randint(0, len(letters))
                conjugator = random_reduced_word(strands, rng.randint(0, 1), rng)
                letters = (
                    letters[:cut]
                    + conjugator.letters
                    + rng.choice(relators)
                    + inverse(conjugator).letters
                    + letters[cut:]
                )
            word = BraidWord(strands, letters)
            answer = provably_trivial(word)
            assert answer == provably_trivial(word, rules)
            answers.add(answer)
        assert answers == {True, False}

    def test_fixers_deduplicated(self):
        report = hunt(HuntConfig(3, (1, 3), 5000, seed=11))
        words = [fixer.word for fixer in report.base_fixers]
        assert len(words) == len(set(words))

    def test_two_strand_run_with_faithful_base_has_no_fixers(self):
        config = HuntConfig(2, (1, 25), 5000, seed=7, base=(0, 2, 0, 1))
        report = hunt(config)
        assert report.base_fixers == ()

    def test_report_round_trips_to_json(self, tmp_path):
        # The file `vbraid hunt` writes holds the library's report.
        out = tmp_path / "report.json"
        argv = ["hunt", "--n", "3", "--count", "500", "--length", "1:10", "--seed", "3"]
        assert main([*argv, "--out", str(out)]) == 0
        report = hunt(HuntConfig(3, (1, 10), 500, seed=3)).as_dict()
        payload = json.loads(out.read_text())
        assert payload["seed_partition"]["scheme"] == "per word index"
        del payload["runtime_seconds"], report["runtime_seconds"]
        assert payload == report
        assert report["base_fixers"]


class TestRelationRules:
    def test_keys_are_three_letter_blocks_26_per_adjacent_pair(self):
        for strands in range(3, 31):
            rules = relation_rules(strands)
            assert len(rules) == 26 * (strands - 2)
            assert {len(key) for key in rules} == {3}

    @pytest.mark.parametrize("strands", [4, 6])
    def test_the_reference_table_adds_exactly_the_far_swaps(self, strands):
        reference = reference_rules(range(1, strands))
        pairs = {key: rights for key, rights in reference.items() if len(key) == 2}
        assert {key: rights for key, rights in reference.items() if len(key) == 3} == (
            relation_rules(strands)
        )
        assert all(abs(x.index - y.index) > 1 for x, y in pairs)
        assert all(rights == ((y, x),) for (x, y), rights in pairs.items())
        # Three letters per index, both orders, for each far index pair.
        assert len(pairs) == 18 * ((strands - 2) * (strands - 3) // 2)

    def test_far_indices_build_no_rules(self):
        # 100 indices 97 apart; with far commutators as relators this
        # table had 89,100 keys.
        assert _rules(1 + 97 * k for k in range(100)) == {}

    def test_far_commutator_is_proved_by_a_swap(self):
        word = parse_word("s1 r98 S1 r98", 100)
        assert _rules(index for _, index in word.letters) == {}
        assert provably_trivial(word)

    @pytest.mark.parametrize("strands", [1, MAX_STRANDS + 1])
    def test_rejects_a_strand_count_out_of_range(self, strands):
        with pytest.raises(ValueError, match="strand count"):
            relation_rules(strands)


class TestProverReference:
    """``provably_trivial`` against ``reference_search``, which states far
    commutation as 2-letter rules: the same answers, and the same search
    order wherever a node budget cuts it off."""

    def test_answers_match_the_reference(self, monkeypatch):
        budget = 2000
        monkeypatch.setattr("vbraid.hunt.PROVER_NODES", budget)
        answers = []
        cut_off = 0
        for word in conjugate_batch(40):
            answer = provably_trivial(word)
            reference, nodes = reference_search(word.letters, budget)
            assert answer == reference == provably_trivial(word, relation_rules(word.strands))
            cut_off += not reference and nodes >= budget
            answers.append([word.strands, format_word(word), answer])
        assert {answer for *_, answer in answers} == {True, False}
        assert cut_off >= 2
        digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
        assert digest == "c0bd8655cf82d26b1ca18baec92491d415ae0d6381209cc7c46d5029771f578a"

    def test_the_search_order_matches_the_reference(self, monkeypatch):
        # A word proved after taking the node at `nodes` seen words is
        # proved under a budget of nodes + 1 and not under a budget of
        # nodes, so each budget pins how far the search has got.
        checked = 0
        for word in conjugate_batch(40):
            reference, nodes = reference_search(word.letters, 2000)
            if reference and nodes:
                monkeypatch.setattr("vbraid.hunt.PROVER_NODES", nodes)
                assert not provably_trivial(word)
                monkeypatch.setattr("vbraid.hunt.PROVER_NODES", nodes + 1)
                assert provably_trivial(word)
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize(
        "strands, text",
        [
            (6, "s4 S2 S1 S2 s5 S1 r4 s1 r4 S5 s1 s2 s1 S4 S5"),
            (8, "r7 r2 s1 r2 r1 S2 r1 r5 S1 s5 s1 S5 r5 r7 S3"),
        ],
    )
    def test_the_default_budget_cuts_both_searches_off(self, strands, text):
        word = parse_word(text, strands)
        reference, nodes = reference_search(word.letters, PROVER_NODES)
        assert not reference and nodes >= PROVER_NODES
        assert not provably_trivial(word)

    def test_a_long_word_stays_within_the_letter_budget(self, peak_traced_bytes):
        # Under the node budget alone the search would keep about 50,000
        # rewrites of 10^4 letters each; PROVER_LETTERS stops it first.
        word = random_reduced_word(3, 10**4, random.Random(7))
        assert not provably_trivial(word)
        assert peak_traced_bytes() < 64 * 2**20


class TestMovedFraction:
    def test_near_kernel_word_fixes_base_but_moves_some_probes(self):
        beta = parse_word(BETA, 3)
        base = [0, 1, 0, 1, 0, 1]
        assert apply_letters(base, beta.letters) == base
        fraction = moved_fraction(beta, 5000, 100, random.Random(2))
        assert 0 < fraction < Fraction(1, 50)

    def test_single_crossing_moves_the_base(self):
        word = parse_word("s1", 3)
        base = [0, 1, 0, 1, 0, 1]
        assert apply_letters(base, word.letters) != base
        assert moved_fraction(word, 10, 100, random.Random(2)) > 0

    def test_identity_moves_nothing(self):
        assert moved_fraction(BraidWord(3), 500, 100, random.Random(1)) == 0

    def test_single_virtual_letter_moves_almost_everything(self):
        # a probe is fixed by rho_1 exactly when its two pairs coincide
        samples = 20000
        fraction = moved_fraction(parse_word("r1", 2), samples, 100, random.Random(5))
        expected = 1 - Fraction(1, 201) ** 2
        sigma = (float(expected) * (1 - float(expected)) / samples) ** 0.5
        assert abs(float(fraction) - float(expected)) <= 3 * sigma + 1e-12

    def test_deterministic_for_fixed_seed(self):
        word = parse_word(BETA, 3)
        one = moved_fraction(word, 2000, 100, random.Random(9))
        two = moved_fraction(word, 2000, 100, random.Random(9))
        assert one == two

    def test_reduction_does_not_change_the_fraction(self):
        # same group element, same probes: identical counts
        word = parse_word("s1 r2 r2 S1 s2 r1", 3)
        reduced = free_reduce(word)
        assert reduced.letters != word.letters
        one = moved_fraction(word, 2000, 100, random.Random(13))
        two = moved_fraction(reduced, 2000, 100, random.Random(13))
        assert one == two

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            moved_fraction(BraidWord(2), 0, 100, random.Random(0))
