import itertools
import math
import random

import pytest

from vbraid import action
from vbraid.action import (
    Coordinates,
    act_quad,
    act_sigma,
    act_sigma_inv,
    act_word,
    apply_letters,
    base_vector,
    even_sum,
    moved_probes,
)
from vbraid.diagram import VB2_START
from vbraid.words import (
    MAX_STRANDS,
    RHO,
    SIGMA,
    SIGMA_INV,
    BraidWord,
    Letter,
    _common_prefix,
    _inverted,
    cancels,
    free_reduce,
    inverse,
    parse_word,
    random_reduced_word,
)
from test_wordproblem import StepCounter, crossings
from test_words import EXHAUSTIVE_LENGTHS, WORDS, every_tuple


GRID = list(itertools.product(range(-6, 7), repeat=4))


def random_quads(bits, count, seed):
    rng = random.Random(seed)
    return [
        tuple(rng.getrandbits(bits) * rng.choice((-1, 1)) for _ in range(4))
        for _ in range(count)
    ]


# The grid, then seeded quads of up to 3, 30 and 3000 bits.
QUADS = GRID + [q for bits in (3, 30, 3000) for q in random_quads(bits, 2000, bits)]


def act(entries, text, strands=None):
    vector = Coordinates.from_entries(entries)
    word = parse_word(text, strands or vector.strands)
    return act_word(vector, word).entries


class TestQuadActions:
    def test_sigma_values(self):
        assert act_sigma((0, 1, 0, 1)) == (1, 0, 0, 2)
        assert act_sigma((0, 2, 0, 1)) == (2, 0, 0, 3)
        assert act_sigma((0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_sigma_inv_values(self):
        assert act_sigma_inv((0, 1, 0, 1)) == (-1, 0, 0, 2)
        assert act_sigma_inv((0, 0, 0, 0)) == (0, 0, 0, 0)
        assert act_sigma_inv((1, 0, 0, 2)) == (0, 1, 0, 1)

    def test_rho_values(self):
        assert act_quad(RHO, (1, 0, 0, 2)) == (0, 2, 1, 0)
        assert act_quad(RHO, (3, 4, 3, 4)) == (3, 4, 3, 4)
        assert act_quad(RHO, (0, 2, 0, 1)) == (0, 1, 0, 2)

    def test_rho_involution(self):
        for quad in QUADS:
            assert act_quad(RHO, act_quad(RHO, quad)) == quad

    def test_quad_step_matches_the_word_engine(self):
        # act_quad writes the rho swap out and apply_letters folds it into
        # its pair map; a wrong swap can still be an involution that keeps
        # b + d.
        for kind in (SIGMA, SIGMA_INV, RHO):
            for quad in QUADS:
                assert act_quad(kind, quad) == tuple(apply_letters(quad, [Letter(kind, 1)]))

    def test_pair_sum_conserved(self):
        for quad in QUADS:
            for image in (act_sigma(quad), act_sigma_inv(quad), act_quad(RHO, quad)):
                assert image[1] + image[3] == quad[1] + quad[3], quad

    def test_unfaithful_fixed_point(self):
        # the action may fix vectors outside the certified family
        assert act_sigma((0, 0, 0, 1)) == (0, 0, 0, 1)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown letter kind 2"):
            act_quad(2, (0, 1, 0, 1))


def reference_sigma_inv(quad):
    """The inverse crossing written out on its own, with f = a + b- - c - d+:
    the reference that the action's mirror form must match."""
    a, b, c, d = quad
    bp, bm = max(b, 0), min(b, 0)
    dp, dm = max(d, 0), min(d, 0)
    f = a + bm - c - dp
    return (
        a - bp - max(dp + f, 0),
        d + min(f, 0),
        c - dm - min(bm - f, 0),
        b - min(f, 0),
    )


class TestInverseCrossingReference:
    def test_grid(self):
        assert len(GRID) == 13**4
        for quad in GRID:
            assert act_sigma_inv(quad) == reference_sigma_inv(quad)

    @pytest.mark.parametrize("bits", [3, 30, 3000])
    def test_random_quads(self, bits):
        for quad in random_quads(bits, 2000, bits):
            assert act_sigma_inv(quad) == reference_sigma_inv(quad)

    def test_roundtrips_on_the_grid(self):
        assert len(QUADS) == 13**4 + 3 * 2000
        for quad in QUADS:
            assert act_sigma_inv(act_sigma(quad)) == quad
            assert act_sigma(act_sigma_inv(quad)) == quad


def reference_sigma(quad):
    """The positive crossing as the module docstring writes it, with max and
    min: the reference that the action's case form must match."""
    a, b, c, d = quad
    bp, bm = max(b, 0), min(b, 0)
    dp, dm = max(d, 0), min(d, 0)
    e = a - bm - c + dp
    return (
        a + bp + max(dp - e, 0),
        d - max(e, 0),
        c + dm + min(bm + e, 0),
        b + max(e, 0),
    )


def sign_case_quads(count, seed):
    """Seeded quads whose entries are each 0, +-1 or a +-3000-bit integer, so
    that every sign case of the crossing meets big entries."""
    rng = random.Random(seed)

    def entry():
        size = rng.choice((0, 1, rng.getrandbits(3000) | 1 << 2999))
        return rng.choice((-1, 1)) * size

    return [tuple(entry() for _ in range(4)) for _ in range(count)]


REFERENCE = {SIGMA: reference_sigma, SIGMA_INV: reference_sigma_inv}


def reference_word(entries, letters):
    """Act on the entries one letter at a time with the two references, and
    swap the two pairs for a rho letter."""
    v = list(entries)
    for kind, i in letters:
        j = 2 * i - 2
        if kind == RHO:
            v[j : j + 4] = v[j + 2 : j + 4] + v[j : j + 2]
        else:
            v[j : j + 4] = REFERENCE[kind](tuple(v[j : j + 4]))
    return tuple(v)


class TestPositiveCrossingReference:
    def test_quads(self):
        for quad in QUADS:
            assert act_sigma(quad) == reference_sigma(quad)

    def test_sign_cases_with_big_entries(self):
        # every sign of b, d and e, for both crossings, with 3000-bit entries
        cases = set()
        for quad in sign_case_quads(3000, 18):
            assert act_sigma(quad) == reference_sigma(quad)
            assert act_sigma_inv(quad) == reference_sigma_inv(quad)
            a, b, c, d = quad
            if max(map(abs, quad)).bit_length() == 3000:
                for e in (a - c - min(b, 0) + max(d, 0), c - a - min(b, 0) + max(d, 0)):
                    cases.add((b > 0, b < 0, d > 0, d < 0, e > 0))
        assert len(cases) == 18

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_long_classical_words(self, seed):
        rng = random.Random(seed)
        strands = rng.randint(4, 8)
        word = random_reduced_word(strands, rng.randint(2000, 5000), rng, virtual=False)
        image = act_word(base_vector(strands), word).entries
        assert image == reference_word(base_vector(strands).entries, word.letters)
        assert max(map(abs, image)).bit_length() > 100


class TestWordEngineReference:
    """``apply_letters`` compiles its letters, runs the schedule and reads the
    pairs back through the pair map; the references act letter by letter."""

    def test_every_input_word(self):
        assert len(WORDS) == 27553
        rng = random.Random(2201)
        for word in WORDS:
            probe = [rng.randint(-9, 9) for _ in range(2 * word.strands)]
            before = probe[:]
            image = apply_letters(probe, word.letters)
            assert tuple(image) == reference_word(probe, word.letters), word
            assert probe == before  # the deciders act twice on one list

    @pytest.mark.parametrize("text", ["s1 S2 s3 s1 S3 s2", "s1 r2 S3 r1 s2 r3 s1"])
    def test_an_iterator_of_letters_acts_as_the_word(self, text):
        # _steps scans the letters for a rho letter before it compiles them
        letters = parse_word(text, 4).letters
        probe = [3, -1, 4, 1, -5, 9, 2, -6]
        assert apply_letters(probe, iter(letters)) == apply_letters(probe, letters)
        assert tuple(apply_letters(probe, iter(letters))) == reference_word(probe, letters)

    def test_a_wide_map_with_two_far_apart_pairs_swapped(self):
        # r1 ... r(n-1) carries the first pair to the last position and
        # r(n-2) ... r1 carries the old last pair back to the first, so the
        # final map swaps the pairs at positions 1 and n and fixes the rest.
        n = MAX_STRANDS
        rng = random.Random(2301)
        probe = [rng.randint(-9, 9) for _ in range(2 * n)]
        carry = [Letter(RHO, i) for i in range(1, n)] + [Letter(RHO, i) for i in range(n - 2, 0, -1)]
        letters = (Letter(SIGMA, 1), Letter(SIGMA_INV, n - 1), *carry, Letter(SIGMA, 1), Letter(SIGMA, n - 2))
        at = list(range(0, 2 * n, 2))
        action._steps(letters, at)
        assert at == [2 * n - 2, *range(2, 2 * n - 2, 2), 0]
        assert tuple(apply_letters(probe, letters)) == reference_word(probe, letters)


class TestCrossingWorkDone:
    """The crossing adds no term that the signs make zero: an entry whose
    term is zero comes back as the same object, not as a copy."""

    X, Y, Z = (random.Random(k).getrandbits(3000) | 1 << 2999 for k in range(3))

    @pytest.mark.parametrize("kind, sign", [(SIGMA, 1), (SIGMA_INV, -1)])
    def test_e_at_most_zero_swaps_b_and_d_as_they_are(self, kind, sign):
        # e <= -X - Y - Z + Y + Z for every sign of b and d
        for b, d in itertools.product((self.Y, -self.Y), (self.Z, -self.Z)):
            quad = (-sign * (self.Y + self.Z), b, sign * self.X, d)
            image = act_quad(kind, quad)
            assert image[1] is d and image[3] is b

    @pytest.mark.parametrize("kind, sign", [(SIGMA, 1), (SIGMA_INV, -1)])
    def test_a_stays_when_b_and_d_are_not_positive(self, kind, sign):
        # e = 2X + Y > 0, s = b+ + (d+ - e)+ = 0
        quad = (sign * self.X, -self.Y, -sign * self.X, -self.Z)
        image = act_quad(kind, quad)
        assert image[0] is quad[0]
        assert image[2] is not quad[2]

    @pytest.mark.parametrize("kind, sign", [(SIGMA, 1), (SIGMA_INV, -1)])
    def test_c_stays_when_b_and_d_are_positive(self, kind, sign):
        # e = 2X + Z > 0, t = d- + (b- + e)- = 0
        quad = (sign * self.X, self.Y, -sign * self.X, self.Z)
        image = act_quad(kind, quad)
        assert image[2] is quad[2]
        assert image[0] is not quad[0]


class Entry:
    """An integer that allows only +, - and the comparisons < 0 and > 0."""

    def __init__(self, value):
        self.value = value

    def __add__(self, other):
        return Entry(self.value + other.value)

    def __sub__(self, other):
        return Entry(self.value - other.value)

    def _zero(self, other):
        if isinstance(other, Entry) or other != 0:
            raise TypeError(f"comparison with {other!r}, not with 0")
        return self.value

    def __lt__(self, other):
        return self._zero(other) < 0

    def __gt__(self, other):
        return self._zero(other) > 0

    def __bool__(self):
        raise TypeError("truth value of an entry")


class TestCrossingArithmetic:
    def test_entries_see_only_plus_minus_and_comparisons_with_zero(self):
        for kind in (SIGMA, SIGMA_INV):
            for quad in GRID:
                image = act_quad(kind, tuple(map(Entry, quad)))
                assert tuple(x.value for x in image) == act_quad(kind, quad)

    def test_the_schedule_runner_too(self):
        for kind in (SIGMA, SIGMA_INV):
            for quad in GRID:
                image, _ = run_step(kind, tuple(map(Entry, quad)), 0, 2, 4)
                assert tuple(x.value for x in image) == act_quad(kind, quad)

    def test_the_word_engine_on_a_virtual_word(self):
        # r2 r1 r2 leaves the pairs at positions 1 and 3 swapped in the map.
        letters = parse_word("s1 r2 S1 r1 s2 S2 r2 s1", 3).letters
        rng = random.Random(2202)
        for _ in range(300):
            probe = [rng.randint(-4, 4) for _ in range(6)]
            image = apply_letters(list(map(Entry, probe)), letters)
            assert tuple(x.value for x in image) == reference_word(probe, letters)

    def test_the_word_engine_on_a_classical_word(self):
        # No rho letter: the steps come from the identity table.
        letters = parse_word("s1 S2 s3 s2 S1 S3 s1", 4).letters
        rng = random.Random(2302)
        for _ in range(300):
            probe = [rng.randint(-4, 4) for _ in range(8)]
            image = apply_letters(list(map(Entry, probe)), letters)
            assert tuple(x.value for x in image) == reference_word(probe, letters)


def run_step(kind, quad, p, q, width):
    """Run the one-step schedule of a ``kind`` crossing at offsets p and q on
    a vector of ``width`` entries holding the quad's (a, b) at p and (c, d)
    at q: the image and the other entries."""
    v = list(range(100, 100 + width))
    v[p], v[p + 1], v[q], v[q + 1] = quad
    action._run(v, [(kind == SIGMA, p, p + 1, q, q + 1)])
    crossed = (p, p + 1, q, q + 1)
    return (v[p], v[p + 1], v[q], v[q + 1]), [x for j, x in enumerate(v) if j not in crossed]


class TestScheduleRunner:
    """Every action runs its crossings through ``_run``: on a one-step
    schedule at any two offsets it must give the max/min reference's image
    and leave every other entry alone."""

    def test_grid_and_seeded_quads(self):
        for kind in (SIGMA, SIGMA_INV):
            for quad in QUADS:
                assert run_step(kind, quad, 0, 2, 4) == (REFERENCE[kind](quad), [])

    @pytest.mark.parametrize("p, q, width", [(2, 0, 4), (0, 4, 6), (4, 0, 6), (6, 2, 8), (4, 2, 8)])
    def test_other_offsets(self, p, q, width):
        rest = [100 + j for j in range(width) if j not in (p, p + 1, q, q + 1)]
        for kind in (SIGMA, SIGMA_INV):
            for quad in QUADS[::5]:
                assert run_step(kind, quad, p, q, width) == (REFERENCE[kind](quad), rest)

    def test_schedule_skips_virtual_letters_and_maps_the_pairs(self):
        at = [0, 2, 4]
        steps = action._steps(parse_word("r1 s1 r2 S2 s1", 3).letters, at)
        # r1 swaps the pairs at positions 1 and 2, r2 then those at 2 and 3.
        assert [(plus, p, q) for plus, p, _, q, _ in steps] == [
            (True, 2, 0), (False, 4, 0), (True, 2, 4)
        ]
        assert all(p1 == p + 1 and q1 == q + 1 for _, p, p1, q, q1 in steps)
        assert at == [2, 4, 0]


def reference_steps(letters, at):
    """The compile written out letter by letter: a rho letter swaps two
    entries of the pair map, and a crossing at i becomes a step on the
    offsets at[i - 1] and at[i]."""
    steps = []
    for kind, i in letters:
        if kind == RHO:
            at[i - 1], at[i] = at[i], at[i - 1]
        else:
            p, q = at[i - 1], at[i]
            steps.append((kind == SIGMA, p, p + 1, q, q + 1))
    return steps


class TestIdentityTable:
    """A classical word on the identity map compiles through one table of
    letter to step; it must give the letter-by-letter schedule."""

    def test_every_classical_input_word_on_a_fresh_and_a_moved_map(self):
        classical = [word for word in WORDS if word.is_classical()]
        assert len(classical) > 1000
        for word in classical:
            fresh = list(range(0, 2 * word.strands, 2))
            moved = fresh[:]
            assert action._steps((Letter(RHO, 1),), moved) == []
            assert moved != fresh
            for at in (fresh, moved):
                expected_at = at[:]
                assert action._steps(word.letters, at) == reference_steps(word.letters, expected_at)
                assert at == expected_at, word

    def test_the_table_holds_one_step_per_crossing_letter(self):
        # a classical word over every index of the widest vector
        n = MAX_STRANDS
        letters = [Letter(kind, i) for i in range(1, n) for kind in (SIGMA, SIGMA_INV)]
        image = apply_letters(base_vector(n).entries, letters)
        assert tuple(image) == reference_word(base_vector(n).entries, letters)
        table = action._IDENTITY_STEPS
        assert set(letters) <= set(table)
        assert len(table) <= 2 * (MAX_STRANDS - 1)


class TestVectorAction:
    def test_middle_generator(self):
        assert act((0, 1, 0, 1, 0, 1), "s2") == (0, 1, 1, 0, 0, 2)

    def test_virtual_fixes_base(self):
        assert act((0, 1, 0, 1, 0, 1), "r1") == (0, 1, 0, 1, 0, 1)
        assert act((0, 1, 0, 1, 0, 1), "r2") == (0, 1, 0, 1, 0, 1)

    def test_first_generator_embeds_quad_action(self):
        assert act((0, 1, 0, 1, 0, 1), "s1") == (1, 0, 0, 2, 0, 1)

    def test_three_strand_words(self):
        assert act((0, 1, 0, 1, 0, 1), "s1 s2 s1") == (2, 0, 1, 0, 0, 3)
        assert act((0, 1, 0, 1, 0, 1), "s1 S2") == (1, 0, -2, 0, 0, 3)

    def test_powers(self):
        assert act((0, 1, 0, 1), "s1^3") == (1, -2, 0, 4)

    def test_mixed_word(self):
        assert act((0, 1, 0, 1), "s1 r1 S1") == (-2, -1, 1, 3)

    def test_burau_kernel_word_has_nonzero_coordinates(self):
        image = act((0, 1, 0, 1), "s1^2 r1 S1 r1 S1 r1 s1^2 r1 S1 r1 S1 r1")
        assert image == (85, 49, -90, -47)

    def test_forbidden_relations_fail(self):
        v = (0, 1, 0, 1, 0, 1)
        assert act(v, "r1 s2 s1") == (2, 0, 0, 1, 0, 2)
        assert act(v, "s2 s1 r2") == (2, 0, 0, 2, 0, 1)
        assert act(v, "r2 s1 s2") == (1, 0, 2, 0, 0, 3)
        assert act(v, "s1 s2 r1") == (2, 0, 1, 0, 0, 3)

    def test_empty_word(self):
        vector = Coordinates.from_entries((5, -3, 2, 9))
        assert act_word(vector, BraidWord(2)) == vector

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            act_word(base_vector(3), parse_word("s1", 2))

    def test_letter_index_out_of_range(self):
        with pytest.raises(ValueError):
            act_word(base_vector(2), BraidWord(2, (Letter(SIGMA, 2),)))


class TestBaseVectorAndEvenSum:
    def test_base_vectors(self):
        assert base_vector(2).entries == (0, 1, 0, 1)
        assert base_vector(3).entries == (0, 1, 0, 1, 0, 1)
        assert base_vector(4).entries == (0, 1, 0, 1, 0, 1, 0, 1)

    def test_even_sum_values(self):
        assert even_sum(Coordinates.from_entries((0, 2, 0, 1))) == 3
        assert even_sum(base_vector(3)) == 3
        assert even_sum(Coordinates.from_entries((85, 49, -90, -47))) == 2

    def test_even_sum_conserved(self):
        rng = random.Random(515)
        # Squares of the drawn words of over 20 letters run to 42-60 letters.
        for word in WORDS + [word * word for word in WORDS if len(word) > 20]:
            vector = Coordinates.from_entries(
                [rng.randint(-(10**6), 10**6) for _ in range(2 * word.strands)]
            )
            assert even_sum(act_word(vector, word)) == even_sum(vector), word


def relation_holds(strands, left, right, vectors):
    w1 = parse_word(left, strands)
    w2 = parse_word(right, strands)
    return all(
        apply_letters(v, w1.letters) == apply_letters(v, w2.letters) for v in vectors
    )


@pytest.fixture(scope="module")
def probe_vectors():
    rng = random.Random(20120)
    return {
        n: [[rng.randint(-(10**6), 10**6) for _ in range(2 * n)] for _ in range(50)]
        for n in (3, 4, 5, 6)
    }


class TestDefiningRelations:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_braid_relation(self, n, probe_vectors):
        for i in range(1, n - 1):
            assert relation_holds(
                n, f"s{i} s{i+1} s{i}", f"s{i+1} s{i} s{i+1}", probe_vectors[n]
            )

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_far_commutation(self, n, probe_vectors):
        pairs = [(i, j) for i in range(1, n) for j in range(i + 2, n)]
        for i, j in pairs:
            for left, right in (
                (f"s{i} s{j}", f"s{j} s{i}"),
                (f"r{i} r{j}", f"r{j} r{i}"),
                (f"s{i} r{j}", f"r{j} s{i}"),
                (f"r{i} s{j}", f"s{j} r{i}"),
            ):
                assert relation_holds(n, left, right, probe_vectors[n])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_symmetric_group_relations(self, n, probe_vectors):
        for i in range(1, n):
            assert relation_holds(n, f"r{i} r{i}", "", probe_vectors[n])
        for i in range(1, n - 1):
            assert relation_holds(
                n, f"r{i} r{i+1} r{i}", f"r{i+1} r{i} r{i+1}", probe_vectors[n]
            )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_mixed_relation_and_equivalent_form(self, n, probe_vectors):
        for i in range(1, n - 1):
            assert relation_holds(
                n, f"r{i} r{i+1} s{i}", f"s{i+1} r{i} r{i+1}", probe_vectors[n]
            )
            assert relation_holds(
                n, f"r{i+1} r{i} s{i+1}", f"s{i} r{i+1} r{i}", probe_vectors[n]
            )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_crossing_inverses(self, n, probe_vectors):
        for i in range(1, n):
            assert relation_holds(n, f"s{i} S{i}", "", probe_vectors[n])
            assert relation_holds(n, f"S{i} s{i}", "", probe_vectors[n])

    def test_word_inverse_restores_every_vector(self):
        rng = random.Random(8)
        from vbraid.words import inverse

        for _ in range(25):
            word = random_reduced_word(4, 30, rng)
            vector = [rng.randint(-(10**6), 10**6) for _ in range(8)]
            roundtrip = apply_letters(
                apply_letters(vector, word.letters), inverse(word).letters
            )
            assert roundtrip == vector


class TestCoordinates:
    def test_csv_roundtrip(self):
        vector = Coordinates.from_csv("0,1,0,1", 2)
        assert vector == base_vector(2)
        assert vector.to_csv() == "0,1,0,1"

    def test_csv_negative_values(self):
        vector = Coordinates.from_entries((85, 49, -90, -47))
        assert vector.to_csv() == "85,49,-90,-47"
        assert Coordinates.from_csv(vector.to_csv(), 2) == vector

    def test_csv_with_strand_count(self):
        assert Coordinates.from_csv("0,1,0,1", 2) == base_vector(2)
        with pytest.raises(ValueError, match="entries"):
            Coordinates.from_csv("0,1,0,1", 3)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: base_vector(300_000_000),
            lambda: Coordinates.from_csv("0,1,0,1", 300_000_000),
            lambda: Coordinates(MAX_STRANDS + 1, (0, 1) * (MAX_STRANDS + 1)),
        ],
        ids=["base_vector", "from_csv", "constructor"],
    )
    def test_strand_cap(self, make, peak_traced_bytes):
        with pytest.raises(ValueError, match=f"at most {MAX_STRANDS}"):
            make()
        assert peak_traced_bytes() < 2**20

    def test_entries_become_a_tuple(self):
        vector = Coordinates(2, [0, 2, 0, 1])
        assert vector.entries == (0, 2, 0, 1)
        assert vector == Coordinates(2, (0, 2, 0, 1))
        assert hash(vector) == hash(Coordinates(2, (0, 2, 0, 1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            Coordinates(2, (0, 1, 0))
        with pytest.raises(ValueError):
            Coordinates.from_entries((1, 2, 3))
        with pytest.raises(ValueError):
            Coordinates.from_csv("1,2,x,4", 2)


BETA = parse_word("s1 r2 s1 S2 s1 s2 S1 r1 s2 r1 s1 r2 S1 r2 S2 S1 s2 S1 r2 S1", 3)
SECOND = parse_word("S2 s1 r2 s2 s1 S2 r2 s1 r2 s2 r1 S2 r1 S1 S2 r2 S1 s2", 3)


def whole_word_probes(letters, width, count, bound, rng):
    """The battery by definition: randint draws, each probe acted on by the
    whole word letter by letter through the references."""
    probes = [[rng.randint(-bound, bound) for _ in range(width)] for _ in range(count)]
    return [p for p in probes if reference_word(p, letters) != tuple(p)]


def battery_words():
    """(width, letters) of words the battery splits as x m x^-1 in every way:
    long conjugators, unreduced ones, an empty core, a core that a cancelling
    pair must keep, and none at all."""
    rng = random.Random(606)
    x = random_reduced_word(3, 6, rng)
    words = [
        (6, BETA.letters),
        (6, SECOND.letters),
        (6, free_reduce(BETA * BETA * BETA).letters),
        (6, (x * inverse(x)).letters),
        (4, parse_word("s1 S1", 2).letters),
        (4, parse_word("r1 r1 r1", 2).letters),
        (6, parse_word("r1", 3).letters),
        (6, parse_word("s2", 3).letters),
        (6, ()),
    ]
    for n in range(2, 6):
        for size in range(9):
            x = random_reduced_word(n, size, rng)
            m = random_reduced_word(n, rng.randint(0, 8), rng)
            words.append((2 * n, (x * m * inverse(x)).letters))
    return words


class TestProbeStream:
    """Probes and the rng state after them are those of the randint stream."""

    @pytest.mark.parametrize("bound", [1, 2, 100, 2**40])
    def test_matches_randint_stream(self, bound):
        moved = 0
        for seed, (width, letters) in enumerate(battery_words()):
            rng = random.Random(seed)
            reference = random.Random(seed)
            expected = whole_word_probes(letters, width, 100, bound, reference)
            assert list(moved_probes(letters, width, 100, bound, rng)) == expected
            assert rng.random() == reference.random()
            moved += len(expected)
        assert moved > 0

    @pytest.mark.parametrize("strands, length, count", [(2, 8, 3), (3, 4, 20)])
    def test_short_words_with_every_pair_map(self, strands, length, count):
        # Every letter tuple of up to ``length`` letters, on probes with
        # entries in [-1, 1], which words fix more often: the core's virtual
        # letters leave the pair map as it is, swap two pairs or cycle three.
        width = 2 * strands
        maps = set()
        for seed, letters in enumerate(every_tuple(strands, length)):
            expected = whole_word_probes(letters, width, count, 1, random.Random(seed))
            assert list(moved_probes(letters, width, count, 1, random.Random(seed))) == expected
            peel = reference_peel(letters)
            at = list(range(0, width, 2))
            action._steps(letters[peel : len(letters) - peel], at)
            maps.add(tuple(at))
        assert len(maps) == math.factorial(strands)

    def test_stopping_early_leaves_the_stream_after_that_probe(self):
        rng = random.Random(4)
        reference = random.Random(4)
        first = next(moved_probes(parse_word("s1", 2).letters, 4, 10, 100, rng))
        assert first == [reference.randint(-100, 100) for _ in range(4)]
        assert rng.random() == reference.random()

    def test_negative_bound_is_rejected(self):
        for bound in (-1, 0):  # a zero bound draws only the zero vector
            with pytest.raises(ValueError, match="positive"):
                next(moved_probes((), 4, 1, bound, random.Random(0)))


def reference_peel(letters):
    """The battery's conjugator length found letter by letter: the longest
    prefix that its mirror-image suffix cancels, stopping before the two
    overlap."""
    last = len(letters) - 1
    peel = 0
    while 2 * peel < last and cancels(letters[peel], letters[last - peel]):
        peel += 1
    return peel


def linear_prefix(a, b):
    """The common prefix length of two tuples, one letter at a time."""
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


ONE_INDEX = [Letter(kind, 1) for kind in (SIGMA, SIGMA_INV, RHO)]
# Every letter tuple of length 0-8 over s1, S1 and r1, reduced or not: the
# two-strand slice of the enumerated words.
SHORT_TUPLES = every_tuple(2, EXHAUSTIVE_LENGTHS[2])


class TestConjugatorSplit:
    """The battery splits its word as x m x^-1 with x the common prefix of
    the word and its inverse, capped at half the word: exhaustively on short
    words, against the split found letter by letter."""

    def test_probes_cross_the_reference_conjugator_once(self, monkeypatch):
        # One step per crossing of x, then of m; the virtual letters run none.
        assert len(SHORT_TUPLES) == 9841
        counter = StepCounter(action._run)
        monkeypatch.setattr(action, "_run", counter)
        for letters in SHORT_TUPLES:
            counter.calls = []
            list(moved_probes(letters, 4, 1, 100, random.Random(0)))
            peel = reference_peel(letters)
            core = letters[peel : len(letters) - peel]
            assert counter.calls == [crossings(letters[:peel]), crossings(core)], letters

    def test_common_prefix_matches_a_linear_scan(self):
        other = {letter: ONE_INDEX[(k + 1) % 3] for k, letter in enumerate(ONE_INDEX)}
        pairs = 0
        for a in SHORT_TUPLES:
            half = a[: len(a) // 2]
            cases = [(a, _inverted(a)), (a, a[::-1]), (a, a), (a, half), (half, a)]
            if a:
                cases.append((a, (other[a[0]],) + a[1:]))
            for left, right in cases:
                assert _common_prefix(left, right) == linear_prefix(left, right)
                pairs += 1
        assert pairs == 6 * 9841 - 1


MIRROR_KIND = {SIGMA: SIGMA_INV, SIGMA_INV: SIGMA, RHO: RHO}


def mirror(letters):
    """The mirror-image word: sigma_i and sigma_i^-1 trade places, rho_i stays."""
    return tuple(Letter(MIRROR_KIND[kind], i) for kind, i in letters)


def mirror_entries(entries):
    """M_n: every a-entry negated, every b-entry kept."""
    return [-x if j % 2 == 0 else x for j, x in enumerate(entries)]


def mirror_words():
    """(strands, letters): the near-kernel words BETA, SECOND and BETA^-1,
    which fix the base vector, then seeded reduced words on 2-6 strands."""
    rng = random.Random(1212)
    words = [(3, BETA.letters), (3, SECOND.letters), (3, inverse(BETA).letters)]
    for n in range(2, 7):
        for _ in range(60):
            words.append((n, random_reduced_word(n, rng.randint(0, 30), rng).letters))
    return words


class TestMirror:
    """The inverse crossing is M o sigma o M, so a word's mirror image acts as
    the word does on the mirrored vector, mirrored back."""

    def test_mirror_word_acts_as_the_mirrored_action(self):
        rng = random.Random(1213)
        for n, letters in mirror_words():
            for _ in range(5):
                p = [rng.randint(-(10**6), 10**6) for _ in range(2 * n)]
                assert apply_letters(p, mirror(letters)) == mirror_entries(
                    apply_letters(mirror_entries(p), letters)
                )

    def test_a_word_fixes_the_start_vectors_exactly_when_its_mirror_does(self):
        fixers = []
        for k, (n, letters) in enumerate(mirror_words()):
            starts = [base_vector(n).entries] + ([VB2_START] if n == 2 else [])
            for start in starts:
                assert mirror_entries(start) == list(start)
                fixed = apply_letters(start, letters) == list(start)
                assert (apply_letters(start, mirror(letters)) == list(start)) == fixed
                if fixed and letters:
                    fixers.append(k)
        assert fixers[:3] == [0, 1, 2]  # BETA, SECOND and BETA^-1 fix the base vector
