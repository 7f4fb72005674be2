import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from vbraid import diagram
from vbraid.action import act_quad, act_sigma, act_sigma_inv
from vbraid.diagram import (
    BOXES,
    arrow_table,
    certify_nontrivial,
    classify,
    l1_norm,
    sample_matching,
    verify_arrow,
    verify_closure,
    verify_diagram,
)
from vbraid.words import RHO, SIGMA, SIGMA_INV, parse_word, random_reduced_word

# sha256 pins of deterministic diagram outputs, fixed before the law checks
# were folded into one routine.
VERIFY_300_17_SHA256 = "6d532292e693d2226c665ba60dc51456586d0b5b3d35593f3c302cbafb91c4f8"
CERTIFY_2000_31_SHA256 = "a30649218a7d91f6909be1b47e92be03c8352a2a255f2ffa06c44564ea5cb2b1"


def sha256_json(payload):
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def pattern_matches(pattern, quad):
    """Whether each entry's sign is one its symbol admits: a reference box
    test from ``diagram._SIGNS`` alone, independent of ``diagram._BOX_OF``."""
    return all((x > 0) - (x < 0) in diagram._SIGNS[s] for s, x in zip(pattern, quad))


def arrow(label):
    matches = [a for a in arrow_table() if a.label == label]
    assert len(matches) >= 1
    return matches[0]


class TestSymbols:
    @pytest.mark.parametrize(
        "symbol, member, nonmember",
        [
            ("0", 0, 1),
            ("+", 3, 0),
            ("-", -2, 0),
            ("+0", 0, -1),
            ("-0", -5, 2),
        ],
    )
    def test_membership(self, symbol, member, nonmember):
        for slot in range(4):
            pattern = ["+0"] * 4
            pattern[slot] = symbol
            quad = [0] * 4
            quad[slot] = member
            assert pattern_matches(tuple(pattern), tuple(quad))
            quad[slot] = nonmember
            assert not pattern_matches(tuple(pattern), tuple(quad))

    def test_pattern_matching(self):
        assert pattern_matches(("+", "+0", "0", "-"), (2, 0, 0, -1))
        assert not pattern_matches(("+", "+0", "0", "-"), (2, 0, 1, -1))


class TestClassify:
    def test_strictly_negative_pair(self):
        assert classify((-1, -1, 0, 4)) == ["B6"]

    def test_start_vector(self):
        assert classify((0, 2, 0, 1)) == ["B1"]

    def test_after_one_crossing(self):
        assert classify((2, 0, 0, 3)) == ["B2"]

    def test_outside_the_diagram(self):
        assert classify((7, 1, 4, 1)) == []
        assert classify((0, 0, 0, 0)) == []

    def test_boxes_are_pairwise_disjoint(self):
        # Membership depends only on the signs, so the 81 sign vectors
        # cover every quadruple.
        hits = [classify(signs) for signs in itertools.product((-1, 0, 1), repeat=4)]
        inside = [names for names in hits if names]
        assert len(inside) == 13
        assert all(len(names) == 1 for names in inside)
        assert {names[0] for names in inside} == set(BOXES)
        # The box table agrees with a scan of the nine patterns, on each sign
        # vector at magnitude 1 and at a random magnitude.
        rng = random.Random(37)
        for signs in itertools.product((-1, 0, 1), repeat=4):
            for quad in (signs, tuple(s * rng.randint(1, 10**9) for s in signs)):
                scan = [name for name, p in BOXES.items() if pattern_matches(p, quad)]
                assert classify(quad) == scan


class TestArrowTable:
    def test_counts(self):
        arrows = arrow_table()
        assert len(arrows) == 19
        crossing = [a for a in arrows if a.generator != RHO]
        virtual = [a for a in arrows if a.generator == RHO]
        assert len(crossing) == 14
        assert sorted(a.case for a in crossing) == list(range(1, 15))
        assert len(virtual) == 5
        assert {(a.source, a.target) for a in virtual} == {
            ("B1", "B1"),
            ("B2", "B4"),
            ("B3", "B5"),
            ("B6", "B8"),
            ("B7", "B9"),
        }

    def test_closed_form_spot_values(self):
        assert arrow("2").closed_form(0, 2, 0, 1) == (2, 0, 0, 3)
        assert arrow("1").closed_form(0, 2, 0, 1) == (-2, 0, 0, 3)
        assert arrow("3").closed_form(-2, 0, 0, 3) == (-2, -2, 0, 5)
        assert arrow("9").closed_form(-1, -1, 0, 4) == (-1, -2, 0, 5)

    def test_case_13_sample(self):
        image = arrow("13").closed_form(-1, 2, 3, -4)
        assert image == (5, -4, -5, 2)
        assert image == act_sigma((-1, 2, 3, -4))
        assert l1_norm(image) == 16 > 10 == l1_norm((-1, 2, 3, -4))

    def test_case_9_image_stays_in_box(self):
        image = act_sigma_inv((-1, -1, 0, 4))
        assert image == (-1, -2, 0, 5)
        assert pattern_matches(BOXES["B6"], image)

    @pytest.mark.parametrize("a", arrow_table(), ids=lambda a: a.describe())
    def test_every_arrow_on_samples(self, a):
        check = verify_arrow(a, 400, random.Random(hash(a.describe()) & 0xFFFF))
        assert check.ok, check.as_dict()


FLIP = {"0": "0", "+": "-", "-": "+", "+0": "-0", "-0": "+0"}


def mirror_quad(quad):
    """M(a, b, c, d) = (-a, b, -c, d), which carries sigma onto sigma^-1."""
    a, b, c, d = quad
    return (-a, b, -c, d)


def mirror_box(name):
    """The box whose pattern is M of the named one: entries 1 and 3 flip sign."""
    s1, s2, s3, s4 = BOXES[name]
    pattern = (FLIP[s1], s2, FLIP[s3], s4)
    (image,) = [other for other, p in BOXES.items() if p == pattern]
    return image


class TestMirrorPairs:
    """The fourteen crossing arrows are seven mirror pairs: each sigma^-1
    arrow is M o (the sigma arrow out of its mirrored source) o M."""

    def pairs(self):
        out_of = {(a.source, a.generator): a for a in arrow_table()}
        inverse_arrows = [a for a in arrow_table() if a.generator == SIGMA_INV]
        return [(g, out_of[mirror_box(g.source), SIGMA]) for g in inverse_arrows]

    def test_mirror_swaps_the_boxes(self):
        assert {name: mirror_box(name) for name in BOXES} == {
            "B1": "B1",
            "B2": "B3", "B3": "B2",
            "B4": "B5", "B5": "B4",
            "B6": "B7", "B7": "B6",
            "B8": "B9", "B9": "B8",
        }

    def test_seven_pairs(self):
        pairs = self.pairs()
        assert sorted((g.case, f.case) for g, f in pairs) == [
            (1, 2), (3, 4), (5, 6), (8, 7), (9, 12), (10, 13), (14, 11)
        ]
        for g, f in pairs:
            assert mirror_box(f.target) == g.target

    def test_closed_forms_are_mirror_images(self):
        grid = list(itertools.product(range(-5, 6), repeat=4))
        for g, f in self.pairs():
            points = [q for q in grid if pattern_matches(BOXES[g.source], q)]
            assert points
            for q in points:
                assert g.closed_form(*q) == mirror_quad(f.closed_form(*mirror_quad(q)))


class Undecided(Exception):
    """A comparison whose answer the box's signs leave open."""


class Form:
    """The linear form k_a a + k_b b + k_c c + k_d d on the quadruples
    matching one sign pattern.

    The coordinates are independent, unbounded integers, so the pattern's
    symbols give each term k x its exact set of signs; ``signs`` is then
    exact for a form whose terms all take one sign, and a superset
    otherwise.  A comparison the set leaves open raises Undecided.
    """

    def __init__(self, coefficients, pattern):
        self.k = tuple(coefficients)
        self.pattern = pattern

    def lift(self, x):
        if isinstance(x, Form):
            return x
        if x == 0:
            return Form((0, 0, 0, 0), self.pattern)
        raise TypeError(f"only the constant 0 is a form, not {x!r}")

    def __add__(self, other):
        other = self.lift(other)
        return Form((p + q for p, q in zip(self.k, other.k)), self.pattern)

    __radd__ = __add__

    def __neg__(self):
        return Form((-p for p in self.k), self.pattern)

    def __sub__(self, other):
        return self + -self.lift(other)

    def __rsub__(self, other):
        return -self + other

    def signs(self):
        terms = [
            {s if k > 0 else -s for s in diagram._SIGNS[symbol]}
            for k, symbol in zip(self.k, self.pattern)
            if k and symbol != "0"
        ]
        if not terms:
            return {0}
        positive = any(1 in term for term in terms)
        negative = any(-1 in term for term in terms)
        if positive and negative:
            return {-1, 0, 1}
        sign = 1 if positive else -1
        return {sign} if any(0 not in term for term in terms) else {0, sign}

    def _decide(self, other, test):
        answers = {test(s) for s in (self - other).signs()}
        if len(answers) != 1:
            raise Undecided(f"{self.k} vs {self.lift(other).k} on {self.pattern}")
        return answers.pop()

    def __lt__(self, other):
        return self._decide(other, lambda s: s < 0)

    def __gt__(self, other):
        return self._decide(other, lambda s: s > 0)

    def __eq__(self, other):
        return (self - other).signs() == {0}

    def __abs__(self):
        if self.signs() <= {0, 1}:
            return self
        if self.signs() <= {-1, 0}:
            return -self
        raise Undecided(f"|{self.k}| on {self.pattern}")


def coordinate_forms(pattern):
    """The four coordinates a, b, c and d as forms on the pattern."""
    return tuple(Form((int(i == j) for j in range(4)), pattern) for i in range(4))


def exact_image(arrow):
    """The source box's coordinates and their image under the arrow's letter,
    every entry a form on the source box."""
    quad = coordinate_forms(BOXES[arrow.source])
    return quad, tuple(quad[0].lift(x) for x in act_quad(arrow.generator, quad))


class TestExactArrows:
    """A proof of every arrow, not a sample: on the source box the box's
    signs decide each comparison the crossing makes, so ``act_quad`` runs
    unchanged on linear forms and the arrow is one linear map."""

    @pytest.mark.parametrize("a", arrow_table(), ids=lambda a: a.describe())
    def test_arrow_is_one_linear_map_obeying_every_law(self, a):
        quad, image = exact_image(a)
        assert image == a.closed_form(*quad)
        for entry, symbol in zip(image, BOXES[a.target]):
            assert entry.signs() <= set(diagram._SIGNS[symbol])
        growth = sum(abs(x) for x in image) - sum(abs(x) for x in quad)
        assert growth.signs() == ({0} if a.generator == RHO else {1})
        assert image[1] + image[3] == quad[1] + quad[3]

    def test_the_forms_cannot_decide_a_crossing_outside_the_diagram(self):
        with pytest.raises(Undecided):
            act_quad(SIGMA, coordinate_forms(("+", "+", "+", "+")))

    @pytest.mark.parametrize("a", arrow_table(), ids=lambda a: a.describe())
    def test_a_closed_form_with_b_and_d_swapped_fails(self, a):
        quad, image = exact_image(a)
        assert image != a.closed_form(quad[0], quad[3], quad[2], quad[1])


def reference_sample(pattern, rng):
    """``sample_matching`` as a ``draw`` closure over ``rng.randint``."""

    def draw(symbol):
        signs = diagram._SIGNS[symbol]
        if signs == (0,) or 0 in signs and rng.random() < 0.25:
            return 0
        size = 1 if rng.random() < 0.25 else rng.randint(1, 10**6)
        return size if 1 in signs else -size

    s1, s2, s3, s4 = pattern
    return (draw(s1), draw(s2), draw(s3), draw(s4))


class CountingRandom(random.Random):
    """A Random that counts its 20-bit draws of 10^6 or more."""

    redraws = 0

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.redraws += k == 20 and r >= 10**6
        return r


class TestSampling:
    @pytest.mark.parametrize("seed", [3, 59, 2027])
    def test_stream_matches_the_randint_reference(self, seed):
        for pattern in BOXES.values():
            rng, reference = CountingRandom(seed), random.Random(seed)
            for _ in range(1000):
                assert sample_matching(pattern, rng) == reference_sample(pattern, reference)
            assert rng.getstate() == reference.getstate()
            assert rng.redraws > 0

    def test_respects_pattern(self):
        rng = random.Random(4)
        for pattern in BOXES.values():
            for _ in range(200):
                assert pattern_matches(pattern, sample_matching(pattern, rng))

    def test_half_line_symbols_hit_their_boundary(self):
        rng = random.Random(9)
        samples = [sample_matching(("+0", "+", "-", "-"), rng) for _ in range(200)]
        assert any(s[0] == 0 for s in samples)
        assert any(s[0] > 1000 for s in samples)
        assert any(s[0] == 1 for s in samples)


class TestClosure:
    def test_diagram_is_closed(self):
        assert verify_closure().ok

    def test_successors_of_b2(self):
        # reached by crossings only, so sigma and rho successors suffice
        sources = {(a.source, a.generator) for a in arrow_table()}
        assert ("B2", SIGMA) in sources
        assert ("B2", RHO) in sources

    def test_successors_of_b8(self):
        # reached by rho only, so both crossing successors must exist
        sources = {(a.source, a.generator) for a in arrow_table()}
        assert ("B8", SIGMA) in sources
        assert ("B8", SIGMA_INV) in sources

    def test_start_box_has_all_generators(self):
        sources = {(a.source, a.generator) for a in arrow_table()}
        for kind in (SIGMA, SIGMA_INV, RHO):
            assert ("B1", kind) in sources


class TestNorm:
    def test_values(self):
        assert l1_norm((7, 4, 1, 1)) == 13
        assert l1_norm((3, 1, 6, 1)) == 11
        assert l1_norm((0, 0, 0, 0)) == 0

    def test_norm_can_drop_outside_the_diagram(self):
        # negative control: monotonicity is a property of the nine regions,
        # not of arbitrary quadruples (13 -> 11 here)
        start = (7, 1, 4, 1)
        assert classify(start) == []
        image = act_sigma_inv(start)
        assert image == (3, 1, 6, 1)
        assert l1_norm(image) == 11 < 13 == l1_norm(start)


class TestVerifyDiagram:
    def test_full_report(self):
        report = verify_diagram(300, random.Random(17))
        assert report.ok
        payload = report.as_dict()
        assert payload["pass"] is True
        assert len(payload["arrows"]) == 19
        assert payload["closure"]["pass"] is True
        assert sha256_json(payload) == VERIFY_300_17_SHA256

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            verify_arrow(arrow_table()[0], 0, random.Random(0))


def forge(monkeypatch, label, image=None, **changes):
    """Arrow ``label`` with its fields changed.  With ``image``, that map is
    both the forged arrow's closed form and the action the diagram sees for
    the arrow's generator on its source box."""
    forged = dataclasses.replace(arrow(label), **changes)
    if image is not None:
        forged = dataclasses.replace(forged, closed_form=image)
        source = BOXES[forged.source]

        def act(kind, quad):
            if kind == forged.generator and pattern_matches(source, quad):
                return image(*quad)
            return act_quad(kind, quad)

        monkeypatch.setattr(diagram, "act_quad", act)
    monkeypatch.setitem(diagram._ARROW_FROM, (forged.source, forged.generator), forged)
    return forged


def shifted_d(a, b, c, d):
    """Arrow 2's closed form (b, 0, 0, b + d) with 1 added to d."""
    return (b, 0, 0, b + d + 1)


# One forged arrow per law: (law, arrow label, forged fields, word whose last
# step takes the arrow).  Each breaks exactly that law on every sample.
BROKEN = [
    ("closed form", "2", dict(closed_form=shifted_d), "r1 s1"),
    ("target box", "2", dict(target="B3"), "r1 s1"),
    ("norm", "9", dict(image=lambda a, b, c, d: (a, b, c, d)), "S1 S1 S1"),
    ("b + d", "2", dict(image=shifted_d), "r1 s1"),
]
LAW_IDS = ["closed-form", "target-box", "norm", "pair-sum"]


class TestViolations:
    @pytest.mark.parametrize("law, label, changes, word", BROKEN, ids=LAW_IDS)
    def test_verify_arrow_counts_each_law(self, monkeypatch, law, label, changes, word):
        forged = forge(monkeypatch, label, **changes)
        check = verify_arrow(forged, 40, random.Random(5))
        flags = [name == law for name in ("closed form", "target box", "norm", "b + d")]
        assert check.violations == tuple(40 * flag for flag in flags)
        assert not check.ok
        source = BOXES[forged.source]
        assert check.counterexample == sample_matching(source, random.Random(5))
        payload = check.as_dict()
        assert payload["pass"] is False
        assert list(payload)[6:10] == [
            "closed_form_mismatches",
            "target_escapes",
            "norm_violations",
            "pair_sum_violations",
        ]

    def test_verify_arrow_counts_only_breaking_samples(self, monkeypatch):
        # The closed form is off only where b == 1, about one sample in four.
        forged = forge(
            monkeypatch, "2", closed_form=lambda a, b, c, d: (b, 0, 0, b + d + (b == 1))
        )
        check = verify_arrow(forged, 200, random.Random(8))
        rng = random.Random(8)
        samples = [sample_matching(BOXES["B1"], rng) for _ in range(200)]
        breaking = [quad for quad in samples if quad[1] == 1]
        assert 0 < len(breaking) < 200
        assert check.violations == (len(breaking), 0, 0, 0)
        assert check.counterexample == breaking[0]

    @pytest.mark.parametrize("law, label, changes, word", BROKEN, ids=LAW_IDS)
    def test_certificate_names_step_arrow_and_law(
        self, monkeypatch, law, label, changes, word
    ):
        forged = forge(monkeypatch, label, **changes)
        cert = certify_nontrivial(parse_word(word, 2))
        steps = len(word.split())
        assert cert.violation == (
            f"step {steps}: arrow {forged.describe()} breaks the {law} law"
        )
        assert not cert.trivial
        assert len(cert.boxes) == len(cert.norms) == steps

    def test_certificate_reports_a_missing_arrow(self, monkeypatch):
        monkeypatch.delitem(diagram._ARROW_FROM, ("B3", SIGMA_INV))
        cert = certify_nontrivial(parse_word("S1 S1", 2))
        assert cert.violation == "step 2: no sigma^-1 arrow out of B3"
        assert cert.boxes == ("B1", "B3")
        assert not cert.trivial
        assert not verify_closure().ok


def certified_nontrivial(cert):
    return not cert.trivial and cert.violation is None


class TestCertify:
    def test_single_crossing(self):
        cert = certify_nontrivial(parse_word("s1", 2))
        assert certified_nontrivial(cert)
        assert cert.image == (2, 0, 0, 3)
        assert cert.boxes == ("B1", "B2")
        assert cert.norms == (3, 5)

    def test_empty_word_trivial(self):
        cert = certify_nontrivial(parse_word("", 2))
        assert cert.trivial
        assert cert.image == (0, 2, 0, 1)
        assert cert.boxes == ("B1",)
        assert cert.norms == (3,)
        assert cert.violation is None

    def test_single_virtual_letter(self):
        cert = certify_nontrivial(parse_word("r1", 2))
        assert certified_nontrivial(cert)
        assert cert.image == (0, 1, 0, 2)
        assert cert.boxes == ("B1", "B1")
        assert cert.norms == (3, 3)

    def test_conjugated_crossing(self):
        cert = certify_nontrivial(parse_word("s1 r1 S1", 2))
        assert certified_nontrivial(cert)
        assert cert.image != (0, 2, 0, 1)
        assert cert.boxes == ("B1", "B2", "B4", "B6")

    def test_word_reducing_to_identity(self):
        cert = certify_nontrivial(parse_word("s1 r1 r1 S1", 2))
        assert cert.trivial

    def test_norms_increase_along_crossings(self):
        rng = random.Random(23)
        for _ in range(300):
            word = random_reduced_word(2, rng.randint(1, 50), rng)
            cert = certify_nontrivial(word)
            assert cert.violation is None
            assert not cert.trivial
            assert cert.image != cert.start
            for (kind, _), before, after in zip(
                cert.reduced.letters, cert.norms, cert.norms[1:]
            ):
                if kind == RHO:
                    assert after == before
                else:
                    assert after > before

    def test_seeded_batch_is_pinned(self):
        rng = random.Random(31)
        batch = []
        for _ in range(2000):
            cert = certify_nontrivial(random_reduced_word(2, rng.randint(1, 50), rng))
            batch.append([list(cert.image), list(cert.boxes), list(cert.norms), cert.violation])
        assert sha256_json(batch) == CERTIFY_2000_31_SHA256

    def test_final_box_matches_image(self):
        rng = random.Random(29)
        for _ in range(200):
            word = random_reduced_word(2, rng.randint(1, 40), rng)
            cert = certify_nontrivial(word)
            assert classify(cert.image) == [cert.boxes[-1]]

    def test_a_list_start_gives_the_tuple_certificate(self):
        word = parse_word("s1 r1", 2)
        cert = certify_nontrivial(word, start=[0, 2, 0, 1])
        assert cert == certify_nontrivial(word, start=(0, 2, 0, 1))
        assert cert.start == (0, 2, 0, 1)
        assert hash(cert) == hash(certify_nontrivial(word))

    def test_a_list_start_is_checked_for_a_return(self, monkeypatch):
        forge(monkeypatch, "rho", image=lambda a, b, c, d: (a, b, c, d))
        cert = certify_nontrivial(parse_word("r1", 2), start=[0, 2, 0, 1])
        assert cert.violation == "nonempty reduced word returned to the start vector"

    def test_alternate_start_vectors(self):
        cert = certify_nontrivial(parse_word("r1", 2), start=(0, 5, 0, 2))
        assert certified_nontrivial(cert)
        assert cert.image == (0, 2, 0, 5)

    @pytest.mark.parametrize(
        "start", [(0, 2, 0, 2), (1, 2, 0, 1), (0, 0, 0, 1), (0, 2, 0, -1), (0, 2, 1, 3)]
    )
    def test_rejects_bad_start_vectors(self, start):
        with pytest.raises(ValueError):
            certify_nontrivial(parse_word("s1", 2), start=start)

    @pytest.mark.parametrize(
        "start", [(0, 2, 0), (0, 2, 0, 1, 5), ("0", "2", "0", "1"), (0, 2.0, 0, 1), ()]
    )
    def test_rejects_starts_that_are_not_four_integers(self, start):
        with pytest.raises(ValueError, match=r"start vector must be \(0, x, 0, y\)"):
            certify_nontrivial(parse_word("s1", 2), start=start)

    def test_start_rule_on_the_sign_grid(self):
        # A start is taken exactly when its signs are (0, +, 0, +) and b != d;
        # the large magnitudes, drawn per entry, make b != d likely.
        word = parse_word("s1 r1 S1", 2)
        rng = random.Random(47)
        starts = [(0, k, 0, k) for k in (2, 7, 10**30)]
        for signs in itertools.product((-1, 0, 1), repeat=4):
            starts.append(signs)
            starts.append(tuple(s * rng.randint(1, 10**30) for s in signs))
        taken = 0
        for start in starts:
            a, b, c, d = start
            if a == c == 0 and b > 0 and d > 0 and b != d:
                assert certified_nontrivial(certify_nontrivial(word, start))
                taken += 1
            else:
                with pytest.raises(ValueError, match="start vector"):
                    certify_nontrivial(word, start)
        assert taken == 1

    def test_rejects_other_strand_counts(self):
        with pytest.raises(ValueError):
            certify_nontrivial(parse_word("s1", 3))

    def test_rejects_a_reduced_word_over_the_cap(self):
        cap = diagram.MAX_CERTIFY_LETTERS
        with pytest.raises(ValueError, match=f"at most {cap} reduced letters, got {cap + 1}"):
            certify_nontrivial(parse_word(f"s1^{cap + 1}", 2))
        # Only the reduced length counts.
        assert certified_nontrivial(certify_nontrivial(parse_word(f"s1^{cap} r1 r1 S1 s1", 2)))

    def test_a_word_at_the_cap_certifies_in_bounded_memory(self, peak_traced_bytes):
        word = random_reduced_word(2, diagram.MAX_CERTIFY_LETTERS, random.Random(41))
        cert = certify_nontrivial(word)
        assert certified_nontrivial(cert)
        assert len(cert.norms) == diagram.MAX_CERTIFY_LETTERS + 1
        assert peak_traced_bytes() < 16 * 2**20
