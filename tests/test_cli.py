import argparse
import hashlib
import json
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import vbraid.cli
from vbraid import diagram
from vbraid.cli import main
from vbraid.hunt import HuntReport
from vbraid.wordproblem import distinguish_vbn
from vbraid.words import (
    MAX_STRANDS,
    SIGMA,
    SIGMA_INV,
    BraidWord,
    format_word,
    parse_word,
    random_reduced_word,
)
from test_diagram import forge, shifted_d

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"
BURAU_KERNEL_WORD = "s1^2 r1 S1 r1 S1 r1 s1^2 r1 S1 r1 S1 r1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = vbraid.cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def readme_vbraid_lines() -> list[str]:
    """The README's `vbraid` command lines, continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line.startswith("vbraid ")]


class TestAct:
    def test_base_vector(self, capsys):
        code, out, _ = run(capsys, "act", "--n", "2", "--vector", "base", "--word", "s1")
        assert code == 0
        assert out == "1,0,0,2\n"

    def test_csv_vector(self, capsys):
        code, out, _ = run(
            capsys, "act", "--n", "2", "--vector", "0,2,0,1", "--word", "s1 r1"
        )
        assert code == 0
        assert out == "0,3,2,0\n"

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "act", "--n", "3", "--vector", "base", "--word", "")
        assert code == 0
        assert out == "0,1,0,1,0,1\n"

    def test_burau_kernel_word(self, capsys):
        code, out, _ = run(
            capsys, "act", "--n", "2", "--vector", "base", "--word", BURAU_KERNEL_WORD
        )
        assert code == 0
        assert out == "85,49,-90,-47\n"

    def test_bad_token_exits_1(self, capsys):
        code, _, err = run(capsys, "act", "--n", "2", "--vector", "base", "--word", "s9")
        assert code == 1
        assert "s9" in err

    def test_vector_length_mismatch_exits_1(self, capsys):
        code, _, err = run(capsys, "act", "--n", "3", "--vector", "0,1", "--word", "s1")
        assert code == 1
        assert "entries" in err


def eq_pairs():
    """A fixed batch of (n, w1, w2): 2-strand, classical and virtual words on
    2-5 strands, paired with themselves, with an independent word, with a
    relator inserted and with one letter inverted."""
    rng = random.Random(20261018)
    pairs = []
    for n in (2, 3, 4, 5):
        relators = [f"s{i} s{i+1} s{i} S{i+1} S{i} S{i+1}" for i in range(1, n - 1)]
        relators += [f"s{i} s{j} S{i} S{j}" for i in range(1, n) for j in range(i + 2, n)]
        relators += [f"r{i} r{i+1} s{i} r{i+1} r{i} S{i+1}" for i in range(1, n - 1)]
        relators += [f"s{i} r{j} S{i} r{j}" for i in range(1, n) for j in range(i + 2, n)]
        relators += [f"S{i} s{i}" for i in range(1, n)] + [f"r{i} r{i}" for i in range(1, n)]
        for virtual in (False, True):
            usable = [r for r in relators if virtual or "r" not in r]
            for case in range(12):
                w1 = random_reduced_word(n, rng.randint(0, 12), rng, virtual=virtual)
                if case % 4 == 0:
                    w2 = w1
                elif case % 4 == 1:
                    w2 = random_reduced_word(n, rng.randint(0, 12), rng, virtual=virtual)
                elif case % 4 == 2:
                    cut = rng.randint(0, len(w1))
                    inserted = parse_word(rng.choice(usable), n).letters
                    w2 = BraidWord(n, w1.letters[:cut] + inserted + w1.letters[cut:])
                else:
                    letters = list(w1.letters) or [parse_word("s1", n).letters[0]]
                    at = rng.randrange(len(letters))
                    letters[at] = letters[at].inverse()
                    w2 = BraidWord(n, tuple(letters))
                pairs.append((n, format_word(w1), format_word(w2)))
    return pairs


class TestEq:
    def test_outputs_match_pin(self, capsys):
        # Computed with the decider named by the words: --group vb2 on 2
        # strands, bn for classical words, vbn (seeded) otherwise.  The batch
        # gives 50 Equal, 43 Distinct and 3 Unknown verdicts.
        digest = hashlib.sha256()
        for k, (n, w1, w2) in enumerate(eq_pairs()):
            argv = ["eq", "--n", str(n), "--w1", w1, "--w2", w2, "--battery", "50"]
            if n > 2 and "r" in w1 + w2:
                argv += ["--seed", str(k)]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == (
            "0ae33eefac617d8d7d98d44403fe2e054f5781fbffea5c991f57c35a90186d98"
        )

    def test_vbn_forbidden_relation(self, capsys):
        code, out, _ = run(
            capsys,
            "eq", "--n", "3", "--w1", "r1 s2 s1", "--w2", "s2 s1 r2", "--seed", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Distinct"
        assert "2,0,0,1,0,2 vs 2,0,0,2,0,1" in lines[-1]

    def test_bn_braid_relation(self, capsys):
        code, out, _ = run(
            capsys, "eq", "--n", "3", "--w1", "s1 s2 s1", "--w2", "s2 s1 s2"
        )
        assert code == 0
        assert out.splitlines()[0] == "Equal"
        assert "separates distinct braids" in out

    def test_vb2(self, capsys):
        code, out, _ = run(capsys, "eq", "--n", "2", "--w1", "r1 r1", "--w2", "")
        assert code == 0
        assert out.splitlines()[0] == "Equal"

    def test_two_strand_virtual_pair_is_decided(self, capsys):
        code, out, _ = run(capsys, "eq", "--n", "2", "--w1", "r1", "--w2", "")
        assert code == 0
        assert out.splitlines() == [
            "Distinct",
            "witness: vector 0,2,0,1 is moved differently",
            "images: 0,1,0,2 vs 0,2,0,1",
        ]

    def test_vbn_unknown(self, capsys):
        # conjugation by a virtual letter: not freely equal, agrees everywhere tested
        code, out, _ = run(
            capsys,
            "eq", "--n", "3", "--w1", "r2 s1 r2", "--w2", "r2 s1 r2 r1 r1",
            "--battery", "50", "--seed", "8",
        )
        assert code == 0
        assert out.splitlines()[0] in {"Equal", "Unknown"}

    def test_classical_pair_needs_no_seed(self, capsys):
        code, out, _ = run(capsys, "eq", "--n", "3", "--w1", "s1", "--w2", "s2")
        assert code == 0
        assert out.splitlines()[0] == "Distinct"

    def test_vbn_requires_seed(self, capsys):
        code, out, err = run(capsys, "eq", "--n", "3", "--w1", "r1", "--w2", "r2")
        assert code == 1
        assert out == ""
        assert "--seed" in err

    def test_vbn_battery_requires_seed(self, capsys):
        code, out, err = run(
            capsys, "eq", "--n", "3", "--w1", "r1", "--w2", "r2", "--battery", "5"
        )
        assert code == 1
        assert out == ""
        assert "--seed" in err

    def test_vbn_without_battery_needs_no_seed(self, capsys):
        code, out, err = run(
            capsys, "eq", "--n", "3", "--w1", "r1", "--w2", "r2", "--battery", "0"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["Distinct", "witness: strand permutations differ"]

    def test_vbn_unknown_without_battery_needs_no_seed(self, capsys):
        # r1 r2 s1 r2 r1 = s2 by the mixed relation: nothing but a battery
        # could tell the two words apart, and none is drawn
        code, out, err = run(
            capsys,
            "eq", "--n", "3", "--w1", "r1 r2 s1 r2 r1", "--w2", "s2", "--battery", "0",
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "Unknown"
        assert "0 random probes" in lines[1]

    def test_vbn_negative_battery_exits_1(self, capsys):
        # The virtual branch, then the two complete deciders, which never run
        # the battery but reject the flag all the same.
        for n, w1, w2 in [("3", "r1 s2 s1", "s2 s1 r2"), ("2", "s1", "s1"), ("3", "s1", "s2")]:
            code, out, err = run(
                capsys, "eq", "--n", n, "--w1", w1, "--w2", w2, "--battery", "-5", "--seed", "1"
            )
            assert code == 1
            assert out == ""
            assert "battery" in err

    def test_prints_the_verdict_of_distinguish_vbn(self, capsys):
        for k, (n, w1, w2) in enumerate(eq_pairs()):
            verdict = distinguish_vbn(
                parse_word(w1, n), parse_word(w2, n), 50, random.Random(k)
            )
            lines = [verdict.status.value.capitalize()]
            if verdict.witness:
                lines.append(f"witness: {verdict.witness}")
            if verdict.images is not None:
                left, right = (",".join(map(str, side)) for side in verdict.images)
                lines.append(f"images: {left} vs {right}")
            argv = ["eq", "--n", str(n), "--w1", w1, "--w2", w2, "--battery", "50"]
            code, out, err = run(capsys, *argv, "--seed", str(k))
            assert (code, out.splitlines(), err) == (0, lines, ""), (n, w1, w2)

    def test_group_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eq", "--group", "bn", "--n", "3", "--w1", "s1", "--w2", "s1"])
        assert info.value.code == 1
        assert "vbraid eq: error: unrecognized arguments: --group bn" in capsys.readouterr().err


class TestSmallCommands:
    def test_perm(self, capsys):
        code, out, _ = run(capsys, "perm", "--n", "3", "--word", "s1 s2 s1")
        assert code == 0
        assert out == "3 2 1\n"

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "--word", "s1 S1 r2 r2")
        assert code == 0
        assert out == "\n"

    def test_huge_exponent_exits_1(self, capsys):
        code, out, err = run(capsys, "reduce", "--word", "s1^100000000000000000000")
        assert code == 1
        assert out == ""
        assert "letters" in err

    def test_oversized_exponent_exits_1(self, capsys):
        code, out, err = run(capsys, "reduce", "--word", "s1^" + "1" * 5000)
        assert code == 1
        assert out == ""
        assert "token 1" in err

    def test_oversized_index_exits_1(self, capsys):
        code, _, err = run(
            capsys, "act", "--n", "3", "--vector", "base", "--word", "s1 s" + "1" * 5000
        )
        assert code == 1
        assert "token 2" in err

    def test_negative_probe_bound_exits_1(self, capsys):
        code, _, _ = run(
            capsys, "moved-fraction", "--word", "s1", "--bound", "-1", "--seed", "1"
        )
        assert code == 1

    def test_zero_probe_bound_exits_1(self, capsys):
        # every probe would be the zero vector, which every word fixes
        code, out, err = run(
            capsys, "moved-fraction", "--word", "s1", "--bound", "0", "--seed", "1"
        )
        assert (code, out) == (1, "")
        assert "probe bound must be positive" in err

    def test_reduce_partial(self, capsys):
        code, out, _ = run(capsys, "reduce", "--n", "3", "--word", "s1 r2 r2 s2")
        assert code == 0
        assert out == "s1 s2\n"

    def test_moved_fraction_identity(self, capsys):
        code, out, _ = run(
            capsys,
            "moved-fraction", "--n", "2", "--word", "",
            "--samples", "50", "--seed", "3",
        )
        assert code == 0
        assert out == "0.0\n"


class TestCertify:
    def test_nontrivial(self, capsys):
        code, out, _ = run(capsys, "certify", "--word", "s1")
        assert code == 0
        assert "nontrivial" in out
        assert "path: B1 -> B2" in out
        assert "image: 2,0,0,3" in out
        assert "norms: 3 5" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "certify", "--word", "s1 S1")
        assert code == 0
        assert out == "Trivial\n"

    def test_custom_start(self, capsys):
        code, out, _ = run(capsys, "certify", "--word", "r1", "--start", "0,5,0,2")
        assert code == 0
        assert "image: 0,2,0,5" in out

    def test_short_start_exits_1(self, capsys):
        code, _, err = run(capsys, "certify", "--word", "s1", "--start", "0,2,0")
        assert code == 1
        assert "entries" in err

    def test_bad_start_exits_1(self, capsys):
        code, _, err = run(capsys, "certify", "--word", "s1", "--start", "0,2,0,2")
        assert code == 1
        assert "start vector" in err

    def test_a_word_over_the_certification_cap_exits_1(self, capsys):
        cap = diagram.MAX_CERTIFY_LETTERS
        code, out, err = run(capsys, "certify", "--word", f"s1^{cap + 1}")
        assert code == 1
        assert out == ""
        assert f"at most {cap} reduced letters" in err

    def test_violation_exits_2(self, capsys, monkeypatch):
        monkeypatch.delitem(diagram._ARROW_FROM, ("B1", SIGMA))
        code, out, err = run(capsys, "certify", "--word", "r1 s1")
        assert code == 2
        assert out == ""
        assert err == "VIOLATION: step 2: no sigma arrow out of B1\n"


def must_not_run(*args, **kwargs):
    raise AssertionError("the work started before its output file was opened")


class TestVerifyDiagram:
    def test_passes(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify-diagram", "--samples", "120", "--seed", "6", "--json", str(path),
        )
        assert code == 0
        assert out.count("ok") == 19
        assert "closure: complete" in out
        payload = json.loads(path.read_text())
        assert payload["pass"] is True

    def test_a_failing_arrow_exits_2(self, capsys, tmp_path, monkeypatch):
        # The action on arrow 2's source box is off by one in d.
        forge(monkeypatch, "2", image=shifted_d)
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify-diagram", "--samples", "20", "--seed", "6", "--json", str(path),
        )
        assert code == 2
        failing = [line for line in out.splitlines() if "FAIL" in line]
        assert len(failing) == 1
        assert failing[0].startswith("arrow 2: B1 --sigma--> B2: 20 samples FAIL counterexample=")
        assert "closure: complete" in out
        assert json.loads(path.read_text())["pass"] is False

    def test_a_missing_arrow_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delitem(diagram._ARROW_FROM, ("B3", SIGMA_INV))
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify-diagram", "--samples", "20", "--seed", "6", "--json", str(path),
        )
        assert code == 2
        assert out.count(" ok\n") == 19
        assert out.endswith("closure: MISSING sigma^-1 arrow out of B3\n")
        assert json.loads(path.read_text())["pass"] is False

    def test_unwritable_json_fails_before_the_check(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(vbraid.cli, "verify_diagram", must_not_run)
        path = tmp_path / "missing" / "report.json"
        code, out, err = run(
            capsys, "verify-diagram", "--samples", "10", "--seed", "6", "--json", str(path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("vbraid verify-diagram: error: ")
        assert "No such file or directory" in err


class TestHunt:
    def test_writes_deterministic_report(self, capsys, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        argv = [
            "hunt", "--n", "3", "--count", "800", "--length", "1:12",
            "--seed", "5", "--battery", "40",
        ]
        code, out, _ = run(capsys, *argv, "--out", str(first))
        assert code == 0
        assert "tested 800 words" in out
        code, _, _ = run(capsys, *argv, "--out", str(second), "--workers", "2")
        assert code == 0
        one = json.loads(first.read_text())
        two = json.loads(second.read_text())
        one.pop("runtime_seconds")
        two.pop("runtime_seconds")
        assert one == two
        assert one["base_fixers"]
        for entry in one["base_fixers"]:
            assert set(entry) == {"word", "moved_fraction", "samples"}

    def test_fixed_length_flag(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, _, _ = run(
            capsys,
            "hunt", "--n", "2", "--count", "100", "--length", "4",
            "--seed", "1", "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["config"]["word_length"] == [4, 4]

    def test_short_base_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "hunt", "--n", "3", "--count", "10", "--length", "4", "--seed", "1",
            "--base", "0,1,0,1", "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "entries" in err

    def test_overlong_words_exit_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "hunt", "--n", "3", "--count", "0", "--length", "2000000000",
            "--seed", "1", "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "letters" in err

    def test_kernel_candidate_exits_2_after_writing_the_report(
        self, capsys, tmp_path, monkeypatch
    ):
        def one_candidate(config, workers):
            return HuntReport(
                config=config,
                words_tested=config.word_count,
                base_fixers=(),
                kernel_candidates=("s1 S1",),
                identity_words=(),
                runtime_seconds=0.0,
            )

        monkeypatch.setattr(vbraid.cli, "hunt", one_candidate)
        out_path = tmp_path / "r.json"
        code, out, _ = run(
            capsys,
            "hunt", "--n", "3", "--count", "10", "--length", "4",
            "--seed", "1", "--out", str(out_path),
        )
        assert code == 2
        assert "1 kernel candidates" in out
        assert json.loads(out_path.read_text())["kernel_candidates"] == ["s1 S1"]

    def test_unwritable_output_fails_before_the_hunt(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(vbraid.cli, "hunt", must_not_run)
        path = tmp_path / "missing" / "r.json"
        code, out, err = run(
            capsys,
            "hunt", "--n", "3", "--count", "10", "--length", "4", "--seed", "1",
            "--out", str(path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("vbraid hunt: error: ")
        assert "No such file or directory" in err
        assert str(path) in err

    def test_fixers_out_flag_is_rejected(self, capsys, tmp_path, monkeypatch):
        # The report's base_fixers holds every base fixer.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(vbraid.cli, "hunt", must_not_run)
        with pytest.raises(SystemExit) as info:
            main([
                "hunt", "--n", "3", "--count", "10", "--length", "4", "--seed", "1",
                "--out", "r.json", "--fixers-out", "f.jsonl",
            ])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert "vbraid hunt: error: unrecognized arguments: --fixers-out f.jsonl" in err
        assert list(tmp_path.iterdir()) == []


class TestOutputFiles:
    OLD = '{"kept": true}\n'

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (
                ["hunt", "--n", "3", "--count", "10", "--length", "4", "--seed", "1",
                 "--workers", "0"],
                "--out",
            ),
            (["verify-diagram", "--samples", "0", "--seed", "6"], "--json"),
        ],
        ids=["hunt-workers-0", "verify-diagram-samples-0"],
    )
    def test_an_existing_file_keeps_its_bytes(self, argv, flag, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(self.OLD)
        code, out, err = run(capsys, *argv, flag, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"vbraid {argv[0]}: error: ")
        assert path.read_text() == self.OLD

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (
                ["hunt", "--n", "3", "--count", "4", "--length", "3", "--seed", "1",
                 "--workers", "0"],
                "--out",
            ),
            (["verify-diagram", "--samples", "0", "--seed", "1"], "--json"),
        ],
        ids=["hunt-workers-0", "verify-diagram-samples-0"],
    )
    def test_a_new_file_is_removed_again(self, argv, flag, capsys, tmp_path):
        code, out, err = run(capsys, *argv, flag, str(tmp_path / "new.json"))
        assert code == 1
        assert out == ""
        assert err.startswith(f"vbraid {argv[0]}: error: ")
        assert list(tmp_path.iterdir()) == []

    def test_a_finished_run_replaces_a_longer_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(self.OLD * 10**4)
        code, _, _ = run(
            capsys, "verify-diagram", "--samples", "5", "--seed", "6", "--json", str(path)
        )
        assert code == 0
        assert json.loads(path.read_text())["pass"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["hunt", "--n", "3", "--count", "20", "--length", "1:12", "--seed", "1",
             "--out", "/dev/null"],
            ["verify-diagram", "--samples", "10", "--seed", "1", "--json", "/dev/null"],
        ],
        ids=["hunt-out", "verify-diagram-json"],
    )
    def test_dev_null_takes_the_output(self, argv, capsys):
        # A character device is seekable but cannot be truncated.
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert err == ""

    def test_a_pipe_is_written_without_truncation(self):
        result = subprocess.run(
            [sys.executable, "-m", "vbraid.cli", "verify-diagram", "--samples", "5",
             "--seed", "6", "--json", "/dev/stdout"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stderr
        report, _, lines = result.stdout.partition("\n}\n")
        assert json.loads(report + "}")["pass"] is True
        assert lines.count(" ok\n") == 19


class TestStrandCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["perm", "--word", "s300000000"],
            ["act", "--n", "300000000", "--vector", "base", "--word", "s1"],
            ["act", "--n", "300000000", "--vector", "0,1,0,1", "--word", "s1"],
            ["hunt", "--n", "300000000", "--count", "1", "--length", "4", "--seed", "1"],
        ],
        ids=["perm", "act-base", "act-csv", "hunt"],
    )
    def test_huge_strand_count_exits_1(self, argv, capsys, tmp_path, peak_traced_bytes):
        out_path = tmp_path / "r.json"
        if argv[0] == "hunt":
            argv = argv + ["--out", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"vbraid {argv[0]}: error: ")
        assert str(MAX_STRANDS) in err
        assert not out_path.exists()
        assert peak_traced_bytes() < 2**20


class TestFlagValidation:
    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["act", "--vector", "base", "--word", "s1"])
        assert info.value.code == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    @pytest.mark.parametrize("name", sorted(subcommands()))
    def test_unknown_option_is_reported_by_its_subcommand(self, name, capsys, monkeypatch):
        # Every required option is given, so the unknown one is the only error.
        command = subcommands()[name]
        argv = [name]
        for action in command._actions:
            if action.required:
                argv += [action.option_strings[0], "2"]
        monkeypatch.setattr(vbraid.cli, "hunt", must_not_run)
        with pytest.raises(SystemExit) as info:
            main(argv + ["--no-such-flag"])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: vbraid {name} ")
        assert err.endswith(f"vbraid {name}: error: unrecognized arguments: --no-such-flag\n")


class TestHelp:
    def test_every_option_has_help(self):
        for name, command in subcommands().items():
            for action in command._actions:
                if action.option_strings and action.dest != "help":
                    assert action.help, (name, action.option_strings)


class TestReadme:
    def test_every_command_line_parses(self, capsys):
        # Flags only: each `vbraid` line of the README's sh blocks is parsed,
        # so a renamed or removed flag fails here.
        commands = [shlex.split(line, comments=True)[1:] for line in readme_vbraid_lines()]
        assert len(commands) >= 13
        parser = vbraid.cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"vbraid {shlex.join(argv)}: {capsys.readouterr().err}")

    def test_every_stated_output_is_printed(self, capsys):
        # A `# -> OUTPUT` comment states the first line the command prints;
        # "(empty)" stands for an empty line.
        matches = [re.fullmatch(r"vbraid (.*?)\s*# -> (.*)", line) for line in readme_vbraid_lines()]
        stated = [match.groups() for match in matches if match]
        assert len(stated) == 9
        for command, output in stated:
            code, out, err = run(capsys, *shlex.split(command))
            assert code == 0, (command, err)
            assert out.split("\n")[0] == ("" if output == "(empty)" else output), command

    def test_every_option_is_documented(self):
        text = README.read_text()
        missing = [
            (name, option)
            for name, command in subcommands().items()
            for action in command._actions
            if action.dest != "help"
            for option in action.option_strings
            if not re.search(re.escape(option) + r"(?![\w-])", text)
        ]
        assert missing == []
