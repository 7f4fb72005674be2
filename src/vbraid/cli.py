"""Command line surface: vbraid <subcommand>.

Exit codes: 0 success, 1 validation error, 2 verification failure (a
failing diagram check, a certificate violation, or a hunt that leaves a
kernel candidate; the hunt writes its report first).
Every randomized subcommand requires an explicit --seed; ``eq`` is one call
to ``wordproblem.distinguish_vbn``, randomized only on virtual words of
n >= 3 with --battery > 0.
Output files (hunt's --out, verify-diagram's --json) are opened before the
work starts, so an unwritable path fails at once with exit 1; an existing
file keeps its bytes until the finished work replaces them, and a file the
run created is removed again if the run fails.  Only a regular file is
truncated, so a pipe or a device such as /dev/null takes the output as is.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from random import Random

from .action import Coordinates, act_word, base_vector
from .diagram import VB2_START, certify_nontrivial, verify_diagram
from .hunt import HuntConfig, hunt, moved_fraction
from .wordproblem import distinguish_vbn
from .words import format_word, free_reduce, parse_word, permutation

VALIDATION_ERROR = 1
VERIFICATION_FAILURE = 2
WORD_HELP = 'word such as "s1 S2 r1^3": s, S and r are sigma, its inverse and rho'
BOUND_HELP = "probe entries lie in [-BOUND, BOUND]"
STRANDS_HELP = "strand count (default: one more than the largest index, at least 2)"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2
    # for verification failures, so route flag errors to status 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(VALIDATION_ERROR, f"{self.prog}: error: {message}\n")

    # A subcommand rejects the options it does not know itself, with its own
    # usage, instead of passing them up to the top-level parser.
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _parse_length(text: str) -> int | tuple[int, int]:
    if ":" in text:
        low_text, high_text = text.split(":", 1)
        return (int(low_text), int(high_text))
    return int(text)


@contextlib.contextmanager
def _output(path: str | None):
    """The file a command's report goes to, opened for appending before the
    work, so that work rejected before ``_write`` leaves an existing file
    intact, and removed if this call created it and the work raises; None
    when no path is given."""
    if not path:
        yield None
        return
    try:
        handle, created = open(path, "x", encoding="utf-8"), True
    except FileExistsError:
        handle, created = open(path, "a", encoding="utf-8"), False
    try:
        with handle:
            yield handle
    except BaseException:
        if created:
            os.remove(path)
        raise


def _write(handle, report) -> None:
    """Replace the contents of a file opened by ``_output`` with ``report``
    as indented JSON.  Only a regular file is truncated: a pipe, a terminal
    or a device such as /dev/null is only written."""
    if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
        handle.truncate(0)
    handle.write(json.dumps(report.as_dict(), indent=2) + "\n")


def _cmd_act(args) -> int:
    text, n = args.vector, args.n
    vector = base_vector(n) if text == "base" else Coordinates.from_csv(text, n)
    word = parse_word(args.word, args.n)
    print(act_word(vector, word).to_csv())
    return 0


def _cmd_eq(args) -> int:
    w1 = parse_word(args.w1, args.n)
    w2 = parse_word(args.w2, args.n)
    rng = None if args.seed is None else Random(args.seed)
    verdict = distinguish_vbn(w1, w2, args.battery, rng)
    print(verdict.status.value.capitalize())
    if verdict.witness:
        print(f"witness: {verdict.witness}")
    if verdict.images is not None:
        left, right = verdict.images
        print(f"images: {','.join(map(str, left))} vs {','.join(map(str, right))}")
    return 0


def _cmd_perm(args) -> int:
    word = parse_word(args.word, args.n)
    print(" ".join(map(str, permutation(word))))
    return 0


def _cmd_reduce(args) -> int:
    word = parse_word(args.word, args.n)
    print(format_word(free_reduce(word)))
    return 0


def _cmd_hunt(args) -> int:
    config = HuntConfig(
        strands=args.n,
        word_length=_parse_length(args.length),
        word_count=args.count,
        seed=args.seed,
        battery_size=args.battery,
        coefficient_bound=args.bound,
        base=None if args.base is None else Coordinates.from_csv(args.base, args.n).entries,
    )
    with _output(args.out) as out:
        report = hunt(config, workers=args.workers)
        _write(out, report)
    print(
        f"tested {report.words_tested} words: {len(report.base_fixers)} distinct "
        f"base fixers, {len(report.kernel_candidates)} kernel candidates "
        f"({report.runtime_seconds:.1f}s)"
    )
    return VERIFICATION_FAILURE if report.kernel_candidates else 0


def _cmd_moved_fraction(args) -> int:
    word = parse_word(args.word, args.n)
    fraction = moved_fraction(word, args.samples, args.bound, Random(args.seed))
    print(float(fraction))
    return 0


def _cmd_verify_diagram(args) -> int:
    with _output(args.json) as handle:
        report = verify_diagram(args.samples, Random(args.seed))
        if handle is not None:
            _write(handle, report)
    for check in report.arrow_checks:
        status = "ok" if check.ok else f"FAIL counterexample={check.counterexample}"
        print(f"arrow {check.arrow.describe()}: {check.samples} samples {status}")
    closure = report.closure
    if closure.ok:
        print("closure: complete")
    else:
        for box, generator in closure.missing:
            print(f"closure: MISSING {generator} arrow out of {box}")
    return 0 if report.ok else VERIFICATION_FAILURE


def _cmd_certify(args) -> int:
    word = parse_word(args.word, 2)
    start = Coordinates.from_csv(args.start, 2).entries
    certificate = certify_nontrivial(word, start)  # type: ignore[arg-type]
    if certificate.violation is not None:
        print(f"VIOLATION: {certificate.violation}", file=sys.stderr)
        return VERIFICATION_FAILURE
    if certificate.trivial:
        print("Trivial")
        return 0
    print("nontrivial")
    print(f"image: {','.join(map(str, certificate.image))}")
    print(f"path: {' -> '.join(certificate.boxes)}")
    print(f"norms: {' '.join(map(str, certificate.norms))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vbraid", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    act = commands.add_parser("act", help="apply a word to a coordinate vector")
    act.add_argument("--n", type=int, required=True, help="strand count")
    act.add_argument("--vector", required=True, help='CSV entries or "base"')
    act.add_argument("--word", required=True, help=WORD_HELP)
    act.set_defaults(func=_cmd_act)

    eq = commands.add_parser("eq", help="test two words for equality")
    eq.add_argument("--n", type=int, required=True, help="strand count")
    eq.add_argument("--w1", required=True, help="first word")
    eq.add_argument("--w2", required=True, help="second word")
    eq.add_argument(
        "--battery", type=int, default=1000,
        help="random probes for virtual words on 3 or more strands (default %(default)s)",
    )
    eq.add_argument(
        "--seed", type=int,
        help="probe seed; needed only by virtual words on 3 or more strands with --battery > 0",
    )
    eq.set_defaults(func=_cmd_eq)

    perm = commands.add_parser("perm", help="strand permutation of a word")
    perm.add_argument("--n", type=int, help=STRANDS_HELP)
    perm.add_argument("--word", required=True, help=WORD_HELP)
    perm.set_defaults(func=_cmd_perm)

    reduce_ = commands.add_parser("reduce", help="freely reduce a word")
    reduce_.add_argument("--n", type=int, help=STRANDS_HELP)
    reduce_.add_argument("--word", required=True, help=WORD_HELP)
    reduce_.set_defaults(func=_cmd_reduce)

    hunt_ = commands.add_parser("hunt", help="randomized kernel search")
    hunt_.add_argument("--n", type=int, required=True, help="strand count")
    hunt_.add_argument("--count", type=int, required=True, help="number of words")
    hunt_.add_argument("--length", required=True, help="word length N or range LO:HI")
    hunt_.add_argument("--seed", type=int, required=True, help="seed of the word stream")
    hunt_.add_argument("--battery", type=int, default=100, help="random probes per base fixer")
    hunt_.add_argument("--bound", type=int, default=100, help=BOUND_HELP)
    hunt_.add_argument("--base", help="override the start vector (CSV)")
    hunt_.add_argument("--workers", type=int, default=1, help="processes, at most the CPU count")
    hunt_.add_argument("--out", required=True, help="JSON report path")
    hunt_.set_defaults(func=_cmd_hunt)

    moved = commands.add_parser("moved-fraction", help="fraction of probes a word moves")
    moved.add_argument("--n", type=int, help=STRANDS_HELP)
    moved.add_argument("--word", required=True, help=WORD_HELP)
    moved.add_argument("--samples", type=int, default=10000, help="random probes")
    moved.add_argument("--bound", type=int, default=100, help=BOUND_HELP)
    moved.add_argument("--seed", type=int, required=True, help="probe seed")
    moved.set_defaults(func=_cmd_moved_fraction)

    verify = commands.add_parser("verify-diagram", help="check all diagram arrows")
    verify.add_argument("--samples", type=int, default=1000, help="random samples per arrow")
    verify.add_argument("--seed", type=int, required=True, help="sample seed")
    verify.add_argument("--json", help="also write the report as JSON")
    verify.set_defaults(func=_cmd_verify_diagram)

    certify = commands.add_parser(
        "certify", help="certify a two-strand word as trivial or nontrivial"
    )
    certify.add_argument("--word", required=True, help="two-strand word")
    certify.add_argument(
        "--start", default=",".join(map(str, VB2_START)), help="start vector (CSV)"
    )
    certify.set_defaults(func=_cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as error:
        print(f"vbraid {args.command}: error: {error}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
