"""The argparse definition of the command line, kept as the reference that
``contextuality_lab.cli.parse`` is checked against.

``parse`` returns the parsed values, or raises ``SystemExit`` after writing
help to stdout (0) or a usage error to stderr (2).  Argparse takes a
``-e2`` style token for an unknown option, where the table-driven parser
reads it as a positional; the tests leave such argv out of the comparison.
"""

import argparse

from contextuality_lab.cli import DEFAULT_SEED, VERIFY_TARGETS
from contextuality_lab.ga import APPROX, EXACT


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextuality-lab",
        description="exact verification of the built-in constraint systems "
        "and the coplanar correlation sweep",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a check suite, emit a JSON report")
    verify.add_argument("target", choices=VERIFY_TARGETS)
    verify.add_argument("--out", help="write the JSON report to a file")
    verify.add_argument(
        "--constraints",
        metavar="FILE",
        help="JSON constraint-set document to check instead of the builtin lines",
    )
    verify.add_argument(
        "--mode",
        choices=(EXACT, APPROX),
        default=EXACT,
        help="coefficient mode of the ga.* axiom checks (the joint algebra is exact)",
    )
    verify.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for randomized checks",
    )

    sweep = sub.add_parser("chsh", help="scan the correlation curve F over [start, end]")
    sweep.add_argument("start", type=float)
    sweep.add_argument("end", type=float)
    sweep.add_argument("steps", type=int)
    sweep.add_argument("--csv", help="write the grid as CSV to a file")

    search = sub.add_parser(
        "search-identities",
        help="list identification maps producing the column (x, x, x, -x)",
    )
    search.add_argument(
        "target",
        help="signed in-plane vector, e.g. e1 or -e2 (letters e, f, g accepted)",
    )
    return parser


PARSER = make_parser()


def parse(argv: list) -> dict:
    """The parsed values of ``argv``, ``command`` included."""
    return vars(PARSER.parse_args(argv))
