"""Command-line front end: argument parsing, file I/O and report assembly.

Subcommands:

* ``verify <target>`` runs one of the check suites of
  :mod:`contextuality_lab.checks` (``all`` runs every suite in table order)
  and emits a JSON report; the process exits 0 exactly when every check
  passed.
* ``chsh <start> <end> <steps>`` scans the coplanar correlation curve and
  optionally writes the grid as CSV.
* ``search-identities <target>`` lists every basis-identification map whose
  four-line column is (x, x, x, -x) for the requested vector x.

The claims themselves, with their ids, witnesses and pass rules, are the
rows of :mod:`contextuality_lab.checks`; this module loads the optional
constraint document and wraps the entries in a report.  Every input comes
from argv and every usage error goes through the subcommand parser's
``error`` (exit 2), so it shows that subcommand's usage line.
Reports are deterministic byte for byte for fixed flags: the one sampled
check, ``states.singlet``, draws from a generator seeded by ``--seed`` and
no timestamps are embedded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import __version__, checks, chsh, constraints, identities
from .ga import APPROX, EXACT
from .identities import SignedAxisVector

SCHEMA_VERSION = 1
DEFAULT_SEED = 1729

VERIFY_TARGETS = (*checks.SUITES, "all")


def build_report(target: str, mode: str = EXACT, seed: int = DEFAULT_SEED, custom=None) -> dict:
    if target == "all":
        names, custom = tuple(checks.SUITES), None
    elif target in checks.SUITES:
        names = (target,)
    else:
        raise ValueError(f"unknown verify target {target!r}")
    ctx = checks.Context(mode, seed, custom)
    entries = [entry for name in names for entry in checks.run(checks.SUITES[name](ctx), ctx)]
    failed = sum(1 for c in entries if c["status"] != "pass")
    return {
        "schema": SCHEMA_VERSION,
        "suite": target,
        "environment": {"version": __version__, "mode": mode, "seed": seed},
        "checks": entries,
        "passed": len(entries) - failed,
        "failed": failed,
        "all_pass": failed == 0,
    }


def _check_out(path: str, parser) -> None:
    """Reject an ``--out`` path that cannot take the report before any check
    runs; the file itself is neither opened nor truncated here."""
    if not path:
        parser.error("cannot write report: empty path")
    if os.path.isdir(path):
        parser.error(f"cannot write report: {path!r} is a directory")
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        parser.error(f"cannot write report: no directory {parent!r}")
    if not os.access(parent, os.W_OK):
        parser.error(f"cannot write report: directory {parent!r} is not writable")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        parser.error(f"cannot write report: {path!r} is not writable")


# -- subcommand handlers ------------------------------------------------------------------


def _cmd_verify(args, parser) -> int:
    if args.out is not None:
        _check_out(args.out, parser)
    custom = None
    if args.constraints is not None:
        if args.target not in checks.DOCUMENT_TARGETS:
            targets = ", ".join(checks.DOCUMENT_TARGETS)
            parser.error(f"--constraints applies only to the targets {targets}")
        try:
            with open(args.constraints, "r", encoding="utf-8") as handle:
                custom = constraints.ConstraintSet.from_json(handle.read())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load constraint set: {exc}")
    report = build_report(args.target, args.mode, args.seed, custom)
    text = json.dumps(report, indent=2)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            parser.error(f"cannot write report: {exc}")
    else:
        print(text)
    return 0 if report["all_pass"] else 1


def _cmd_chsh(args, parser) -> int:
    try:
        chsh.check_grid(args.start, args.end, args.steps)
    except ValueError as exc:
        parser.error(str(exc))
    if args.csv is not None:
        # One pass over the sweep's batches: scan_F writes the header, then
        # each batch's rows with one write, while it takes the maximum.
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as handle:
                result = chsh.scan_F(args.steps, args.start, args.end, handle.write)
        except OSError as exc:
            parser.error(f"cannot write CSV: {exc}")
    else:
        result = chsh.scan_F(args.steps, args.start, args.end)
    print(f"max={result.maximum:.6f} at phi={result.argmax:.6f}")
    print(f"classical_bound={chsh.CLASSICAL_BOUND} vector_bound={chsh.VECTOR_BOUND}")
    return 0


def _cmd_search_identities(args, parser) -> int:
    try:
        target = SignedAxisVector.parse(args.target)
    except ValueError as exc:
        parser.error(str(exc))
    maps = identities.find_identity_maps(target)
    print(json.dumps([m.as_dict() for m in maps], indent=2))
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextuality-lab",
        description="exact verification of the built-in constraint systems "
        "and the coplanar correlation sweep",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a check suite, emit a JSON report")
    verify.set_defaults(handler=_cmd_verify, parser=verify)
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
    sweep.set_defaults(handler=_cmd_chsh, parser=sweep)
    sweep.add_argument("start", type=float)
    sweep.add_argument("end", type=float)
    sweep.add_argument("steps", type=int)
    sweep.add_argument("--csv", help="write the grid as CSV to a file")

    search = sub.add_parser(
        "search-identities",
        help="list identification maps producing the column (x, x, x, -x)",
    )
    search.set_defaults(handler=_cmd_search_identities, parser=search)
    search.add_argument(
        "target",
        help="signed in-plane vector, e.g. e1 or -e2 (letters e, f, g accepted)",
    )
    return parser


def _shield_dash_target(argv: list) -> list:
    """Let a ``-e2`` style target through argparse by swapping in the
    typographic minus, which the target parser accepts."""
    argv = list(argv)
    try:
        at = argv.index("search-identities")
    except ValueError:
        return argv
    if at + 1 < len(argv) and re.fullmatch(r"-[efg][12]", argv[at + 1]):
        argv[at + 1] = "−" + argv[at + 1][1:]
    return argv


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(_shield_dash_target(sys.argv[1:] if argv is None else argv))
    return args.handler(args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
