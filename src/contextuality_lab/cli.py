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
constraint document and wraps the entries in a report.

Every input comes from argv, read in one pass against :data:`COMMANDS`, one
row per command: its handler, help line, positionals and options.  The
rules are argparse's: ``--flag value`` or ``--flag=value``, a unique prefix
of a flag names it, ``--`` ends the options, an option's value may be a
negative number but not an option-like token, and ``-h``/``--help`` prints
the help (built from the same table) and exits 0.  Two rules differ: once
a valid command name is read, every usage error shows that command's usage
line; and a single-dash token other than ``-h`` (``-e2``, ``-1e5``) is a
positional.  Every usage error goes through :meth:`Usage.error` (exit 2).
Every output, help included, goes through :meth:`Usage.output`, which opens
an ``--out`` or ``--csv`` file before any check runs or angle is evaluated
and makes a failed open or write, stdout's too, a usage error.  Reports
are deterministic byte for byte for fixed flags: the one sampled check,
``states.singlet``, draws from a generator seeded by ``--seed`` and no
timestamps are embedded.

Reports are written by :func:`render_json` as ``json.dumps(report,
indent=2)`` would write them, without the ``json`` module.  Only a string
that needs escaping, a NaN or an infinity, or a subclass of ``str``,
``int`` or ``float`` goes through its ``json.dumps`` fallback, and no
built-in report holds one, so only a command that reads a ``--constraints``
document loads ``json``.
"""

import contextlib
import os
import sys
from math import isfinite
from types import SimpleNamespace

from . import __version__, checks, chsh, constraints, identities
from .ga import APPROX, EXACT

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


def render_json(value, newline: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)`` for str-keyed dicts,
    lists and tuples of strings, numbers, bools and ``None``.

    Written without the ``json`` module, which no built-in report needs: a
    key or item that is a string of printable ASCII with no ``"`` or ``\\``
    is quoted as it is, an ``int`` and a finite ``float`` are their reprs,
    and ``True``, ``False`` and ``None`` are ``true``, ``false`` and
    ``null``.  Every other scalar goes through ``json.dumps``, imported
    then: a string that needs escaping, NaN, an infinity, or a subclass of
    ``str``, ``int`` or ``float``.  A key that is not a ``str`` raises
    ``TypeError``.  ``newline`` is the line break plus the indent of the
    value's own line.
    """
    # A plain string is tested and quoted inside each comprehension: a
    # helper call per string would add about a tenth to a report's render.
    if isinstance(value, dict):
        inner = newline + "  "
        items = [
            (
                f'"{k}": '
                if type(k) is str and k.isascii() and k.isprintable() and '"' not in k and "\\" not in k
                else render_json(str.__str__(k)) + ": "
            )
            + (
                f'"{v}"'
                if type(v) is str and v.isascii() and v.isprintable() and '"' not in v and "\\" not in v
                else render_json(v, inner)
            )
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        inner = newline + "  "
        items = [
            f'"{v}"'
            if type(v) is str and v.isascii() and v.isprintable() and '"' not in v and "\\" not in v
            else render_json(v, inner)
            for v in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is float and isfinite(value):
        return float.__repr__(value)
    import json

    return json.dumps(value)


# -- subcommand handlers ------------------------------------------------------------------


def _cmd_verify(args, usage) -> int:
    custom = None
    if args.constraints is not None:
        if args.target not in checks.DOCUMENT_TARGETS:
            targets = ", ".join(checks.DOCUMENT_TARGETS)
            usage.error(f"--constraints applies only to the targets {targets}")
        try:
            with open(args.constraints, "r", encoding="utf-8") as handle:
                custom = constraints.ConstraintSet.from_json(handle.read())
        except (OSError, ValueError) as exc:
            usage.error(f"cannot load constraint set: {exc}")
    with usage.output("report", args.out) as write:
        report = build_report(args.target, args.mode, args.seed, custom)
        write(render_json(report) + "\n")
    return 0 if report["all_pass"] else 1


def _cmd_chsh(args, usage) -> int:
    try:
        chsh.check_grid(args.start, args.end, args.steps)
    except ValueError as exc:
        usage.error(str(exc))
    if args.csv is not None:
        # One pass over the sweep's batches: scan_F writes the header, then
        # each batch's rows with one write, while it takes the maximum.
        with usage.output("CSV", args.csv, newline="") as write:
            result = chsh.scan_F(args.steps, args.start, args.end, write)
    else:
        result = chsh.scan_F(args.steps, args.start, args.end)
    with usage.output("summary") as write:
        write(
            f"max={result.maximum:.6f} at phi={result.argmax:.6f}\n"
            f"classical_bound={chsh.CLASSICAL_BOUND} vector_bound={chsh.VECTOR_BOUND}\n"
        )
    return 0


def _cmd_search_identities(args, usage) -> int:
    try:
        target = identities.in_plane_vector(args.target)
    except ValueError as exc:
        usage.error(str(exc))
    maps = identities.find_identity_maps(target)
    with usage.output("identity maps") as write:
        write(render_json([m.as_dict() for m in maps]) + "\n")
    return 0


# -- argv ---------------------------------------------------------------------------------

PROG = "contextuality-lab"
DESCRIPTION = (
    "exact verification of the built-in constraint systems and the coplanar correlation sweep"
)
HELP = "--help"

#: command -> (handler, help line, positionals, options).  A positional is
#: (name, converter, help); an option maps its flag to (dest, metavar,
#: converter, default, help).  A converter is a tuple of choices, or ``str``,
#: ``int`` or ``float`` applied to the argument.
COMMANDS = {
    "verify": (
        _cmd_verify,
        "run a check suite, emit a JSON report",
        (("target", VERIFY_TARGETS, "the check suite to run (all: every suite)"),),
        {
            "--out": ("out", "OUT", str, None, "write the JSON report to a file"),
            "--constraints": ("constraints", "FILE", str, None,
                              "JSON constraint-set document to check instead of the builtin lines"),
            "--mode": ("mode", None, (EXACT, APPROX), EXACT,
                       "coefficient mode of the ga.* axiom checks (the joint algebra is exact)"),
            "--seed": ("seed", "SEED", int, DEFAULT_SEED, "seed for randomized checks"),
        },
    ),
    "chsh": (
        _cmd_chsh,
        "scan the correlation curve F over [start, end]",
        (
            ("start", float, "first angle of the grid, in radians"),
            ("end", float, "last angle of the grid, in radians"),
            ("steps", int, "number of grid points"),
        ),
        {"--csv": ("csv", "CSV", str, None, "write the grid as CSV to a file")},
    ),
    "search-identities": (
        _cmd_search_identities,
        "list identification maps producing the column (x, x, x, -x)",
        (("target", str, "signed in-plane vector, e.g. e1 or -e2 (letters e, f, g accepted)"),),
        {},
    ),
}


def _shown(name: str, converter) -> str:
    """A positional or metavar as usage and help show it: its choices in braces."""
    return "{" + ",".join(converter) + "}" if type(converter) is tuple else name


class Usage:
    """The usage line, help and usage errors of one command, or of the
    program when ``command`` is None."""

    __slots__ = ("command",)

    def __init__(self, command=None):
        self.command = command

    def prog(self) -> str:
        return PROG if self.command is None else f"{PROG} {self.command}"

    def line(self) -> str:
        if self.command is None:
            return f"{PROG} [-h] {_shown('command', tuple(COMMANDS))} ..."
        _, _, positionals, options = COMMANDS[self.command]
        words = [self.prog(), "[-h]"]
        words += [f"[{flag} {_shown(spec[1], spec[2])}]" for flag, spec in options.items()]
        words += [_shown(name, converter) for name, converter, _ in positionals]
        return " ".join(words)

    def error(self, message: str):
        """Print the usage line and ``message`` to stderr and exit 2."""
        sys.stderr.write(f"usage: {self.line()}\n{self.prog()}: error: {message}\n")
        sys.exit(2)

    def help(self):
        """Print the help to stdout and exit 0."""
        if self.command is None:
            about = DESCRIPTION
            sections = [("commands", [(name, spec[1]) for name, spec in COMMANDS.items()])]
            options = {}
        else:
            _, about, positionals, options = COMMANDS[self.command]
            rows = [
                (name, f"{text}; one of {', '.join(converter)}" if type(converter) is tuple else text)
                for name, converter, text in positionals
            ]
            sections = [("positional arguments", rows)]
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(f"{flag} {_shown(s[1], s[2])}", s[4]) for flag, s in options.items()]
        sections.append(("options", rows))
        width = max(len(left) for _, rows in sections for left, _ in rows) + 2
        lines = [f"usage: {self.line()}", "", about]
        for title, rows in sections:
            lines += ["", f"{title}:"] + [f"  {left:<{width}}{text}" for left, text in rows]
        with self.output("help") as write:
            write("\n".join(lines) + "\n")
        sys.exit(0)

    @contextlib.contextmanager
    def output(self, what: str, path=None, newline=None):
        """Yield the write function of ``path``, opened for writing before
        the caller's work starts, or of stdout when ``path`` is None.  An
        ``OSError`` while opening, writing, flushing or closing it is a usage
        error; a path that cannot be opened is left as it was, and an opened
        regular file is removed, so that no partial output is left.  A device
        such as ``/dev/full`` is never removed."""
        opened = False
        try:
            if path is None:
                yield sys.stdout.write
                sys.stdout.flush()
            else:
                with open(path, "w", encoding="utf-8", newline=newline) as handle:
                    opened = True
                    yield handle.write
        except OSError as exc:
            if opened and os.path.isfile(path):
                with contextlib.suppress(OSError):
                    os.remove(path)
            self.error(f"cannot write {what}: {exc}")


def _convert(usage: Usage, name: str, converter, text: str):
    """``text`` checked against a tuple of choices, or converted."""
    if type(converter) is tuple:
        if text not in converter:
            choices = ", ".join(map(repr, converter))
            usage.error(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        return converter(text)
    except ValueError:
        usage.error(f"argument {name}: invalid {converter.__name__} value: {text!r}")


def _is_negative_number(token: str) -> bool:
    """``-7``, ``-0.5`` or ``-.5``: a dash, then digits with at most one point
    that has digits after it."""
    whole, point, fraction = token[1:].partition(".")
    if point:
        return fraction.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def _flag(usage: Usage, token: str, flags):
    """The flag that a ``--name`` or ``--name=value`` token names, by the
    whole name or a unique prefix of it; None when it names none."""
    name = token.partition("=")[0]
    known = (HELP, *flags)
    if name in known:
        return name
    matches = [flag for flag in known if flag.startswith(name)]
    if len(matches) > 1:
        usage.error(f"ambiguous option: {token} could match {', '.join(matches)}")
    return matches[0] if matches else None


def _help(usage: Usage, token: str):
    """Print the help for a token that names ``--help``; it takes no value."""
    _, equals, value = token.partition("=")
    if equals:
        usage.error(f"argument -h/--help: ignored explicit argument {value!r}")
    usage.help()


def _can_be_value(usage: Usage, token: str, flags) -> bool:
    """Whether ``token`` can be an option's value: it does not start with a
    dash, or is a lone ``-``, or names no flag and is a negative number or
    holds a space."""
    if token[:1] != "-" or token == "-":
        return True
    if token == "--" or token[:2] == "-h" or (token[:2] == "--" and _flag(usage, token, flags)):
        return False
    return " " in token or _is_negative_number(token)


def _parse_command(usage: Usage, argv: list, extras: list) -> SimpleNamespace:
    _, _, positionals, options = COMMANDS[usage.command]
    values = {dest: default for dest, _, _, default, _ in options.values()}
    filled = 0
    filled_at = -1
    options_ended = False
    at = 0
    while at < len(argv):
        token = argv[at]
        at += 1
        if not options_ended:
            if token == "--":
                options_ended = True
                # the "--" is dropped when a positional stands next to it:
                # the one it follows, or the one the next token fills
                if filled_at != at - 2 and not (filled < len(positionals) and at < len(argv)):
                    extras.append(token)
                continue
            if token == "-h":
                usage.help()
            if token.startswith("--"):
                flag = _flag(usage, token, options)
                if flag == HELP:
                    _help(usage, token)
                if flag is not None:
                    _, equals, value = token.partition("=")
                    if not equals:
                        if at == len(argv) or not _can_be_value(usage, argv[at], options):
                            usage.error(f"argument {flag}: expected one argument")
                        value = argv[at]
                        at += 1
                    dest, _, converter, _, _ = options[flag]
                    values[dest] = _convert(usage, flag, converter, value)
                    continue
                if " " not in token:
                    extras.append(token)
                    continue
        if filled < len(positionals):
            name, converter, _ = positionals[filled]
            values[name] = _convert(usage, name, converter, token)
            filled += 1
            filled_at = at - 1
        else:
            extras.append(token)
    if filled < len(positionals):
        missing = ", ".join(name for name, _, _ in positionals[filled:])
        usage.error(f"the following arguments are required: {missing}")
    if extras:
        usage.error(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def parse(argv: list):
    """(usage of the command, its parsed values) for ``argv``, in one pass.

    The first token that is not an option names the command, and the rest
    is read against that command's row of :data:`COMMANDS`.  A usage error
    exits 2 through :meth:`Usage.error`; ``-h`` or ``--help`` prints the help
    and exits 0.
    """
    top = Usage()
    extras = []
    for at, token in enumerate(argv):
        if token == "-h":
            top.help()
        if token.startswith("--") and token != "--":
            if _flag(top, token, ()) == HELP:
                _help(top, token)
            if " " not in token:
                extras.append(token)
                continue
        if token == "--" and at + 1 == len(argv):
            break  # a "--" names the command (an invalid one) only when tokens follow it
        usage = Usage(_convert(top, "command", tuple(COMMANDS), token))
        return usage, _parse_command(usage, argv[at + 1 :], extras)
    top.error("the following arguments are required: command")


def main(argv=None) -> int:
    usage, args = parse(sys.argv[1:] if argv is None else argv)
    return COMMANDS[usage.command][0](args, usage)


if __name__ == "__main__":
    sys.exit(main())
