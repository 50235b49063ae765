"""Seeded verdict streams for the three benchmark workloads.

A case is one verdict: the argv handed to ``contextuality_lab.cli.main``,
the input files it needs, and the reference check of its outputs.  The
program only ever sees the generated argv and files.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable

import references

#: Grid points per ``chsh`` verdict.
CHSH_STEPS = 2000
#: Observable counts of the constraint documents; each round uses every size once.
CONSTRAINT_SIZES = tuple(range(10, 19))
#: Distinct non-identity Pauli strings exist only up to 15 on two subsystems.
TWO_SYSTEM_MAX = 15


@dataclass(frozen=True)
class Case:
    """One verdict.  Arguments starting with ``@`` name files in the work
    directory; ``check(code, stdout, work)`` returns the problems found in the
    outputs; ``points`` counts the grid points a sweep asks for."""

    argv: list
    check: Callable
    inputs: dict = field(default_factory=dict)
    points: int = 0

    def prepare(self, work: Path) -> list:
        """Write the input files and return the argv with real paths."""
        for name, text in self.inputs.items():
            (work / name).write_text(text, encoding="utf-8")
        return [str(work / a[1:]) if a.startswith("@") else a for a in self.argv]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# -- verify-all -----------------------------------------------------------------


def verify_all_cases(rng: Random):
    while True:
        seed = rng.randrange(1, 10**6)
        yield Case(
            ["verify", "all", "--out", "@report.json", "--seed", str(seed)],
            lambda code, out, work, seed=seed: references.check_verify_all(
                code, _read_json(work / "report.json"), seed
            ),
        )


# -- chsh-sweep -------------------------------------------------------------------


def chsh_cases(rng: Random):
    full = math.floor(math.pi * 1e6)
    while True:
        start_u = rng.randrange(0, full // 2)
        end_u = rng.randrange(start_u + full // 4, full + 1)
        start, end = f"{start_u / 1e6:.6f}", f"{end_u / 1e6:.6f}"
        yield Case(
            ["chsh", start, end, str(CHSH_STEPS), "--csv", "@curve.csv"],
            lambda code, out, work, a=float(start), b=float(end): references.check_chsh(
                code, out, (work / "curve.csv").read_text(encoding="utf-8"), a, b, CHSH_STEPS
            ),
            points=CHSH_STEPS,
        )


# -- constraint-files ---------------------------------------------------------------


def _label(string: tuple) -> str:
    return "*".join(f"{axis}{slot}" for slot, axis in enumerate(string, start=1) if axis != "i")


def line_system(rng: Random, size: int, name: str) -> dict:
    """A well-formed line system with ``size`` observables over 2 or 3 subsystems.

    Lines have 2 to 4 terms and every observable occurs at least once.  Where
    the Pauli string of the other terms' product is in the pool, it closes
    the line, and the operator identity holds when the required sign matches
    the product's phase.  Over 900 documents from seed 1, a quarter of the
    lines are closed and one in eleven holds; the others make the operator
    oracle and the exit code report failures.
    """
    systems = 3 if size > TWO_SYSTEM_MAX else rng.choice((2, 3))
    strings = [s for s in itertools.product("ixyz", repeat=systems) if set(s) != {"i"}]
    pool = [_label(s) for s in rng.sample(strings, size)]
    uncovered = pool[:]
    rng.shuffle(uncovered)
    lines = []
    extra = rng.randint(0, 2)
    while uncovered or extra:
        if not uncovered:
            extra -= 1
        length = rng.randint(2, 4)
        terms = []
        while len(terms) < length - 1:
            label = uncovered.pop() if uncovered else rng.choice(pool)
            if label not in terms:
                terms.append(label)
        phase, rest = references.pauli_word(terms)
        closing = "*".join(f"{'xzy'[x + 2 * z - 1]}{s}" for s, (x, z) in sorted(rest.items()))
        if closing in pool and closing not in terms:
            terms.append(closing)
            if closing in uncovered:
                uncovered.remove(closing)
            sign = {0: 1, 2: -1}.get(phase, rng.choice((1, -1)))
            required = sign if rng.random() < 0.75 else -sign
        else:
            candidates = [label for label in (uncovered or pool) if label not in terms]
            last = rng.choice(candidates)
            if last in uncovered:
                uncovered.remove(last)
            terms.append(last)
            required = rng.choice((1, -1))
        lines.append({"terms": terms, "required": required})
    return {"name": name, "lines": lines}


def constraint_cases(rng: Random):
    for number in itertools.count():
        sizes = list(CONSTRAINT_SIZES)
        rng.shuffle(sizes)
        for size in sizes:
            doc = line_system(rng, size, f"lines-{number}-{size}")
            target = rng.choice(("pm", "ghz"))
            yield Case(
                ["verify", target, "--constraints", "@lines.json", "--out", "@report.json"],
                lambda code, out, work, doc=doc, target=target: references.check_constraint_report(
                    code, _read_json(work / "report.json"), doc, target
                ),
                inputs={"lines.json": json.dumps(doc, indent=2)},
            )


#: Workload name -> (case stream, verdicts in one traced pass).
WORKLOADS = {
    "verify-all": (verify_all_cases, 1),
    "chsh-sweep": (chsh_cases, 3),
    "constraint-files": (constraint_cases, len(CONSTRAINT_SIZES)),
}
