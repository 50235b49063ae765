"""Up to three commuting copies of the 3D geometric algebra, exact only.

Each subsystem carries its own copy of the eight-blade algebra from
:mod:`contextuality_lab.ga`.  A basis element of the joint algebra is an int
key that packs one 3-bit blade mask per subsystem, subsystem 1 in the lowest
bits, so a one-subsystem key is the ``ga`` mask itself.  Products multiply
keys through :func:`contextuality_lab.ga.blade_product`: no sign is exchanged
across slots, so generators living in different subsystems commute while
generators inside one slot keep their anticommutation rules.

Coefficients are exact ``int``.  Rendering names the subsystem bases e, f
and g: the embedded basis vector of axis 2 in subsystem 3 prints as ``g2``.

The joint algebra treats the subsystem bases as fully independent.  The one
cross-subsystem identification this module knows about is handedness:
:func:`identify_pseudoscalars` rewrites words under the rule that every
subsystem's unit trivector denotes one and the same volume orientation, so a
pair of trivector factors from two slots collapses to the square -1.

Elements are immutable values and all operations are pure functions; they
are safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Mapping

from .ga import (
    BLADE_NAMES,
    EXACT,
    Coefficient,
    _Record,
    _coerce,
    _is_scalar,
    blade_product,
    render_terms,
)

MAX_SYSTEMS = 3
SYSTEM_LETTERS = ("e", "f", "g")


def _slots(key: int, n: int) -> list:
    """The blade masks of a key, subsystem 1 first."""
    return [key >> 3 * slot & 7 for slot in range(n)]


class TensorMultivector(_Record):
    """Sparse element of the joint algebra: packed blade keys to coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[int, Coefficient]):
        if not 1 <= n <= MAX_SYSTEMS:
            raise ValueError(f"system count {n} out of range 1..{MAX_SYSTEMS}")
        limit = 8**n
        cleaned = {}
        for key, value in coeffs.items():
            if type(key) is not int or not 0 <= key < limit:
                raise ValueError(f"bad blade key {key!r} for {n} systems")
            value = _coerce(value, EXACT)
            if value:
                cleaned[key] = value
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", cleaned)

    # -- constructors ---------------------------------------------------

    @classmethod
    def scalar(cls, value, n: int) -> "TensorMultivector":
        return cls(n, {0: _coerce(value, EXACT)})

    # -- linear structure ---------------------------------------------------

    def _require_compatible(self, other: "TensorMultivector") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched system counts: {self.n} vs {other.n}")

    def __add__(self, other: "TensorMultivector") -> "TensorMultivector":
        if not isinstance(other, TensorMultivector):
            return NotImplemented
        self._require_compatible(other)
        acc = dict(self.coeffs)
        for key, value in other.coeffs.items():
            acc[key] = acc.get(key, 0) + value
        return _tensor(self.n, acc)

    def __neg__(self) -> "TensorMultivector":
        return _tensor(self.n, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "TensorMultivector") -> "TensorMultivector":
        if not isinstance(other, TensorMultivector):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "TensorMultivector":
        c = _coerce(factor, EXACT)
        return _tensor(self.n, {k: v * c for k, v in self.coeffs.items()})

    # -- product -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, TensorMultivector):
            return self.scale(other) if _is_scalar(other) else NotImplemented
        if self.n != other.n:
            self._require_compatible(other)
        acc: dict[int, Coefficient] = {}
        get = acc.get
        right = other.coeffs.items()
        for key_a, a in self.coeffs.items():
            for key_b, b in right:
                sign, key = blade_product(key_a, key_b)
                acc[key] = get(key, 0) + a * b * sign
        return _tensor(self.n, acc)

    def __rmul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        return NotImplemented

    # -- projections ---------------------------------------------------------

    def scalar_part(self) -> Coefficient:
        return self.coeffs.get(0, 0)

    def is_scalar(self) -> bool:
        return self.coeffs.keys() <= {0}

    # -- comparison ------------------------------------------------------------

    def equals(self, other: "TensorMultivector") -> bool:
        self._require_compatible(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        return render_tensor(self)

    def __repr__(self) -> str:
        return f"TensorMultivector({render_tensor(self)!r}, n={self.n})"


def _tensor(n: int, coeffs: dict) -> TensorMultivector:
    """The result path of ``TensorMultivector`` (see ``_Record``); it still
    drops the zero coefficients."""
    tm = object.__new__(TensorMultivector)
    object.__setattr__(tm, "n", n)
    object.__setattr__(tm, "coeffs", {key: value for key, value in coeffs.items() if value})
    return tm


def identity(n: int) -> TensorMultivector:
    return TensorMultivector.scalar(1, n)


def generator(system: int, axis: int, n: int, sign: int = 1) -> TensorMultivector:
    """The embedded signed basis vector of one subsystem."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis index {axis} out of range 1..3")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 1 <= system <= n:
        raise ValueError(f"system index {system} out of range 1..{n}")
    return TensorMultivector(n, {1 << (axis - 1) << 3 * (system - 1): sign})


def word(factors, n: int) -> TensorMultivector:
    """Multiply a sequence of joint-algebra elements left to right."""
    result = identity(n)
    for factor in factors:
        result = result * factor
    return result


def identify_pseudoscalars(tm: TensorMultivector) -> TensorMultivector:
    """Collapse pairs of subsystem trivector factors to the scalar -1.

    All subsystem bases are taken to span one and the same handed space, so
    the unit trivector of any slot denotes the same volume orientation.  Two
    such factors therefore multiply like the square of one trivector, which
    is -1.  Pairs are removed left to right; a lone leftover trivector slot
    is preserved.
    """
    ones = (8**tm.n - 1) // 7  # bit 0 of every slot
    acc: dict[int, Coefficient] = {}
    for key, value in tm.coeffs.items():
        # bit 0 of every slot whose mask is 7
        full = key & key >> 1 & key >> 2 & ones
        pairs = full.bit_count() // 2
        if full.bit_count() & 1:
            full ^= 1 << full.bit_length() - 1  # a lone last trivector slot stays
        key ^= 7 * full
        if pairs & 1:
            value = -value
        acc[key] = acc.get(key, 0) + value
    return _tensor(tm.n, acc)


def render_tensor(tm: TensorMultivector) -> str:
    """Render with per-system letters, e.g. ``e1*f2*g2 - e12*g3``."""
    n = tm.n
    terms = []
    for key in sorted(tm.coeffs, key=lambda k: _slots(k, n)):
        names = [
            SYSTEM_LETTERS[slot] + BLADE_NAMES[mask][1:]
            for slot, mask in enumerate(_slots(key, n))
            if mask
        ]
        terms.append((tm.coeffs[key], "*".join(names) or "1"))
    return render_terms(terms)
