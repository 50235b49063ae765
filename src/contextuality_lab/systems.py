"""Up to three commuting copies of the 3D geometric algebra.

Each subsystem carries its own copy of the eight-blade algebra from
:mod:`contextuality_lab.ga`; a basis element of the joint algebra is a tuple
of blade masks, one slot per subsystem.  Products act slot by slot and no
sign is exchanged across slots, so generators living in different subsystems
commute while generators inside one slot keep their anticommutation rules.

Rendering names the subsystem bases e, f and g: the embedded basis vector of
axis 2 in subsystem 3 prints as ``g2``.

The joint algebra treats the subsystem bases as fully independent.  The one
cross-subsystem identification this module knows about is handedness:
:func:`identify_pseudoscalars` rewrites words under the rule that every
subsystem's unit trivector denotes one and the same volume orientation, so a
pair of trivector factors from two slots collapses to the square -1.

Elements are immutable values and all operations are pure functions; they
are safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .ga import (
    BLADE_NAMES,
    CAYLEY,
    DEFAULT_TOLERANCE,
    EXACT,
    Coefficient,
    Multivector,
    _Record,
    _coerce,
    _zero,
)

MAX_SYSTEMS = 3
SYSTEM_LETTERS = ("e", "f", "g")

BladeTuple = tuple


def _scalar_key(n: int) -> BladeTuple:
    return (0,) * n


class TensorMultivector(_Record):
    """Sparse element of the joint algebra: blade-mask tuples to coefficients."""

    __slots__ = ("n", "coeffs", "mode")

    def __init__(self, n: int, coeffs: Mapping[BladeTuple, Coefficient], mode: str):
        if not 1 <= n <= MAX_SYSTEMS:
            raise ValueError(f"system count {n} out of range 1..{MAX_SYSTEMS}")
        cleaned = {}
        for key, value in coeffs.items():
            if len(key) != n or any(not 0 <= m < 8 for m in key):
                raise ValueError(f"bad blade tuple {key!r} for {n} systems")
            if value:
                cleaned[key] = value
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "mode", mode)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, mode: str = EXACT) -> "TensorMultivector":
        return cls(n, {}, mode)

    @classmethod
    def scalar(cls, value, n: int, mode: str = EXACT) -> "TensorMultivector":
        return cls(n, {_scalar_key(n): _coerce(value, mode)}, mode)

    # -- plumbing ---------------------------------------------------------

    def _require_compatible(self, other: "TensorMultivector") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched system counts: {self.n} vs {other.n}")
        if self.mode != other.mode:
            raise ValueError(f"mixed coefficient modes: {self.mode} vs {other.mode}")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "TensorMultivector") -> "TensorMultivector":
        if not isinstance(other, TensorMultivector):
            return NotImplemented
        self._require_compatible(other)
        acc = dict(self.coeffs)
        for key, value in other.coeffs.items():
            acc[key] = acc.get(key, _zero(self.mode)) + value
        return TensorMultivector(self.n, acc, self.mode)

    def __neg__(self) -> "TensorMultivector":
        return TensorMultivector(self.n, {k: -v for k, v in self.coeffs.items()}, self.mode)

    def __sub__(self, other: "TensorMultivector") -> "TensorMultivector":
        if not isinstance(other, TensorMultivector):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "TensorMultivector":
        c = _coerce(factor, self.mode)
        return TensorMultivector(self.n, {k: v * c for k, v in self.coeffs.items()}, self.mode)

    # -- product -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return self.scale(other)
        if not isinstance(other, TensorMultivector):
            return NotImplemented
        self._require_compatible(other)
        acc: dict[BladeTuple, Coefficient] = {}
        zero = _zero(self.mode)
        get = acc.get
        for key_a, a in self.coeffs.items():
            for key_b, b in other.coeffs.items():
                sign = 1
                masks = []
                for mask_a, mask_b in zip(key_a, key_b):
                    s, m = CAYLEY[mask_a][mask_b]
                    sign *= s
                    masks.append(m)
                key = tuple(masks)
                acc[key] = get(key, zero) + a * b * sign
        return TensorMultivector(self.n, acc, self.mode)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return self.scale(other)
        return NotImplemented

    # -- projections ---------------------------------------------------------

    def scalar_part(self) -> Coefficient:
        return self.coeffs.get(_scalar_key(self.n), _zero(self.mode))

    def is_scalar(self) -> bool:
        return set(self.coeffs) <= {_scalar_key(self.n)}

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- comparison ------------------------------------------------------------

    def equals(self, other: "TensorMultivector", tolerance: float | None = None) -> bool:
        self._require_compatible(other)
        if self.mode == EXACT:
            return self.coeffs == other.coeffs
        tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
        keys = set(self.coeffs) | set(other.coeffs)
        zero = _zero(self.mode)
        return all(
            abs(self.coeffs.get(k, zero) - other.coeffs.get(k, zero)) <= tol for k in keys
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorMultivector):
            return NotImplemented
        return (
            self.n == other.n and self.mode == other.mode and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.mode, frozenset(self.coeffs.items())))

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        return render_tensor(self)

    def __repr__(self) -> str:
        return f"TensorMultivector({render_tensor(self)!r}, n={self.n}, mode={self.mode!r})"


def identity(n: int, mode: str = EXACT) -> TensorMultivector:
    return TensorMultivector.scalar(1, n, mode)


def embed(system: int, mv: Multivector, n: int) -> TensorMultivector:
    """Place a single-copy multivector into one slot, identity elsewhere."""
    if not 1 <= system <= n:
        raise ValueError(f"system index {system} out of range 1..{n}")
    coeffs: dict[BladeTuple, Coefficient] = {}
    for mask, value in enumerate(mv.coeffs):
        if value:
            key = tuple(mask if k == system - 1 else 0 for k in range(n))
            coeffs[key] = value
    return TensorMultivector(n, coeffs, mv.mode)


def generator(system: int, axis: int, n: int, sign: int = 1, mode: str = EXACT) -> TensorMultivector:
    """The embedded signed basis vector of one subsystem."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis index {axis} out of range 1..3")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    mv = Multivector.from_blades({1 << (axis - 1): sign}, mode)
    return embed(system, mv, n)


def word(factors, n: int, mode: str = EXACT) -> TensorMultivector:
    """Multiply a sequence of joint-algebra elements left to right."""
    result = identity(n, mode)
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
    acc: dict[BladeTuple, Coefficient] = {}
    for key, value in tm.coeffs.items():
        masks = list(key)
        full = [slot for slot, mask in enumerate(masks) if mask == 7]
        while len(full) >= 2:
            masks[full.pop(0)] = 0
            masks[full.pop(0)] = 0
            value = -value
        out = tuple(masks)
        acc[out] = acc.get(out, _zero(tm.mode)) + value
    return TensorMultivector(tm.n, acc, tm.mode)


def render_tensor(tm: TensorMultivector) -> str:
    """Render with per-system letters, e.g. ``e1*f2*g2 - e12*g3``."""
    if not tm.coeffs:
        return "0"
    parts: list[str] = []
    for key in sorted(tm.coeffs):
        value = tm.coeffs[key]
        negative = value < 0
        magnitude = -value if negative else value
        names = [
            SYSTEM_LETTERS[slot] + BLADE_NAMES[mask][1:]
            for slot, mask in enumerate(key)
            if mask
        ]
        blade = "*".join(names) if names else "1"
        if magnitude == 1 and names:
            body = blade
        elif names:
            body = f"{magnitude}*{blade}"
        else:
            body = str(magnitude)
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)
