"""The sparse joint algebra: sums of packed blade keys with int coefficients.

``systems.TensorMultivector`` holds one signed blade, because every value the
package forms in the joint algebra is a word of signed generators.  This
module keeps the general algebra those values live in, with sums,
differences and integer multiples, as the reference the one-blade kernel is
tested against.  Keys are packed as in ``systems`` (see ``blade_keys``), but
a product multiplies slot by slot through the one-slot table ``ga.CAYLEY``,
and trivector pairs collapse by walking the slot list, so the oracle shares
no code with the packed sign rule of ``ga.blade_product`` or the bit trick of
``systems.identify_pseudoscalars``.
"""

from collections.abc import Mapping

from blade_keys import pack, unpack
from contextuality_lab.ga import (
    BLADE_NAMES,
    CAYLEY,
    EXACT,
    _coerce,
    _Record,
    render_terms,
)
from contextuality_lab.systems import MAX_SYSTEMS, SYSTEM_LETTERS


class SparseTensor(_Record):
    """Sparse element of the joint algebra: packed blade keys to coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping):
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

    @classmethod
    def scalar(cls, value, n: int) -> "SparseTensor":
        return cls(n, {0: _coerce(value, EXACT)})

    def _require_compatible(self, other: "SparseTensor") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched system counts: {self.n} vs {other.n}")

    def __add__(self, other: "SparseTensor") -> "SparseTensor":
        if not isinstance(other, SparseTensor):
            return NotImplemented
        self._require_compatible(other)
        acc = dict(self.coeffs)
        for key, value in other.coeffs.items():
            acc[key] = acc.get(key, 0) + value
        return _sparse(self.n, acc)

    def __neg__(self) -> "SparseTensor":
        return _sparse(self.n, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "SparseTensor") -> "SparseTensor":
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "SparseTensor":
        c = _coerce(factor, EXACT)
        return _sparse(self.n, {k: v * c for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, SparseTensor):
            return self.scale(other) if isinstance(other, (int, float)) else NotImplemented
        self._require_compatible(other)
        acc = {}
        for key_a, a in self.coeffs.items():
            for key_b, b in other.coeffs.items():
                sign, key = _slot_product(key_a, key_b, self.n)
                acc[key] = acc.get(key, 0) + a * b * sign
        return _sparse(self.n, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    def scalar_part(self) -> int:
        return self.coeffs.get(0, 0)

    def is_scalar(self) -> bool:
        return self.coeffs.keys() <= {0}

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"SparseTensor({render(self)!r}, n={self.n})"


def _sparse(n: int, coeffs: dict) -> SparseTensor:
    """The result path of ``SparseTensor`` (see ``ga._Record``); it drops the
    zero coefficients."""
    tm = object.__new__(SparseTensor)
    object.__setattr__(tm, "n", n)
    object.__setattr__(tm, "coeffs", {key: value for key, value in coeffs.items() if value})
    return tm


def _slot_product(key_a: int, key_b: int, n: int) -> tuple:
    """``(sign, key)`` of two blade keys, each slot through ``CAYLEY``."""
    sign, masks = 1, []
    for mask_a, mask_b in zip(unpack(key_a, n), unpack(key_b, n)):
        s, mask = CAYLEY[mask_a][mask_b]
        sign *= s
        masks.append(mask)
    return sign, pack(masks)


def of(tm, n: int) -> SparseTensor:
    """The oracle value of a ``systems.TensorMultivector`` in the algebra of
    n subsystems; a key that reaches beyond slot n is refused."""
    return SparseTensor(n, {tm.key: tm.sign})


def identity(n: int) -> SparseTensor:
    return SparseTensor.scalar(1, n)


def generator(system: int, axis: int, n: int, sign: int = 1) -> SparseTensor:
    """The embedded signed basis vector of one subsystem."""
    masks = [0] * n
    masks[system - 1] = 1 << (axis - 1)
    return SparseTensor(n, {pack(masks): sign})


def word(factors, n: int) -> SparseTensor:
    """Multiply a sequence of elements left to right."""
    result = identity(n)
    for factor in factors:
        result = result * factor
    return result


def identify_pseudoscalars(tm: SparseTensor) -> SparseTensor:
    """Per term, clear the first two trivector slots and negate, while two
    remain; a lone last trivector slot stays."""
    acc = {}
    for key, value in tm.coeffs.items():
        masks = list(unpack(key, tm.n))
        full = [slot for slot, mask in enumerate(masks) if mask == 7]
        while len(full) >= 2:
            masks[full.pop(0)] = 0
            masks[full.pop(0)] = 0
            value = -value
        out = pack(masks)
        acc[out] = acc.get(out, 0) + value
    return _sparse(tm.n, acc)


def render(tm: SparseTensor) -> str:
    """Render with per-system letters, e.g. ``e1*f2*g2 - e12*g3``."""
    terms = []
    for key in sorted(tm.coeffs, key=lambda k: unpack(k, tm.n)):
        names = [
            SYSTEM_LETTERS[slot] + BLADE_NAMES[mask][1:]
            for slot, mask in enumerate(unpack(key, tm.n))
            if mask
        ]
        terms.append((tm.coeffs[key], "*".join(names) or "1"))
    return render_terms(terms)
