"""Up to three commuting copies of the 3D geometric algebra, exact only.

Each subsystem carries its own copy of the eight-blade algebra from
:mod:`contextuality_lab.ga`.  A basis element of the joint algebra is an int
key that packs one 3-bit blade mask per subsystem, subsystem 1 in the lowest
bits, so a one-subsystem key is the ``ga`` mask itself.  Products multiply
keys through :func:`contextuality_lab.ga.blade_product`: no sign is exchanged
across slots, so generators living in different subsystems commute while
generators inside one slot keep their anticommutation rules.

No value carries a subsystem count: a slot left at zero is that subsystem's
identity, so the algebra of n copies sits unchanged inside that of more
(Doran & Lasenby, *Geometric Algebra for Physicists*, 2003).  Keys are
bounded only where they are built or checked, by :data:`MAX_SYSTEMS`.

Every value the package forms here is a word of signed generators, which is
one basis element times the sign +1 or -1, so an element is that signed blade
and nothing more; sums of blades are left to the dense algebra of ``ga``.
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

from .ga import BLADE_NAMES, EXACT, _SLOT_LOW_ONE, _coerce, _Record, blade_product, render_terms

MAX_SYSTEMS = 3
SYSTEM_LETTERS = ("e", "f", "g")


class TensorMultivector(_Record):
    """One signed basis blade of the joint algebra: ``sign`` (+1 or -1)
    times the blade of the packed ``key``.  The key fixes the subsystems the
    blade lives on, so no subsystem count is kept beside it."""

    __slots__ = ("sign", "key")

    def __init__(self, sign: int, key: int):
        sign = _coerce(sign, EXACT)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if type(key) is not int or not 0 <= key < 8**MAX_SYSTEMS:
            raise ValueError(f"bad blade key {key!r} for {MAX_SYSTEMS} systems")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "key", key)

    @property
    def coeffs(self) -> dict:
        """``{key: sign}``, the element as a blade sum; the benchmark's
        ``systems.mul.term_pairs`` counter reads it."""
        return {self.key: self.sign}

    def __neg__(self) -> "TensorMultivector":
        return _blade(-self.sign, self.key)

    def __mul__(self, other):
        if not isinstance(other, TensorMultivector):
            return NotImplemented
        sign, key = blade_product(self.key, other.key)
        return _blade(sign * self.sign * other.sign, key)

    def scalar_part(self) -> int:
        return 0 if self.key else self.sign

    def is_scalar(self) -> bool:
        return not self.key

    def equals(self, other: "TensorMultivector") -> bool:
        """Record equality: the joint algebra is exact in either mode."""
        return self == other

    def __str__(self) -> str:
        return render_tensor(self)


_set_sign = TensorMultivector.sign.__set__
_set_key = TensorMultivector.key.__set__


def _blade(sign: int, key: int) -> TensorMultivector:
    """The result path of ``TensorMultivector`` (see ``_Record``)."""
    tm = object.__new__(TensorMultivector)
    _set_sign(tm, sign)
    _set_key(tm, key)
    return tm


#: The unit scalar, the identity of any number of subsystems.
ONE = TensorMultivector(1, 0)


def generator(system: int, axis: int, sign: int = 1) -> TensorMultivector:
    """The embedded signed basis vector of one subsystem."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis index {axis} out of range 1..3")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 1 <= system <= MAX_SYSTEMS:
        raise ValueError(f"system index {system} out of range 1..{MAX_SYSTEMS}")
    return TensorMultivector(sign, 1 << (axis - 1) << 3 * (system - 1))


def word(factors) -> TensorMultivector:
    """Multiply a sequence of joint-algebra elements left to right, as one
    ``(sign, key)`` pair reduced through :func:`blade_product`."""
    sign, key = 1, 0
    for factor in factors:
        step, key = blade_product(key, factor.key)
        sign *= step * factor.sign
    return _blade(sign, key)


def identify_pseudoscalars(tm: TensorMultivector) -> TensorMultivector:
    """Collapse pairs of subsystem trivector factors to the scalar -1.

    All subsystem bases are taken to span one and the same handed space, so
    the unit trivector of any slot denotes the same volume orientation.  Two
    such factors therefore multiply like the square of one trivector, which
    is -1.  Pairs are removed left to right; a lone leftover trivector slot
    is preserved.
    """
    key = tm.key
    # bit 0 of every slot whose mask is 7
    full = key & key >> 1 & key >> 2 & _SLOT_LOW_ONE
    pairs = full.bit_count() // 2
    if full.bit_count() & 1:
        full ^= 1 << full.bit_length() - 1  # a lone last trivector slot stays
    return _blade(-tm.sign if pairs & 1 else tm.sign, key ^ 7 * full)


def render_tensor(tm: TensorMultivector) -> str:
    """Render with per-system letters, e.g. ``e1*f2*g2`` or ``-e12*g3``."""
    masks = (tm.key >> 3 * slot & 7 for slot in range(MAX_SYSTEMS))
    names = [letter + BLADE_NAMES[mask][1:] for letter, mask in zip(SYSTEM_LETTERS, masks) if mask]
    return render_terms([(tm.sign, "*".join(names) or "1")])
