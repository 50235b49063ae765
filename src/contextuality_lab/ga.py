"""Exact arithmetic in the geometric algebra of Euclidean 3-space.

The algebra is spanned by eight basis blades indexed by bitmasks 0..7: bit i
of a mask is set when the basis vector e(i+1) divides the blade.  Products of
blades reduce through the orthonormality rules (a repeated factor squares to
1, swapping two distinct factors flips the sign), so every element is a
linear combination of the canonical blades

    1, e1, e2, e3, e12, e13, e23, e123.

Coefficients are exact ``int``, taken from non-bool ``int`` values, or
floats, taken from non-bool ``int`` and ``float`` values.  A multivector is
homogeneous in one of the two modes and the mode never mixes inside an
operation: the exact mode makes identity checking decidable, the float mode
serves ``verify --mode approx`` and the dense sweep oracle of the tests.
Multivectors are immutable values and every operation is a pure function.

One coefficient kernel, ``_product``, forms every geometric product: the
product ``*`` of two multivectors and :func:`word`, which reduces a sequence
of factors without building the multivectors between them.  It loops over
the nonzero terms of each operand only, and adds the terms into each result
coefficient in ascending mask order, left mask first; the order is fixed, so
an approx product has the same bits on either path.
"""

from itertools import compress
from operator import add, attrgetter, neg

#: The coefficient types: ``int`` (exact) and ``float`` (approx).
Coefficient = int | float

EXACT = "exact"
APPROX = "approx"
MODES = (EXACT, APPROX)

TOLERANCE = 1e-12

BLADE_COUNT = 8

#: Blade names per mask; ascending axis order inside a blade is canonical.
BLADE_NAMES = ("1", "e1", "e2", "e12", "e3", "e13", "e23", "e123")

#: Masks sorted by grade then by axes, the order used for rendering.
DISPLAY_ORDER = (0, 1, 2, 4, 3, 5, 6, 7)


#: Bit 0 and bits 0-1 of every 3-bit slot, for keys of up to 64 slots.
_SLOT_LOW_ONE = (8**64 - 1) // 7
_SLOT_LOW_TWO = 3 * _SLOT_LOW_ONE


def blade_product(key_a: int, key_b: int) -> tuple[int, int]:
    """Product of two blade keys as ``(sign, result_key)``.

    A key packs one 3-bit blade mask per slot, slot 1 in the lowest bits, so
    a one-slot key is a mask 0..7.  Slots multiply independently: generators
    of distinct slots commute.  The result key is the symmetric difference of
    the factor sets.  The sign counts the transpositions needed to sort the
    concatenation of two ascending factor lists: each bit of ``key_a`` above a
    bit of ``key_b`` in the same slot contributes one swap, found by shifting
    ``key_a`` right by 1 and by 2 and keeping what stays inside its slot.
    Repeated factors then cancel with a positive square.
    """
    swaps = (key_a >> 1 & _SLOT_LOW_TWO & key_b).bit_count() + (
        key_a >> 2 & _SLOT_LOW_ONE & key_b
    ).bit_count()
    return (-1 if swaps & 1 else 1), key_a ^ key_b


#: Precomputed 8 x 8 table of blade products: CAYLEY[a][b] = (sign, mask).
CAYLEY = tuple(
    tuple(blade_product(a, b) for b in range(BLADE_COUNT)) for a in range(BLADE_COUNT)
)


def _zero(mode: str) -> Coefficient:
    return 0 if mode == EXACT else 0.0


#: The zero coefficient row of each mode, copied to start a product.
_ZEROS = {mode: (_zero(mode),) * BLADE_COUNT for mode in MODES}

#: The blade masks in ascending order.
_MASKS = range(BLADE_COUNT)


def _product(left: tuple, right: tuple, mode: str) -> tuple:
    """The coefficients of the geometric product of two coefficient rows.

    Only nonzero terms are visited: ``compress`` skips the falsy
    coefficients (0, 0.0 and -0.0) and keeps ascending mask order, so each
    result coefficient sums its ``a * b * sign`` terms left mask first, then
    right mask, and approx floats come out the same bits in every caller.
    """
    acc = list(_ZEROS[mode])
    for i in compress(_MASKS, left):
        a, row = left[i], CAYLEY[i]
        for j in compress(_MASKS, right):
            sign, mask = row[j]
            acc[mask] += a * right[j] * sign
    return tuple(acc)


def _coerce(value, mode: str) -> Coefficient:
    """Check and normalize a raw coefficient for the given mode."""
    kind = type(value)
    if mode == EXACT:
        if kind is int:
            return value
        if kind is not bool and isinstance(value, int):
            return int(value)
        raise ValueError(f"exact mode needs int coefficients, got {value!r}")
    if kind is float:
        return value
    if kind is not bool and isinstance(value, (int, float)):
        return float(value)
    raise ValueError(f"approx mode needs int or float coefficients, got {value!r}")


class _Record:
    """Base of the package's immutable value records.

    A subclass lists its fields in ``__slots__``.  From the fields the base
    derives a constructor taking them by position or by keyword, equality
    (with records of the same class only), a hash over the fields, a
    ``Name(field=value, ...)`` repr and pickling; assigning or deleting a
    field raises ``AttributeError``.  A subclass writes its own ``__init__``,
    setting the fields with ``object.__setattr__``, only to check an argument
    or to supply a default.  A slot named with a leading underscore is no
    field but a private cache of a value derived from the fields: the
    subclass's own ``__init__`` sets it, and equality, hash, repr, pickling
    and the derived constructor leave it out.

    The constructor is the checked path: every value built from outside
    input passes through it.  An algebra record (``Multivector``,
    ``TensorMultivector``, ``GaussianRational``, ``ComplexMatrix``) also
    has a result path, one private module-level function next to its class
    that takes ``object.__new__`` and stores each field through its slot's
    bound ``__set__`` (``Multivector.coeffs.__set__``), formed once at
    import.  Only the type's own operations call it, on fields formed from
    operands that the checked path or an earlier operation built, so no
    check is repeated there: the mode is the operands', the shape is theirs,
    and so are the key ranges and the +1 or -1 signs of the joint algebra's
    signed blades.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        get = attrgetter(*cls._fields)
        # the field values as a tuple, for one field as for several
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for field, value in zip(self._fields, args):
            object.__setattr__(self, field, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values in slot order from positional and keyword
        arguments; a missing, extra, unknown or repeated field raises
        ``TypeError``."""
        names, name = cls._fields, cls.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} fields, got {len(args)} positional")
        values = dict(zip(names, args))
        for field, value in kwargs.items():
            if field not in names:
                raise TypeError(f"{name}() has no field {field!r}")
            if field in values:
                raise TypeError(f"{name}() got field {field!r} twice")
            values[field] = value
        missing = [field for field in names if field not in values]
        if missing:
            raise TypeError(f"{name}() is missing field(s) {', '.join(missing)}")
        return tuple(values[field] for field in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Multivector(_Record):
    """A dense multivector: one coefficient per canonical blade."""

    __slots__ = ("coeffs", "mode")

    def __init__(self, coeffs: tuple, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown coefficient mode {mode!r}")
        if len(coeffs) != BLADE_COUNT:
            raise ValueError("a multivector carries exactly 8 blade coefficients")
        object.__setattr__(self, "coeffs", tuple(_coerce(c, mode) for c in coeffs))
        object.__setattr__(self, "mode", mode)

    # -- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, value, mode: str = EXACT) -> "Multivector":
        return cls((value, *(_zero(mode),) * (BLADE_COUNT - 1)), mode)

    @classmethod
    def from_blades(cls, blade_coeffs: dict, mode: str = EXACT) -> "Multivector":
        """Build a multivector from a mask -> coefficient mapping."""
        if mode not in MODES:
            raise ValueError(f"unknown coefficient mode {mode!r}")
        out = list(_ZEROS[mode])
        for mask, value in blade_coeffs.items():
            if type(mask) is not int or not 0 <= mask < BLADE_COUNT:
                raise ValueError(f"blade mask {mask!r} out of range 0..7")
            out[mask] = out[mask] + _coerce(value, mode)
        return _multivector(tuple(out), mode)

    # -- mode plumbing ------------------------------------------------

    def _require_same_mode(self, other: "Multivector") -> None:
        if self.mode != other.mode:
            raise ValueError(f"mixed coefficient modes: {self.mode} vs {other.mode}")

    # -- linear structure ---------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        if self.mode != other.mode:
            self._require_same_mode(other)
        return _multivector(tuple(map(add, self.coeffs, other.coeffs)), self.mode)

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return _multivector(tuple(map(neg, self.coeffs)), self.mode)

    def scale(self, factor) -> "Multivector":
        c = _coerce(factor, self.mode)
        return _multivector(tuple([a * c for a in self.coeffs]), self.mode)

    # -- geometric product ----------------------------------------------

    def __mul__(self, other):
        """The geometric product with a multivector of the same mode, or the
        scaling by an ``int`` or ``float``.  The product's coefficients come
        from ``_product``, which loops over the nonzero terms of each operand
        in mask order."""
        if isinstance(other, Multivector):
            mode = self.mode
            if mode != other.mode:
                self._require_same_mode(other)
            return _multivector(_product(self.coeffs, other.coeffs, mode), mode)
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    # -- comparison -----------------------------------------------------

    def equals(self, other: "Multivector") -> bool:
        """Coefficientwise equality; approx mode compares within
        :data:`TOLERANCE`."""
        self._require_same_mode(other)
        if self.mode == EXACT:
            return self.coeffs == other.coeffs
        return all(abs(a - b) <= TOLERANCE for a, b in zip(self.coeffs, other.coeffs))

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        return render_multivector(self)

    def __repr__(self) -> str:
        return f"Multivector({render_multivector(self)!r}, mode={self.mode!r})"


_set_coeffs, _set_mode = Multivector.coeffs.__set__, Multivector.mode.__set__


def _multivector(coeffs: tuple, mode: str) -> Multivector:
    """The result path of ``Multivector`` (see ``_Record``)."""
    mv = object.__new__(Multivector)
    _set_coeffs(mv, coeffs)
    _set_mode(mv, mode)
    return mv


def word(factors) -> Multivector:
    """Multiply a nonempty sequence of multivectors left to right.

    Each factor must have the first factor's mode (the ``ValueError`` of
    ``*`` otherwise).  The coefficient rows are reduced through ``_product``
    and one ``Multivector`` is built at the end; each step sums its terms in
    the mask order of ``*``, so the value, approx bits included, is that of
    the left fold ``((f1 * f2) * f3) ...``.
    """
    factors = iter(factors)
    first = next(factors, None)
    if first is None:
        raise ValueError("a dense word needs at least one factor")
    mode, coeffs = first.mode, first.coeffs
    for factor in factors:
        if factor.mode != mode:
            first._require_same_mode(factor)
        coeffs = _product(coeffs, factor.coeffs, mode)
    return _multivector(coeffs, mode)


def basis_vector(axis: int, mode: str = EXACT) -> Multivector:
    """The grade-1 basis element e1, e2 or e3."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis index {axis} out of range 1..3")
    return Multivector.from_blades({1 << (axis - 1): 1}, mode)


def pseudoscalar(mode: str = EXACT) -> Multivector:
    """The unit trivector e123."""
    return Multivector.from_blades({7: 1}, mode)


# -- rendering -----------------------------------------------------------

def render_terms(terms) -> str:
    """Join ``(coefficient, blade name)`` terms into a signed sum such as
    ``1 + 2*e12 - e123``, skipping zero coefficients; the scalar blade is
    named ``1``."""
    parts: list[str] = []
    for value, name in terms:
        if not value:
            continue
        negative = value < 0
        magnitude = -value if negative else value
        if name == "1":
            body = str(magnitude)
        elif magnitude == 1:
            body = name
        else:
            body = f"{magnitude}*{name}"
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) or "0"


def render_multivector(mv: Multivector) -> str:
    """Render as a signed blade sum, e.g. ``1 + 2*e12 - e123``."""
    return render_terms((mv.coeffs[mask], BLADE_NAMES[mask]) for mask in DISPLAY_ORDER)
