"""Joint-algebra blade keys spelled as per-subsystem tuples.

``systems.TensorMultivector`` keys a basis element by an int that packs one
3-bit blade mask per subsystem, subsystem 1 in the lowest bits.  Tests write a
key as the tuple of its masks, subsystem 1 first, and convert here.
"""


def pack(masks) -> int:
    """The int key of a tuple of blade masks."""
    key = 0
    for slot, mask in enumerate(masks):
        key |= mask << 3 * slot
    return key


def unpack(key: int, n: int) -> tuple:
    """The blade masks of an n-subsystem key, subsystem 1 first."""
    return tuple(key >> 3 * slot & 7 for slot in range(n))
