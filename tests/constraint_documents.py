"""The ``--constraints`` document of a constraint set, for the tests that
write one or edit one before writing it."""


def document(cs) -> dict:
    """``{"name": str, "lines": [{"terms": [str, ...], "required": 1 or -1},
    ...]}``, the shape ``ConstraintSet.from_json`` reads."""
    return {
        "name": cs.name,
        "lines": [
            {"terms": [t.label for t in line.terms], "required": line.required}
            for line in cs.lines
        ],
    }
