"""Dense reference for the Pauli-word kernel of ``contextuality_lab.quantum``.

The library decides every n-site operator claim on words ``(k, x, z)``
meaning i^k X^x Z^z.  The functions here take the long way round: full
2^n x 2^n Gaussian-rational Kronecker words, multiplied and compared entry by
entry, and an eigencheck that applies the whole matrix to the amplitude
vector.  The kernel must reach exactly the same verdicts.

Subsystem s sits at bit s - 1 of a word's masks and of a basis ket's index,
so the Kronecker products here run from subsystem n down to subsystem 1: the
first factor of a Kronecker product holds the most significant bit.
"""

from contextuality_lab.quantum import ZERO, ComplexMatrix, GaussianRational, pauli

#: i^k for k = 0, 1, 2, 3.
POWERS_OF_I = (1, GaussianRational(0, 1), -1, GaussianRational(0, -1))

#: Per axis, (x bit, z bit, phase exponent) of its site in a word: Y = iXZ.
PAULI_CODES = {"x": (1, 0, 0), "y": (1, 1, 1), "z": (0, 1, 0)}


def factor_word(product, n: int, codes=PAULI_CODES) -> tuple:
    """The product's word ``(k, x, z)`` built factor by factor from
    ``codes``: subsystem s sets bit s - 1 of each mask its axis's code sets,
    and adds the code's phase to k."""
    k = x = z = 0
    for factor in product.factors:
        if factor.system > n:
            highest = max(f.system for f in product.factors)
            raise ValueError(f"observable {product.label} needs {highest} systems, have {n}")
        x_bit, z_bit, phase = codes[factor.axis]
        x |= x_bit << (factor.system - 1)
        z |= z_bit << (factor.system - 1)
        k += phase
    return k % 4, x, z


def observable_matrix(product, n: int) -> ComplexMatrix:
    """Tensor word of the product: spin matrices in the named slots,
    identity elsewhere, subsystem n first."""
    slots = {f.system: pauli(f.axis) for f in product.factors}
    highest = max(slots)
    if highest > n:
        raise ValueError(f"observable {product.label} needs {highest} systems, have {n}")
    result = ComplexMatrix.identity(1)
    for system in range(n, 0, -1):
        result = result.kron(slots.get(system, ComplexMatrix.identity(2)))
    return result


def word_matrix(word: tuple, n: int) -> ComplexMatrix:
    """i^k times the Kronecker product over subsystems n..1 of X^x_s Z^z_s,
    reading subsystem s from bit s - 1 of the masks."""
    k, x, z = word
    result = ComplexMatrix.identity(1)
    for system in range(n, 0, -1):
        bit = 1 << (system - 1)
        site = ComplexMatrix.identity(2)
        if x & bit:
            site = site @ pauli("x")
        if z & bit:
            site = site @ pauli("z")
        result = result.kron(site)
    return result.scale(POWERS_OF_I[k])


def commutes(a: ComplexMatrix, b: ComplexMatrix) -> bool:
    return a @ b == b @ a


def apply(matrix: ComplexMatrix, vector: tuple) -> tuple:
    if len(vector) != matrix.dim:
        raise ValueError(f"dimension mismatch: {matrix.dim} vs {len(vector)}")
    return tuple(
        sum((a * v for a, v in zip(row, vector) if a and v), ZERO)
        for row in matrix.entries
    )


def dense_eigencheck(state, product, eigenvalue: int, n: int) -> bool:
    matrix = observable_matrix(product, n)
    if matrix.dim != state.dim:
        raise ValueError(f"dimension mismatch: {matrix.dim} vs {state.dim}")
    image = apply(matrix, state.amplitudes)
    return all(out == amp * eigenvalue for out, amp in zip(image, state.amplitudes))


def dense_verify_operator_identities(cs) -> tuple:
    n = cs.n_systems
    target_dim = 2 ** n
    results = []
    for line in cs.lines:
        product = ComplexMatrix.identity(target_dim)
        for term in line.terms:
            product = product @ observable_matrix(term, n)
        results.append(product == ComplexMatrix.identity(target_dim).scale(line.required))
    return tuple(results)
