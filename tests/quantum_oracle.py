"""Dense reference for the Pauli-word kernel of ``contextuality_lab.quantum``.

The library decides every n-site operator claim on words ``(k, x, z)``
meaning i^k X^x Z^z.  The functions here take the long way round: full
2^n x 2^n Gaussian-rational Kronecker words, multiplied and compared entry by
entry, and an eigencheck that applies the whole matrix to the amplitude
vector.  The kernel must reach exactly the same verdicts.
"""

from contextuality_lab.quantum import ZERO, ComplexMatrix, GaussianRational, pauli

#: i^k for k = 0, 1, 2, 3.
POWERS_OF_I = (1, GaussianRational(0, 1), -1, GaussianRational(0, -1))


def observable_matrix(product, n: int) -> ComplexMatrix:
    """Tensor word of the product: spin matrices in the named slots,
    identity elsewhere, slots ordered by ascending subsystem index."""
    slots = {f.system: pauli(f.axis) for f in product.factors}
    highest = max(slots)
    if highest > n:
        raise ValueError(f"observable {product.label} needs {highest} systems, have {n}")
    result = ComplexMatrix.identity(1)
    for system in range(1, n + 1):
        result = result.kron(slots.get(system, ComplexMatrix.identity(2)))
    return result


def word_matrix(word: tuple, n: int) -> ComplexMatrix:
    """i^k times the Kronecker product over subsystems 1..n of X^x_s Z^z_s,
    reading subsystem s from bit n - s of the masks."""
    k, x, z = word
    result = ComplexMatrix.identity(1)
    for system in range(1, n + 1):
        bit = 1 << (n - system)
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
