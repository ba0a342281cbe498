"""Brute-force reference solver in coefficient space.

The solution set of a problem instance is a GF(p)-vector space cut out by
linear conditions on the coefficients of lambda: for every i, the remainder
rem(lambda * S_i, g_i) must have zero coefficients at indices N_i and above.
This module builds that linear map densely and computes its nullspace with
its own Gaussian elimination, deliberately sharing no arithmetic code with
the main solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_MAX_CELLS = 10**6


class OracleSizeError(ValueError):
    """The instance needs more cells than the dense oracle's size guard."""


@dataclass(frozen=True)
class SolutionSpace:
    """Nullspace basis: coefficient vectors of lambda, each of length N_0."""

    basis: tuple
    dim: int


def _rem_coeffs(a, b, p):
    """Remainder of coefficient list a modulo b over GF(p) (schoolbook)."""
    db = len(b) - 1
    r = [c % p for c in a] + [0] * max(0, db - len(a))
    inv_lead = pow(b[-1], p - 2, p)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db]
        if c:
            c = c * inv_lead % p
            for j in range(db + 1):
                r[k + j] = (r[k + j] - c * b[j]) % p
    return r[:db]


def _rref(rows, ncols, p):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] % p:
                f = m[i][col] % p
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return m[:rank], pivots


def _rank(rows, ncols, p):
    return len(_rref(rows, ncols, p)[0])


def _nullspace(rows, ncols, p):
    reduced, pivots = _rref(rows, ncols, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in zip(reduced, pivots):
            vec[pc] = (-r[fc]) % p
        basis.append(vec)
    return basis


def oracle_solution_space(instance, max_cells=DEFAULT_MAX_CELLS):
    """Nullspace of the coefficient-space solution conditions of an instance."""
    p = instance.field.p
    n0 = instance.bounds[0]
    cells = n0 * (instance.n + 1) * instance.max_modulus_degree
    if cells > max_cells:
        raise OracleSizeError(f"instance too large for the dense oracle "
                              f"({cells} cells > {max_cells})")
    rows = []
    for idx in range(instance.n):
        s = instance.series[idx].to_list()
        g = instance.moduli[idx].to_list()
        ni = instance.bounds[idx + 1]
        dg = len(g) - 1
        if ni >= dg:
            continue  # no constraints from this component
        # column j of the map: high coefficients of rem(x^j * S_i, g_i)
        cols = []
        for j in range(n0):
            shifted = [0] * j + s
            cols.append(_rem_coeffs(shifted, g, p))
        for c in range(ni, dg):
            rows.append([cols[j][c] for j in range(n0)])
    if not rows:
        rows = [[0] * n0]
    basis = _nullspace(rows, n0, p)
    return SolutionSpace(tuple(tuple(v) for v in basis), len(basis))


def _spec_expansion_vectors(spec, n0, p):
    vectors = []
    for lam, delta in zip(spec.lambdas, spec.deltas):
        coeffs = lam.to_list()
        for j in range(-delta):
            vec = [0] * n0
            for i, c in enumerate(coeffs):
                pos = i + j
                if pos >= n0:
                    raise ValueError("expanded lambda exceeds the N_0 bound")
                vec[pos] = c % p
            vectors.append(vec)
    return vectors


def spec_matches_oracle(spec, instance, max_cells=DEFAULT_MAX_CELLS):
    """True iff the K-span of the expanded spec equals the oracle nullspace."""
    p = instance.field.p
    n0 = instance.bounds[0]
    space = oracle_solution_space(instance, max_cells)
    expansion = _spec_expansion_vectors(spec, n0, p)
    oracle_rows = [list(v) for v in space.basis]
    r_oracle = space.dim
    r_spec = _rank(expansion, n0, p) if expansion else 0
    r_both = _rank(oracle_rows + expansion, n0, p)
    return r_oracle == r_spec == r_both
