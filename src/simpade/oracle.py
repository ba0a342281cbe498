"""Brute-force reference solver in coefficient space.

The solution set of a problem instance is a GF(p)-vector space cut out by
linear conditions on the coefficients of lambda: for every i, the remainder
rem(lambda * S_i, g_i) must have zero coefficients at indices N_i and above.
Column j of that linear map holds the high coefficients of
c_j = rem(x^j * S_i, g_i).  They are built by the recurrence
c_j = x * c_{j-1} mod g_i from c_0 = S_i: one shift and one subtraction of
(top coefficient) * g_i / lc(g_i) per column, written straight into one
preallocated numpy array.  One in-place Gauss-Jordan elimination on that
array gives the nullspace.  The module deliberately shares no arithmetic
code with the main solvers: it uses neither ``Poly`` arithmetic nor the
solvers' elimination kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_CELLS = 10**6
_BAND_CELLS = 2048


class OracleSizeError(ValueError):
    """The instance needs more cells than the dense oracle's size guard."""


@dataclass(frozen=True)
class SolutionSpace:
    """Nullspace basis: coefficient vectors of lambda, each of length N_0."""

    basis: tuple
    dim: int


def _zeros(rows, cols, p):
    # int64 holds every product of two residues below 2^31; larger p
    # needs Python ints
    return np.zeros((rows, cols), dtype=np.int64 if p < 2**31 else object)


def _eliminate(m, p):
    """Reduce m to reduced row echelon form in place; returns the pivots.

    Entries must lie in [0, p) and stay there.  For each pivot one rank-1
    update clears the pivot column, restricted to the columns from the
    pivot on, where alone the pivot row can be nonzero.  The update is
    applied a band of rows at a time, each band's outer product at most
    _BAND_CELLS entries: for p >= 2^31 an outer product of the whole
    matrix would hold as many fresh Python ints again as the matrix.
    """
    nrows, ncols = m.shape
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        nonzero = np.flatnonzero(m[rank:, col])
        if not len(nonzero):
            continue
        piv = rank + int(nonzero[0])
        if piv != rank:
            m[[rank, piv], col:] = m[[piv, rank], col:]
        row = m[rank, col:]
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        factors = m[:, col].copy()
        factors[rank] = 0
        band = max(1, _BAND_CELLS // (ncols - col))
        for top in range(0, nrows, band):
            block = m[top:top + band, col:]
            block -= np.outer(factors[top:top + band], row)
            block %= p
        pivots.append(col)
    return pivots


def _rank(rows, ncols, p):
    m = _zeros(len(rows), ncols, p)
    for i, r in enumerate(rows):
        m[i] = [v % p for v in r]
    return len(_eliminate(m, p))


def _condition_matrix(instance):
    """Coefficients N_i .. deg g_i - 1 of x^j S_i mod g_i, j < N_0, stacked."""
    p = instance.field.p
    n0 = instance.bounds[0]
    parts = [(s.to_list(), g.to_list(), ni) for s, g, ni in
             zip(instance.series, instance.moduli, instance.bounds[1:])
             if ni < g.degree]  # N_i = deg g_i leaves phi_i unrestricted
    m = _zeros(sum(len(g) - 1 - ni for _, g, ni in parts), n0, p)
    top = 0
    for s, g, ni in parts:
        dg = len(g) - 1
        inv_lead = pow(g[-1], p - 2, p)
        monic = np.array([v * inv_lead % p for v in g], dtype=m.dtype)
        # c_j lives in buf[n0 - j:n0 - j + dg]; the window one slot lower
        # holds x * c_j, whose top coefficient the step then cancels
        buf = np.zeros(n0 + dg, dtype=m.dtype)
        buf[n0:n0 + len(s)] = s
        for j in range(n0):
            lo = n0 - j
            m[top:top + dg - ni, j] = buf[lo + ni:lo + dg]
            shifted = buf[lo - 1:lo + dg]
            lead = int(shifted[dg])
            if lead:
                shifted -= lead * monic
                shifted %= p
        top += dg - ni
    return m


def oracle_solution_space(instance, max_cells=DEFAULT_MAX_CELLS):
    """Nullspace of the coefficient-space solution conditions of an instance."""
    p = instance.field.p
    n0 = instance.bounds[0]
    cells = n0 * (instance.n + 1) * instance.max_modulus_degree
    if cells > max_cells:
        raise OracleSizeError(f"instance too large for the dense oracle "
                              f"({cells} cells > {max_cells})")
    m = _condition_matrix(instance)
    pivots = _eliminate(m, p)
    # one basis vector per free column: 1 there, minus that column of the
    # reduced rows at the pivots.  A mask rather than np.setdiff1d and
    # p - v rather than -v: on first use those numpy routines made 0.65 MB
    # and 64 KB more memory resident.
    is_free = np.ones(n0, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = _zeros(len(free), n0, p)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (p - m[:len(pivots), free].T) % p
    return SolutionSpace(tuple([tuple(v) for v in basis.tolist()]),
                         len(free))


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
