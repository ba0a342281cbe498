"""Shifted minimal approximant bases.

m_basis raises the order one step at a time on coefficient arrays: each
step is one shift-ordered elimination of the constant residual, applied to
the basis and the residual by one broadcast update per pivot;
pm_basis halves the order recursively, unpacks only the residual's
coefficients the second half needs and multiplies the partial bases;
popov_basis normalises the result to the canonical shifted Popov form;
neg_min_basis multiplies out, at the top split, only the rows of negative
shifted degree and normalises only those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ffpoly import Poly, _strip
from .polymat import (PolyMatrix, _check_shift, _mat_mul_window, mat_mul,
                      popov_canonical, shifted_row_degrees)

PM_BASIS_THRESHOLD = 32


@dataclass(frozen=True)
class ApproximantBasisResult:
    """An approximant basis F of the given order with rowdeg_s F = degrees."""

    basis: PolyMatrix
    degrees: tuple
    order: int
    shift: tuple


@dataclass(frozen=True)
class NegativePart:
    """Rows of the canonical approximant basis with negative shifted degree."""

    rows: tuple          # tuple of row tuples of Poly (possibly empty)
    degrees: tuple       # matching shifted degrees, all negative
    width: int

    def as_matrix(self, field):
        if not self.rows:
            raise ValueError("empty negative part has no matrix form")
        return PolyMatrix(field, self.rows)


def m_basis(d, A, s):
    """Iterative order-basis computation (order 1 per step).

    At step k the constant residual Delta = coefficient k of F*A is read
    once and eliminated on ints, visiting rows by (current shifted degree,
    index).  A row whose reduced Delta row is nonzero becomes a pivot, with
    its first nonzero column c; every later row r with Delta[r][c] != 0
    takes f_r = Delta[r][c] / Delta[pivot][c], and one broadcast update
    subtracts f (x) the pivot row from all those rows of F and of the
    residual.  Pivot rows are then multiplied by x; eliminated rows keep
    their degree.
    """
    n, m = A.nrows, A.ncols
    _check_shift(s, n, "approximant input (rows)")
    if d < 0:
        raise ValueError("order must be nonnegative")
    s = tuple(s)
    if d == 0:
        return ApproximantBasisResult(PolyMatrix.identity(A.field, n), s, 0, s)
    field = A.field
    p = field.p
    dtype = np.int64 if p < 2**31 else object
    Rc = np.zeros((n, m, d), dtype=dtype)
    for i in range(n):
        for j in range(m):
            cs = A.entry(i, j).coeffs[:d]
            if cs:
                Rc[i, j, :len(cs)] = cs
    Fc = np.zeros((n, n, d + 1), dtype=dtype)
    for i in range(n):
        Fc[i, i, 0] = 1
    t = list(s)
    for k in range(d):
        # Right-looking: a pivot's row is final when it is found, and every
        # later row meets the same pivots, in the same order and with the
        # same factors, as when each row is reduced on reaching it, so F
        # and t equal the left-looking (per row pair) elimination's.
        delta = Rc[:, :, k].tolist()
        order = sorted(range(n), key=lambda i: (t[i], i))
        pivots = []
        for a, i in enumerate(order):
            piv = delta[i]
            c = next((j for j, v in enumerate(piv) if v), None)
            if c is None:
                continue
            pivots.append(i)
            inv = pow(piv[c], p - 2, p)
            hit, fs = [], []
            for r in order[a + 1:]:
                row = delta[r]
                if row[c]:
                    f = row[c] * inv % p
                    delta[r] = [(u - f * v) % p for u, v in zip(row, piv)]
                    hit.append(r)
                    fs.append(f)
            if hit:
                # deg F <= k and R vanishes below x^k at step k
                hit = np.array(hit)
                f = np.array(fs, dtype=dtype)[:, None, None]
                Fc[hit, :, :k + 1] = (Fc[hit, :, :k + 1]
                                      - f * Fc[i, :, :k + 1]) % p
                Rc[hit, :, k + 1:] = (Rc[hit, :, k + 1:]
                                      - f * Rc[i, :, k + 1:]) % p
        Rc[:, :, k] = delta
        for i in pivots:
            Fc[i, :, 1:] = Fc[i, :, :-1]
            Fc[i, :, 0] = 0
            Rc[i, :, k + 1:] = Rc[i, :, k:-1]
            Rc[i, :, k] = 0
            t[i] += 1
    rows = [[Poly._raw(field, _strip(tuple(e))) for e in row]
            for row in Fc.tolist()]
    return ApproximantBasisResult(PolyMatrix(field, rows), tuple(t), d, s)


def _halves(d, A, s, threshold):
    """pm_basis's two halves: (first, second) with first the basis of A to
    order d1 = ceil(d/2) and second that of the residual to order d - d1.

    Only coefficients d1..d-1 of the product first * A are unpacked, and
    the residual is local here, so no caller holds it while the halves are
    multiplied.
    """
    d1 = (d + 1) // 2
    first = pm_basis(d1, A.truncated(d1), s, threshold)
    residual = _mat_mul_window(first.basis, A.truncated(d), d1, d)
    second = pm_basis(d - d1, residual, first.degrees, threshold)
    return first, second


def pm_basis(d, A, s, threshold=PM_BASIS_THRESHOLD):
    """Divide-and-conquer order basis: split the order, combine by product."""
    if d <= threshold:
        return m_basis(d, A, s)
    _check_shift(s, A.nrows, "approximant input (rows)")
    s = tuple(s)
    first, second = _halves(d, A, s, threshold)
    F = mat_mul(second.basis, first.basis)
    return ApproximantBasisResult(F, second.degrees, d, s)


def popov_basis(d, A, s):
    """Canonical shifted-Popov approximant basis (unique for d, A, s)."""
    raw = pm_basis(d, A, s)
    F = popov_canonical(raw.basis, raw.shift)
    degrees = shifted_row_degrees(F, raw.shift)
    return ApproximantBasisResult(F, degrees, d, raw.shift)


def neg_min_basis(d, A, s):
    """Negative part of the canonical approximant basis.

    By the predictable-degree property, the negative rows of any s-reduced
    basis generate the approximants of negative s-degree, and so do those
    of the s-Popov basis, which are in s-Popov form.  That form is unique,
    so normalising only the raw negative rows gives the canonical rows.
    Above the leaf, row i of pm_basis's product second * first has s-degree
    second.degrees[i], so only the negative rows of second are multiplied.
    """
    s = tuple(s)
    if d <= PM_BASIS_THRESHOLD:
        raw = m_basis(d, A, s)
        rows = [row for row, t in zip(raw.basis.rows, raw.degrees) if t < 0]
    else:
        first, second = _halves(d, A, s, PM_BASIS_THRESHOLD)
        rows = [row for row, t in zip(second.basis.rows, second.degrees)
                if t < 0]
        if rows:
            rows = mat_mul(PolyMatrix(A.field, rows), first.basis).rows
    if not rows:
        return NegativePart((), (), A.nrows)
    P = popov_canonical(PolyMatrix(A.field, rows), s)
    return NegativePart(P.rows, shifted_row_degrees(P, s), P.ncols)
