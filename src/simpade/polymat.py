"""Polynomial matrices over GF(p) with shifted-degree machinery.

Shifts are plain tuples of integers, one entry per column of whatever they
weight.  Row degrees use NEG_INF for zero rows.  The pivot of a nonzero row
under a shift is the *rightmost* column attaining the shifted row degree;
with that convention the leading matrix of a Popov-form matrix is unit lower
triangular.  popov_canonical reaches that form by a Mulders-Storjohann weak
Popov step and one ordered pass of reductions; row_space_membership reduces a
vector against the Popov form by the same normal-form step.
"""

from __future__ import annotations

from .ffpoly import (NEG_INF, Poly, _check_same_field, _pack_many,
                     _unpack_many)


class PolyMatrix:
    """Dense rectangular matrix of Poly entries over one prime field."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        grid = []
        width = None
        for row in rows:
            entries = []
            for e in row:
                if isinstance(e, Poly):
                    _check_same_field(field, e.field)
                else:
                    e = Poly(field, e if isinstance(e, (list, tuple)) else (e,))
                entries.append(e)
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError("ragged rows in matrix")
            grid.append(tuple(entries))
        if not grid or width == 0:
            raise ValueError("matrix must have at least one row and column")
        self.field = field
        self.rows = tuple(grid)

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def from_coeff_lists(cls, field, nested):
        return cls(field, [[Poly(field, e) for e in row] for row in nested])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    def entry(self, i, j):
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def transpose(self):
        return PolyMatrix(self.field, list(zip(*self.rows)))

    def truncated(self, order):
        return PolyMatrix(self.field,
                          [[e.truncated(order) for e in row] for row in self.rows])

    def to_coeff_lists(self):
        return [[e.to_list() for e in row] for row in self.rows]

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and other.field == self.field
                and other.rows == self.rows)

    def __hash__(self):
        return hash((self.field.p, self.rows))

    def __mul__(self, other):
        return mat_mul(self, other)

    def __repr__(self):
        body = "\n".join("  [" + ", ".join(map(repr, row)) + "]"
                         for row in self.rows)
        return f"PolyMatrix over {self.field!r}:\n{body}"


# ---------------------------------------------------------------------------
# shifted degrees and predicates


def _check_shift(s, width, what="matrix"):
    if len(s) != width:
        raise ValueError(f"shift length {len(s)} does not match {what} "
                         f"width {width}")


def row_shifted_degree(row, s):
    _check_shift(s, len(row), "row")
    return max((e.degree + si if not e.is_zero() else NEG_INF)
               for e, si in zip(row, s))


def row_pivot(row, s):
    """Rightmost column attaining the shifted degree; None for a zero row."""
    d = row_shifted_degree(row, s)
    if d == NEG_INF:
        return None
    for j in range(len(row) - 1, -1, -1):
        if not row[j].is_zero() and row[j].degree + s[j] == d:
            return j
    raise AssertionError("unreachable")


def shifted_row_degrees(A, s):
    _check_shift(s, A.ncols)
    return tuple(row_shifted_degree(row, s) for row in A.rows)


def shifted_leading_matrix(A, s):
    """Constant matrix of coefficients at the shifted row degrees.

    Entry (i, j) is the coefficient of x^(d_i - s_j) in A[i][j].  Zero rows
    are rejected since they have no shifted degree.
    """
    degs = shifted_row_degrees(A, s)
    if any(d == NEG_INF for d in degs):
        raise ValueError("zero row has no leading coefficients")
    lead = []
    for row, d in zip(A.rows, degs):
        lead.append([e.coefficient(d - sj) for e, sj in zip(row, s)])
    return lead


def gauss_jordan(rows, p):
    """Gauss-Jordan elimination of a constant matrix over GF(p).

    Returns (reduced nonzero rows, their pivot columns, det).  With no more
    rows than columns, det is the determinant of the leading square block,
    so it is zero exactly when that block is singular.
    """
    m = [[v % p for v in r] for r in rows]
    pivots = []
    det = 1
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det = det * m[rank][col] % p
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i in range(len(m)):
            f = m[i][col]
            if i != rank and f:
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[rank])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m[:len(pivots)], pivots, det


def is_row_reduced(A, s):
    """True iff the shifted leading matrix has full row rank."""
    _check_shift(s, A.ncols)
    try:
        lead = shifted_leading_matrix(A, s)
    except ValueError:
        return False
    return len(gauss_jordan(lead, A.field.p)[1]) == A.nrows


def is_popov(A, s):
    """Shifted Popov predicate for square nonsingular matrices."""
    if A.nrows != A.ncols:
        raise ValueError("Popov form is defined for square matrices only")
    _check_shift(s, A.ncols)
    try:
        lead = shifted_leading_matrix(A, s)
    except ValueError:
        return False
    n = A.nrows
    for i in range(n):
        if lead[i][i] != 1:
            return False
        for j in range(i + 1, n):
            if lead[i][j] != 0:
                return False
    for j in range(n):
        dj = A.entry(j, j).degree
        if dj == NEG_INF:
            return False
        for i in range(n):
            if i != j and A.entry(i, j).degree >= dj:
                return False
    return True


# ---------------------------------------------------------------------------
# multiplication


def mat_mul(A, B):
    """Matrix product over GF(p)[x].

    Every entry is Kronecker-packed once into an integer whose slots hold
    any inner-product coefficient, so each output entry is one sum of
    integer products, unpacked once; this holds at every size and p < 2^64.
    B is packed up front and each row of A when the loop reaches it, one
    _pack_many call per row, and each output row is one _unpack_many call:
    no array spans a whole operand or a whole output.
    """
    return _mat_mul_window(A, B, 0, None)


def _mat_mul_window(A, B, lo, hi):
    """Coefficients lo..hi-1 of each entry of A * B, shifted down by x^lo.

    hi None means up to the end.  The window is cut out of each packed sum
    by a shift and a mask, so coefficients outside it are never unpacked.
    """
    if not isinstance(A, PolyMatrix) or not isinstance(B, PolyMatrix):
        raise TypeError("mat_mul expects PolyMatrix operands")
    _check_same_field(A.field, B.field)
    if A.ncols != B.nrows:
        raise ValueError(f"dimension mismatch {A.nrows}x{A.ncols} times "
                         f"{B.nrows}x{B.ncols}")
    field = A.field
    p = field.p
    la = max(len(e.coeffs) for row in A.rows for e in row)
    lb = max(len(e.coeffs) for row in B.rows for e in row)
    # 0 when an operand is all zero: every entry then packs to 0
    bound = A.ncols * min(la, lb) * (p - 1) * (p - 1)
    slot = (bound.bit_length() + 7) // 8
    pb = [_pack_many([e.coeffs for e in row], slot) for row in B.rows]
    nlen = la + lb - 1
    width = max((nlen if hi is None else min(hi, nlen)) - lo, 0)
    shift = 8 * slot * lo
    mask = (1 << (8 * slot * width)) - 1
    zero = field.zero()
    out = []
    for row in A.rows:
        arow = _pack_many([e.coeffs for e in row], slot)
        accs = []
        for j in range(B.ncols):
            acc = 0
            for ak, brow in zip(arow, pb):
                if ak and brow[j]:
                    acc += ak * brow[j]
            accs.append(acc >> shift & mask)
        nonzero = iter(_unpack_many([acc for acc in accs if acc], slot,
                                    width, p))
        out.append([Poly._raw(field, next(nonzero)) if acc else zero
                    for acc in accs])
    return PolyMatrix(field, out)


def mat_mul_trunc(A, B, order):
    """Product truncated entrywise modulo x^order."""
    return mat_mul(A, B).truncated(order)


def vec_mat_mul(v, A):
    """Row vector (tuple of Poly) times matrix."""
    return mat_mul(PolyMatrix(A.field, [v]), A).rows[0]


# ---------------------------------------------------------------------------
# weak Popov / Popov canonicalisation


def _row_sub_scaled(row, other, q):
    """row - q * other, entrywise."""
    return tuple([e - q * f for e, f in zip(row, other)])


def _weak_popov_rows(rows, s):
    """Mulders-Storjohann successive cancellation to distinct pivots.

    Each step subtracts a quotient multiple of the lower-degree row from the
    higher-degree one; (shifted degree, pivot index) of the modified row
    decreases lexicographically, so the loop terminates.
    """
    work = [tuple(r) for r in rows]
    info = [(row_shifted_degree(r, s), row_pivot(r, s)) for r in work]
    while True:
        by_pivot = {}
        clash = None
        for i, (d, c) in enumerate(info):
            if c is None:
                raise ValueError("matrix is singular (zero row produced)")
            if c in by_pivot:
                clash = (by_pivot[c], i, c)
                break
            by_pivot[c] = i
        if clash is None:
            return work, info
        i, j, c = clash
        # keep the row of smaller shifted degree (ties: lower index)
        if (info[j][0], j) < (info[i][0], i):
            i, j = j, i
        lo, hi = work[i], work[j]
        new = _row_sub_scaled(hi, lo, hi[c] // lo[c])
        work[j] = new
        info[j] = (row_shifted_degree(new, s), row_pivot(new, s))


def _normal_form(row, rows, cols):
    """row reduced against rows, whose pivots lie in columns cols.

    rows must be reduced against each other.  While some row[c_j] has degree
    at least deg rows[j][c_j], subtract (row[c_j] // rows[j][c_j]) * rows[j]
    at the column of largest excess deg row[c_j] - deg rows[j][c_j].
    """
    while rows:
        excess, j = max((row[c].degree - r[c].degree, j)
                        for j, (r, c) in enumerate(zip(rows, cols)))
        if excess < 0:
            break
        c = cols[j]
        row = _row_sub_scaled(row, rows[j], row[c] // rows[j][c])
    return row


def popov_canonical(A, s):
    """The unique shifted Popov form of the row space of a full-row-rank A.

    A is k x m with k <= m; rank-deficient or tall A raises ValueError.
    After the weak Popov step, one ordered pass reduces each row against the
    rows before it; the result lists the rows by pivot column.
    """
    _check_shift(s, A.ncols)
    work, info = _weak_popov_rows(A.rows, s)
    # One pass in (shifted degree d, pivot column c) order is enough:
    # - later rows need nothing: a row's entry in the pivot column of a later
    #   row is already below that pivot's degree;
    # - reductions keep that true: a multiple of an earlier row subtracted
    #   from row i has shifted degree <= d_i, and where it reaches d_i its
    #   pivot lies left of c_i, so the pivot of row i, its degree and the
    #   bound above all survive;
    # - the reduction loop ends: clearing an excess e of the largest size
    #   leaves a remainder below the pivot and, as the rows are reduced
    #   against each other, creates only excesses below e elsewhere;
    # - membership is exact: if v - q P = u P with u != 0, take j with the
    #   largest deg u_j; entry c_j of u P has degree deg u_j + deg P[j][c_j],
    #   so no nonzero element of the row space is fully reduced.
    done, cols = [], []
    for i in sorted(range(len(work)), key=lambda i: info[i]):
        row, c = work[i], info[i][1]
        lc = row[c].leading_coefficient()
        if lc != 1:
            inv = A.field.inv(lc)
            row = tuple([e * inv for e in row])
        done.append(_normal_form(row, done, cols))
        cols.append(c)
    return PolyMatrix(A.field, [row for c, row in sorted(zip(cols, done))])


def row_space_membership(v, A, s=None):
    """True iff row vector v lies in the GF(p)[x]-row space of A.

    A must be row reduced under the supplied shift (all-zeros by default);
    the test reduces v against the Popov form of A, and v is a member iff
    nothing is left.
    """
    if s is None:
        s = (0,) * A.ncols
    if len(v) != A.ncols:
        raise ValueError("vector length does not match matrix width")
    if not is_row_reduced(A, s):
        raise ValueError("membership test requires a row-reduced matrix")
    P = popov_canonical(A, s)
    cols = [row_pivot(row, s) for row in P.rows]
    return all(e.is_zero() for e in _normal_form(tuple(v), P.rows, cols))


# ---------------------------------------------------------------------------
# exact determinants and adjoints (reference-grade, small matrices)


def determinant(A):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.nrows != A.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = A.nrows
    field = A.field
    m = [list(row) for row in A.rows]
    sign = 1
    prev = field.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()),
                        None)
            if swap is None:
                return field.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                if not r.is_zero():
                    raise AssertionError("non-exact division in Bareiss")
                m[i][j] = q
            m[i][k] = field.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def _minor(A, drop_row, drop_col):
    rows = [[e for j, e in enumerate(row) if j != drop_col]
            for i, row in enumerate(A.rows) if i != drop_row]
    return PolyMatrix(A.field, rows)


def cofactor_adjoint(A):
    """Full adjoint adj(A) = det(A) A^-1 by cofactor expansion (small n)."""
    if A.nrows != A.ncols:
        raise ValueError("adjoint of a non-square matrix")
    n = A.nrows
    if n == 1:
        return PolyMatrix(A.field, [[A.field.one()]])
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            d = determinant(_minor(A, j, i))
            row.append(d if (i + j) % 2 == 0 else -d)
        out.append(row)
    return PolyMatrix(A.field, out)
