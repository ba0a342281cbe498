"""Simultaneous Pade approximation over GF(p): data model and three solvers.

A problem instance is (S, g, N): series S_i, moduli g_i with deg S_i <
deg g_i, and degree bounds N = (N_0, ..., N_n).  A solution is a nonzero
vector (lambda, phi_1, ..., phi_n) with lambda*S_i = phi_i mod g_i,
deg lambda < N_0 and deg phi_i < N_i.  Solvers return a solution
specification (lambda column, negative shifted degrees); expanding the
numerators rem(lambda*S_i, g_i) yields the full solution basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adjrow import adjoint_first_row
from .appbasis import neg_min_basis, popov_basis
from .ffpoly import NEG_INF, Poly, PrimeField
from .polymat import PolyMatrix


class ValidationError(ValueError):
    """Raised when raw problem data violates the instance constraints."""


class PreconditionError(ValueError):
    """Raised when a solver's extra precondition fails (e.g. mixed moduli)."""


@dataclass(frozen=True)
class ProblemInstance:
    field: PrimeField
    series: tuple       # S_1..S_n as Poly
    moduli: tuple       # g_1..g_n as Poly
    bounds: tuple       # N_0..N_n as ints

    @property
    def n(self):
        return len(self.series)

    @property
    def max_modulus_degree(self):
        return max(int(g.degree) for g in self.moduli)

    def uniform_power_order(self):
        """The common d when every modulus equals x^d, else None."""
        d = None
        for g in self.moduli:
            dg = int(g.degree)
            if g.coeffs != (0,) * dg + (1,):
                return None
            if d is None:
                d = dg
            elif dg != d:
                return None
        return d


@dataclass(frozen=True)
class SolutionSpec:
    """Denominator column plus (-N)-row degrees of the completion."""

    lambdas: tuple      # k Poly values
    deltas: tuple       # k negative ints

    @property
    def k(self):
        return len(self.lambdas)


def validate_instance(p, series, moduli, bounds):
    """Build a validated ProblemInstance from raw coefficient data.

    series and moduli are sequences of Poly or ascending coefficient lists;
    bounds is the (n+1)-tuple (N_0, ..., N_n).
    """
    try:
        field = PrimeField(p)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    if len(series) == 0:
        raise ValidationError("n must be at least 1 (empty series list)")
    if len(series) != len(moduli):
        raise ValidationError("series and moduli lengths differ")
    if len(bounds) != len(series) + 1:
        raise ValidationError(
            f"expected {len(series) + 1} degree bounds, got {len(bounds)}")
    S = tuple(e if isinstance(e, Poly) else Poly(field, e) for e in series)
    g = tuple(e if isinstance(e, Poly) else Poly(field, e) for e in moduli)
    N = tuple(int(b) for b in bounds)
    for i, (si, gi) in enumerate(zip(S, g), start=1):
        if gi.is_zero():
            raise ValidationError(f"g_{i} is zero")
        if not si.is_zero() and si.degree >= gi.degree:
            raise ValidationError(
                f"deg S_{i} = {si.degree} is not below deg g_{i} = {gi.degree}")
    max_dg = max(int(gi.degree) for gi in g)
    if N[0] < 1:
        raise ValidationError(f"N_0 = {N[0]} must be at least 1")
    if N[0] > max_dg:
        raise ValidationError(
            f"N_0 = {N[0]} exceeds max deg g_i = {max_dg}")
    for i in range(1, len(N)):
        if N[i] < 0:
            raise ValidationError(f"N_{i} = {N[i]} is negative")
        if N[i] > g[i - 1].degree:
            raise ValidationError(
                f"N_{i} = {N[i]} exceeds deg g_{i} = {g[i - 1].degree}")
    return ProblemInstance(field, S, g, N)


def complete(lambdas, instance):
    """Completion matrix [lambda_j | rem(lambda_j S_1, g_1) | ...]."""
    rows = []
    for lam in lambdas:
        row = [lam]
        for si, gi in zip(instance.series, instance.moduli):
            row.append((lam * si) % gi)
        rows.append(row)
    return PolyMatrix(instance.field, rows)


def verify_solution(v, instance):
    """Check one candidate row (lambda, phi_1, ..., phi_n) for validity."""
    n = instance.n
    if len(v) != n + 1:
        raise ValueError(f"expected a vector of length {n + 1}, got {len(v)}")
    v = [e if isinstance(e, Poly) else Poly(instance.field, e) for e in v]
    if all(e.is_zero() for e in v):
        return False
    N = instance.bounds
    if v[0].degree != NEG_INF and v[0].degree >= N[0]:
        return False
    for i in range(1, n + 1):
        if v[i].degree != NEG_INF and v[i].degree >= N[i]:
            return False
        if not ((v[0] * instance.series[i - 1] - v[i])
                % instance.moduli[i - 1]).is_zero():
            return False
    return True


def _spec_from_negative_part(part):
    return SolutionSpec(tuple(row[0] for row in part.rows), part.degrees)


def direct_sim_pade(instance):
    """Negative part of the order basis of the stacked matrix [-S; I; diag g]."""
    n = instance.n
    field = instance.field
    N = instance.bounds
    shift = tuple(-b for b in N) + (-(N[0] - 1),) * n
    d = N[0] + instance.max_modulus_degree - 1
    zero, one = field.zero(), field.one()
    rows = [[-s for s in instance.series]]
    for i in range(n):
        rows.append([one if j == i else zero for j in range(n)])
    for i in range(n):
        rows.append([instance.moduli[i] if j == i else zero for j in range(n)])
    H = PolyMatrix(field, rows)
    return _spec_from_negative_part(neg_min_basis(d, H, shift))


def duality_sim_pade(instance):
    """Hermite-Pade dual route; requires all moduli equal to one power of x."""
    d = instance.uniform_power_order()
    if d is None:
        raise PreconditionError(
            "duality solver requires g_1 = ... = g_n = x^d for a common d")
    field = instance.field
    N = instance.bounds
    col = [field.one()] + list(instance.series)
    B = PolyMatrix(field, [[e] for e in col])
    basis = popov_basis(d, B, N)
    adj = adjoint_first_row(basis.basis)
    eta = basis.degrees
    eta_sum = sum(int(e) for e in eta)
    n_sum = sum(N)
    delta_hat = tuple(eta_sum - n_sum - int(e) for e in eta)
    lambdas = []
    deltas = []
    for lam, dh in zip(adj.row, delta_hat):
        if dh < 0:
            lambdas.append(lam)
            deltas.append(dh)
    return SolutionSpec(tuple(lambdas), tuple(deltas))


def recursive_sim_pade(instance):
    """Divide and conquer: solve halves, intersect their denominator spans."""
    n = instance.n
    if n == 1:
        return direct_sim_pade(instance)
    field = instance.field
    N = instance.bounds
    half = (n + 1) // 2
    left = ProblemInstance(field, instance.series[:half],
                           instance.moduli[:half], (N[0],) + N[1:half + 1])
    right = ProblemInstance(field, instance.series[half:],
                            instance.moduli[half:], (N[0],) + N[half + 1:])
    spec1 = recursive_sim_pade(left)
    spec2 = recursive_sim_pade(right)
    zero, one = field.zero(), field.one()
    rows = [[one, one]]
    for lam in spec1.lambdas:
        rows.append([-lam, zero])
    for lam in spec2.lambdas:
        rows.append([zero, -lam])
    R = PolyMatrix(field, rows)
    shift = (-N[0],) + spec1.deltas + spec2.deltas
    # Order N_0 suffices.  A row (mu, a_1, ...) of negative shifted degree
    # has deg mu < N_0 and deg a_i < -delta_i, and every spec row has
    # deg lambda_i <= N_0 + delta_i, so both columns of (mu, a) * R have
    # degree < N_0: vanishing modulo x^N_0 is exact vanishing, and the
    # negative rows are those of the exact intersection at any higher order.
    return _spec_from_negative_part(neg_min_basis(N[0], R, shift))
