"""Correctness gate, run outside the timed sections.

A solver's answer is accepted when
  * every delta is negative and there is one delta per lambda;
  * its span in coefficient space (x^i lambda_j for i < -delta_j, as vectors
    of length N_0) equals the reference span, with the same sum(-delta);
  * every completion row passes the library's ``verify_solution``;
  * it has the answer the generator knows, where one is known.
The reference is the first solver's answer once it passes these checks and
the oracle; when it does not, every other answer goes to the oracle itself.
The rank test is this file's own elimination, independent of both the
solvers and the oracle.
"""

from __future__ import annotations


def rank_mod_p(rows, p):
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        prow = [v * inv % p for v in m[rank]]
        m[rank] = prow
        for i in range(rank + 1, len(m)):
            f = m[i][col] % p
            if f:
                m[i] = [(v - f * w) % p for v, w in zip(m[i], prow)]
        rank += 1
    return rank


def expansion(spec, n0, p):
    """Coefficient vectors spanning the spec's solution space, or None."""
    vectors = []
    for lam, delta in zip(spec.lambdas, spec.deltas):
        coeffs = list(lam.coeffs)
        for j in range(-delta):
            if len(coeffs) + j > n0:
                return None
            vec = [0] * n0
            vec[j:j + len(coeffs)] = [c % p for c in coeffs]
            vectors.append(vec)
    return vectors


def same_span(spec_a, spec_b, n0, p):
    va, vb = expansion(spec_a, n0, p), expansion(spec_b, n0, p)
    if va is None or vb is None or len(va) != len(vb):
        return False
    if not va:
        return True
    ra = rank_mod_p(va, p)
    return ra == len(va) == rank_mod_p(vb, p) == rank_mod_p(va + vb, p)


def _proportional(poly, coeffs, p):
    """poly is a nonzero scalar multiple of the coefficient list."""
    a = list(poly.coeffs)
    b = [c % p for c in coeffs]
    while b and not b[-1]:
        b.pop()
    if len(a) != len(b) or not a:
        return False
    la, lb = a[-1], b[-1]
    return all(x * lb % p == y * la % p for x, y in zip(a, b))


def spec_errors(lib, spec, instance, known=None, reference=None):
    """Reasons this answer is wrong; an empty list accepts it.

    ``known`` is the generator's RawInstance (generic_dim / planted),
    ``reference`` an answer already confirmed for the same instance.
    """
    p = instance.field.p
    n0 = instance.bounds[0]
    errors = []
    if len(spec.lambdas) != len(spec.deltas):
        return ["lambdas and deltas differ in number"]
    if any(d >= 0 for d in spec.deltas):
        errors.append("nonnegative delta")
    if expansion(spec, n0, p) is None:
        errors.append("expanded lambda exceeds N_0")
    if reference is not None and not same_span(spec, reference, n0, p):
        errors.append("span differs from the reference answer")
    if spec.lambdas and not errors:
        completion = lib.solvers.complete(spec.lambdas, instance)
        if not all(lib.solvers.verify_solution(row, instance)
                   for row in completion.rows):
            errors.append("a completion row is not a solution")
    if known is not None:
        dim = sum(-d for d in spec.deltas)
        if known.generic_dim is not None and dim != known.generic_dim:
            errors.append(f"dimension {dim}, generic is {known.generic_dim}")
        if known.planted is not None and not (
                spec.deltas == (-1,)
                and _proportional(spec.lambdas[0], known.planted, p)):
            errors.append("planted locator not recovered")
    return errors


def check_case(lib, instance, known, specs, oracle_ok):
    """Names of the solvers whose answer for this instance is wrong.

    ``specs`` maps solver name to its answer, or to the exception it
    raised; the first entry is the reference solver.  ``oracle_ok`` is the
    oracle's verdict on the reference answer, or None if it did not run.
    """
    failed = {name for name, spec in specs.items()
              if isinstance(spec, Exception)}
    first, *others = specs
    reference = None
    if first not in failed:
        if oracle_ok is False or spec_errors(lib, specs[first], instance,
                                             known):
            failed.add(first)
        else:
            reference = specs[first]
    for name in others:
        if name in failed:
            continue
        if spec_errors(lib, specs[name], instance, known, reference):
            failed.add(name)
        elif reference is None and not lib.oracle.spec_matches_oracle(
                specs[name], instance):
            # the reference is wrong or missing: the oracle decides alone
            failed.add(name)
    return failed
