import itertools
import random

import pytest

from simpade import (Poly, PrimeField, SolutionSpec, direct_sim_pade,
                     oracle_solution_space, spec_matches_oracle,
                     validate_instance)
from simpade.oracle import _rank

from conftest import GF2


def _span(vectors, width, p):
    return (_rank([list(v) for v in vectors], width, p), len(vectors))


def test_running_example_space(ex1_instance):
    space = oracle_solution_space(ex1_instance)
    assert space.dim == 2
    # x^4+1, x^3+x and their shifts by x stay inside N_0 = 5 only as-is;
    # the nullspace must equal their GF(2) span
    known = [[1, 0, 0, 0, 1], [0, 1, 0, 1, 0]]
    both = [list(v) for v in space.basis] + known
    assert _rank(both, 5, 2) == 2


def test_zero_series_space():
    inst = validate_instance(2, [[]], [[0, 0, 0, 1]], (2, 1))
    space = oracle_solution_space(inst)
    assert space.dim == 2
    assert sorted(space.basis) == [(0, 1), (1, 0)]


def test_empty_space():
    inst = validate_instance(2, [[0, 1]], [[0, 0, 1]], (1, 1))
    space = oracle_solution_space(inst)
    assert space.dim == 0 and space.basis == ()


def test_unconstrained_component():
    # N_i = deg g_i means phi_i is never restricted
    inst = validate_instance(3, [[1, 2]], [[0, 0, 1]], (2, 2))
    assert oracle_solution_space(inst).dim == 2


def test_size_guard():
    inst = validate_instance(2, [[1]] * 2, [[0, 0, 1]] * 2, (2, 1, 1))
    with pytest.raises(ValueError):
        oracle_solution_space(inst, max_cells=3)


def test_spec_matches_oracle_true(ex1_instance):
    spec = SolutionSpec((Poly(GF2, [1, 0, 0, 0, 1]), Poly(GF2, [0, 1, 0, 1])),
                        (-1, -1))
    assert spec_matches_oracle(spec, ex1_instance)


def test_spec_matches_oracle_alternate_generators(ex1_instance):
    # different generators of the same space must also be accepted
    spec = SolutionSpec((Poly(GF2, [1, 1, 0, 1, 1]), Poly(GF2, [1, 0, 0, 0, 1])),
                        (-1, -1))
    assert spec_matches_oracle(spec, ex1_instance)


def test_spec_matches_oracle_dropped_row(ex1_instance):
    spec = SolutionSpec((Poly(GF2, [1, 0, 0, 0, 1]),), (-1,))
    assert not spec_matches_oracle(spec, ex1_instance)


def test_spec_matches_oracle_wrong_row(ex1_instance):
    spec = SolutionSpec((Poly(GF2, [1, 0, 0, 0, 1]), Poly(GF2, [1, 1])),
                        (-1, -1))
    assert not spec_matches_oracle(spec, ex1_instance)


def test_spec_matches_oracle_delta_expansion(ex1_instance):
    # delta = -2 claims x*lambda is also a solution, which is false here
    spec = SolutionSpec((Poly(GF2, [1, 0, 0, 0, 1]), Poly(GF2, [0, 1, 0, 1])),
                        (-1, -2))
    assert not spec_matches_oracle(spec, ex1_instance)
    # and an expansion crossing the N_0 bound is rejected outright
    bad = SolutionSpec((Poly(GF2, [1, 0, 0, 0, 1]),), (-2,))
    with pytest.raises(ValueError):
        spec_matches_oracle(bad, ex1_instance)


def test_empty_spec_against_empty_space():
    inst = validate_instance(2, [[0, 1]], [[0, 0, 1]], (1, 1))
    assert spec_matches_oracle(SolutionSpec((), ()), inst)
    full = validate_instance(2, [[]], [[0, 0, 1]], (1, 1))
    assert not spec_matches_oracle(SolutionSpec((), ()), full)


def _plain_rank(vectors, p):
    """Rank over GF(p) by row reduction on lists, independent of the oracle."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _solves(lam, inst):
    return all((lam * s % g).degree < ni for s, g, ni in
               zip(inst.series, inst.moduli, inst.bounds[1:]))


def _tiny_instance(rng, p):
    """N_0 <= 5, deg g <= 6, x^d or non-monic general moduli, any N_i."""
    moduli, series, bounds = [], [], []
    for _ in range(rng.randint(1, 3)):
        dg = rng.randint(1, 6)
        if rng.random() < 0.5:
            g = [0] * dg + [1]
        else:
            g = [rng.randrange(p) for _ in range(dg)] + [rng.randrange(1, p)]
        moduli.append(g)
        series.append([] if rng.random() < 0.25
                      else [rng.randrange(p) for _ in range(dg)])
        bounds.append(rng.randint(0, dg))
    n0 = rng.randint(1, min(5, max(len(g) - 1 for g in moduli)))
    return validate_instance(p, series, moduli, [n0] + bounds)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_matches_brute_force_enumeration(p):
    rng = random.Random(p)
    field = PrimeField(p)
    for _ in range(40):
        inst = _tiny_instance(rng, p)
        n0 = inst.bounds[0]
        solutions = [lam for lam in itertools.product(range(p), repeat=n0)
                     if _solves(Poly(field, list(lam)), inst)]
        space = oracle_solution_space(inst)
        # the solutions form a subspace, so there are p^dim of them
        assert len(solutions) == p ** space.dim
        assert _plain_rank(solutions, p) == space.dim
        assert _plain_rank(space.basis, p) == space.dim
        assert _plain_rank(solutions + list(space.basis), p) == space.dim


@pytest.mark.parametrize("p", [2**31 - 1, 2**31 + 11])
def test_oracle_at_the_int64_boundary_with_every_coefficient_p_minus_1(p):
    # 2^31 - 1 is the largest prime the oracle eliminates in int64 and
    # 2^31 + 11 the smallest it eliminates with Python ints; with every
    # coefficient p - 1 each product in the elimination is as large as it
    # can be
    field = PrimeField(p)
    top = p - 1
    degrees = (9, 10, 12)
    moduli = [[top] * 10, [0] * 10 + [1], [top] * 13]
    series = [[top] * dg for dg in degrees]
    inst = validate_instance(p, series, moduli, (8, 8, 8, 10))
    space = oracle_solution_space(inst)
    assert space.dim > 0
    for vec in space.basis:
        assert _solves(Poly(field, list(vec)), inst)
    spec = direct_sim_pade(inst)
    assert space.dim == sum(-d for d in spec.deltas)
    assert spec_matches_oracle(spec, inst)
