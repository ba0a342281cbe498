import random
import tracemalloc

import pytest

import simpade
from simpade import (Poly, PreconditionError, ValidationError, complete,
                     direct_sim_pade, duality_sim_pade, recursive_sim_pade,
                     spec_matches_oracle, validate_instance, verify_solution)
from simpade.polymat import is_row_reduced, shifted_row_degrees

from conftest import (EX1_BASIS_ROWS, EX1_G, EX1_N, EX1_S, GF2,
                      random_instance)

ALL_SOLVERS = [direct_sim_pade, duality_sim_pade, recursive_sim_pade]


def test_validate_rejects_bad_data():
    good = dict(p=2, series=EX1_S, moduli=EX1_G, bounds=EX1_N)

    def reject(**kw):
        args = dict(good, **kw)
        with pytest.raises(ValidationError):
            validate_instance(args["p"], args["series"], args["moduli"],
                              args["bounds"])

    reject(p=91)                              # composite characteristic
    reject(series=[])                         # n = 0
    reject(series=EX1_S[:2])                  # length mismatch with moduli
    reject(bounds=(5, 3, 4))                  # wrong bound count
    reject(moduli=[[0, 0, 1]] * 3)            # deg S_i >= deg g_i
    reject(moduli=[EX1_G[0], EX1_G[1], []])   # zero modulus
    reject(bounds=(0, 3, 4, 5))               # N_0 < 1
    reject(bounds=(6, 3, 4, 5))               # N_0 > max deg g_i
    reject(bounds=(5, -1, 4, 5))              # negative N_i
    reject(bounds=(5, 6, 4, 5))               # N_i > deg g_i


def test_every_exported_name_resolves():
    missing = [name for name in simpade.__all__
               if not hasattr(simpade, name)]
    assert missing == []


def test_validate_accepts_zero_series():
    inst = validate_instance(3, [[]], [[0, 0, 1]], (2, 1))
    assert inst.n == 1 and inst.series[0].is_zero()


def test_uniform_power_order_detection(ex1_instance):
    assert ex1_instance.uniform_power_order() == 5
    mixed = validate_instance(2, [[1], [1]], [[0, 0, 1], [0, 0, 0, 1]], (2, 1, 1))
    assert mixed.uniform_power_order() is None
    shifted = validate_instance(2, [[1]], [[1, 0, 1]], (2, 1))
    assert shifted.uniform_power_order() is None


def test_complete_golden(ex1_instance, ex1_basis):
    lambdas = (Poly(GF2, [1, 0, 0, 0, 1]), Poly(GF2, [0, 1, 0, 1]))
    assert complete(lambdas, ex1_instance) == ex1_basis


def test_verify_solution_cases(ex1_instance, ex1_basis):
    assert verify_solution(ex1_basis.row(0), ex1_instance)
    assert verify_solution(ex1_basis.row(1), ex1_instance)
    zero = (GF2.zero(),) * 4
    assert not verify_solution(zero, ex1_instance)
    # break the congruence in one component
    broken = list(ex1_basis.row(0))
    broken[1] = broken[1] + GF2.one()
    assert not verify_solution(tuple(broken), ex1_instance)
    # violate a degree bound
    over = list(ex1_basis.row(0))
    over[0] = Poly(GF2, [0] * 5 + [1])
    assert not verify_solution(tuple(over), ex1_instance)
    with pytest.raises(ValueError):
        verify_solution(ex1_basis.row(0)[:3], ex1_instance)


def _frozen_lambdas(spec):
    return [lam.to_list() for lam in spec.lambdas]


def test_direct_on_running_example(ex1_instance):
    spec = direct_sim_pade(ex1_instance)
    assert spec.deltas == (-1, -1)
    assert _frozen_lambdas(spec) == [[0, 1, 0, 1], [1, 0, 0, 0, 1]]
    assert spec_matches_oracle(spec, ex1_instance)


def test_duality_on_running_example(ex1_instance):
    spec = duality_sim_pade(ex1_instance)
    assert spec.deltas == (-1, -1)
    assert _frozen_lambdas(spec) == [[1, 0, 0, 0, 1], [0, 1, 0, 1]]
    assert spec_matches_oracle(spec, ex1_instance)


def test_recursive_on_running_example(ex1_instance):
    spec = recursive_sim_pade(ex1_instance)
    assert spec.deltas == (-1, -1)
    assert _frozen_lambdas(spec) == [[0, 1, 0, 1], [1, 1, 0, 1, 1]]
    assert spec_matches_oracle(spec, ex1_instance)


def test_duality_requires_uniform_power_moduli():
    mixed = validate_instance(2, [[1], [1]], [[0, 0, 1], [0, 0, 0, 1]],
                              (2, 1, 1))
    with pytest.raises(PreconditionError):
        duality_sim_pade(mixed)


def test_empty_solution_set():
    inst = validate_instance(2, [[0, 1]], [[0, 0, 1]], (1, 1))
    for solve in ALL_SOLVERS:
        spec = solve(inst)
        assert spec.k == 0 and spec.deltas == ()
        assert spec_matches_oracle(spec, inst)


def test_zero_series_full_space():
    inst = validate_instance(2, [[]], [[0, 0, 0, 1]], (2, 1))
    spec = direct_sim_pade(inst)
    assert _frozen_lambdas(spec) == [[1]] and spec.deltas == (-2,)
    assert spec_matches_oracle(spec, inst)


def test_recursive_single_component_delegates():
    inst = validate_instance(97, [[3, 1, 4]], [[1, 5, 9, 2, 6, 5, 3, 5, 1]],
                             (4, 3))
    assert recursive_sim_pade(inst) == direct_sim_pade(inst)


def test_completion_is_reduced_with_matching_degrees(ex1_instance):
    shift = tuple(-b for b in EX1_N)
    for solve in ALL_SOLVERS:
        spec = solve(ex1_instance)
        comp = complete(spec.lambdas, ex1_instance)
        assert is_row_reduced(comp, shift)
        assert shifted_row_degrees(comp, shift) == spec.deltas


def test_solvers_agree_with_oracle_randomized():
    rng = random.Random(2024)
    shift_cache = {}
    for trial in range(40):
        p = rng.choice([2, 3, 97])
        n = rng.randint(1, 4)
        uniform = trial % 2 == 0
        inst = random_instance(rng, p, n, uniform=uniform)
        solvers = list(ALL_SOLVERS) if uniform \
            else [direct_sim_pade, recursive_sim_pade]
        results = []
        for solve in solvers:
            spec = solve(inst)
            assert spec_matches_oracle(spec, inst), (solve.__name__, inst)
            assert all(d < 0 for d in spec.deltas)
            if spec.k:
                comp = complete(spec.lambdas, inst)
                shift = tuple(-b for b in inst.bounds)
                assert is_row_reduced(comp, shift)
                assert shifted_row_degrees(comp, shift) == spec.deltas
            results.append((spec.k, tuple(sorted(spec.deltas))))
        assert len(set(results)) == 1  # minimality: same k and delta multiset


def test_direct_peak_memory_on_an_xd_instance():
    # n = 8, d = 128, p = 97, g_i = x^d, N_0 + sum N_i = n d + n + 1: the
    # top product of the stacked basis keeps only its negative rows
    rng = random.Random(8128)
    n, d, p, n0 = 8, 128, 97, 115
    rest = n * d + n + 1 - n0
    bounds = [n0] + [rest // n + (1 if i < rest % n else 0) for i in range(n)]
    inst = validate_instance(
        p, [[rng.randrange(p) for _ in range(d)] for _ in range(n)],
        [[0] * d + [1]] * n, bounds)
    direct_sim_pade(inst)           # imports and caches outside the trace
    tracemalloc.start()
    try:
        spec = direct_sim_pade(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.k == n + 1
    assert peak < 0.70 * 2**20
