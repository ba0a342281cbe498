"""Tests of the benchmark's own code: generators, gate and span arithmetic.

Run with the library on the path, from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import random
import time

import pytest

import simpade
from calibrate import REF_S, Calibration
from gate import check_case, spec_errors
from run import Tally
from simpade import SolutionSpec, direct_sim_pade, duality_sim_pade
from tracing import ROOT, Recorder, install, summarise, uninstall
from workloads import WORKLOADS, gao_case, small_grid, xd_instance


def _validated(raw):
    return simpade.validate_instance(raw.p, raw.series, raw.moduli,
                                     raw.bounds)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    pool = WORKLOADS[name].pool
    assert pool(random.Random(7)) == pool(random.Random(7))
    assert pool(random.Random(7)) != pool(random.Random(8))


def test_xd_instance_has_the_generic_dimension():
    raw = xd_instance(random.Random(1), 3, 24, 97, 20)
    assert sum(raw.bounds) == 3 * 24 + 3 + 1
    spec = direct_sim_pade(_validated(raw))
    assert sum(-d for d in spec.deltas) == raw.generic_dim == 4


def test_gao_case_recovers_the_planted_locator_in_both_forms():
    case = gao_case(random.Random(2), n=3, L=40, K=8)
    main, dual = _validated(case.main), _validated(case.dual)
    assert spec_errors(simpade, direct_sim_pade(main), main, case.main) == []
    assert spec_errors(simpade, duality_sim_pade(dual), dual, case.dual) == []


def test_small_grid_mixes_empty_and_nonempty_shapes():
    grid = small_grid(random.Random(3))
    assert len(grid) == 96
    dims = [sum(-d for d in direct_sim_pade(_validated(c.main)).deltas)
            for c in grid[:24]]
    assert 0 in dims and any(dims)


@pytest.fixture
def solved():
    raw = xd_instance(random.Random(4), 2, 16, 97, 11)
    inst = _validated(raw)
    return raw, inst, direct_sim_pade(inst)


def _perturbed(spec):
    lam = spec.lambdas[0]
    coeffs = list(lam.coeffs)
    coeffs[0] += 1
    lambdas = (simpade.Poly(lam.field, coeffs),) + spec.lambdas[1:]
    return SolutionSpec(lambdas, spec.deltas)


def test_gate_accepts_agreeing_answers(solved):
    raw, inst, spec = solved
    assert spec.k >= 2
    specs = {"direct": spec, "recursive": simpade.recursive_sim_pade(inst)}
    assert check_case(simpade, inst, raw, specs, True) == set()


@pytest.mark.parametrize("corrupt", [
    lambda s: SolutionSpec(s.lambdas[1:], s.deltas[1:]),
    _perturbed,
], ids=["dropped-row", "perturbed-coefficient"])
def test_gate_rejects_a_corrupted_answer(solved, corrupt):
    raw, inst, spec = solved
    bad = corrupt(spec)
    # against the confirmed reference, without any known answer
    assert check_case(simpade, inst, None, {"direct": spec, "other": bad},
                      True) == {"other"}
    # as the reference itself, judged by the oracle
    verdict = simpade.spec_matches_oracle(bad, inst)
    assert check_case(simpade, inst, None, {"direct": bad}, verdict) \
        == {"direct"}
    # the answer's own checks catch it with no reference at all
    assert spec_errors(simpade, bad, inst, raw)


def _toy_recorder(spans):
    rec = Recorder()
    for name, start, end, parent in spans:
        if name not in rec.names:
            rec._ids[name] = len(rec.names)
            rec.names.append(name)
        rec.name.append(rec._ids[name])
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
    return rec


def test_self_times_on_a_toy_span_tree():
    rec = _toy_recorder([
        ("solvers.direct", 0.0, 10.0, ROOT),      # 0
        ("appbasis.pm_basis", 1.0, 4.0, 0),       # 1
        ("appbasis.pm_basis", 1.5, 2.5, 1),       # 2
        ("ffpoly.mul", 5.0, 9.0, 0),              # 3
        ("ffpoly.mul", 6.0, 7.0, 3),              # 4
        ("oracle.spec_matches_oracle", 11.0, 12.0, ROOT),
    ])
    s = summarise(rec, ("solvers.direct",))
    assert s.self_s["solvers.direct"] == pytest.approx(10 - 3 - 4)
    assert s.self_s["appbasis.pm_basis"] == pytest.approx(2 + 1)
    assert s.self_s["ffpoly.mul"] == pytest.approx(3 + 1)
    assert s.self_s["oracle.spec_matches_oracle"] == pytest.approx(1)
    assert s.calls["ffpoly.mul"] == 2
    assert s.depth["appbasis.pm_basis"] == 2
    assert s.pairs[("solvers.direct", "ffpoly.mul")] == 1
    # of the solver's 10 s, its own code took 3: the layer spans cover 0.7
    assert s.cover == pytest.approx(0.7)


def test_install_records_spans_and_uninstall_restores():
    originals = (simpade.Poly.__mul__, simpade.appbasis.mat_mul,
                 simpade.solvers.recursive_sim_pade)
    inst = _validated(xd_instance(random.Random(5), 4, 12, 97, 10))
    rec = Recorder()
    saved = install(rec, simpade)
    try:
        simpade.solvers.recursive_sim_pade(inst)
    finally:
        uninstall(saved)
    assert (simpade.Poly.__mul__, simpade.appbasis.mat_mul,
            simpade.solvers.recursive_sim_pade) == originals
    s = summarise(rec, ("solvers.recursive",))
    assert rec.counts["solvers.recursive.leaves"] == 4
    assert rec.counts["solvers.recursive.intersections"] == 3
    assert s.calls["polymat.popov_canonical"] > 0
    assert 0 < s.cover < 1


def test_calls_are_scaled_by_the_kernel_runs_beside_them():
    cal = Calibration()
    cal.runs = [REF_S, 3 * REF_S, 2 * REF_S, REF_S]
    # started after run 0, ended after run 1: runs 0, 1 and 2 were beside it
    assert cal.scale(0, 1) == pytest.approx(1 / 2)
    # after the last run there is none: the last one alone
    assert cal.scale(3, 3) == pytest.approx(1)
    tally = Tally(cal)
    tally.add("direct", "case", 1.0, True, (0, 1))      # 0.5 scaled
    tally.add("direct", "case", 2.0, False, (2, 2))     # 4/3
    tally.add("direct", "case", 4.0, False, (3, 3))     # 4
    tally.add("verify", "case", 1.0, True, (3, 3))      # 1
    tally.instances = 1
    assert tally.per_call("direct", False) == pytest.approx(4 / 3)
    # an instance needs the first-round calls: one direct, one verify
    assert tally.per_instance(False) == pytest.approx(4 / 3 + 1)


def test_clock_leaves_out_the_kernel_runs_during_a_call():
    cal = Calibration()
    cal.start()
    try:
        t0, first = cal.clock()
        raw0 = time.process_time()
        while time.process_time() - raw0 < 0.5:
            pass
        raw = time.process_time() - raw0
        t1, last = cal.clock()
    finally:
        cal.stop()
    assert last > first          # the timer ran the kernel during the loop
    in_kernel = sum(cal.runs[first + 1:last + 1])
    assert t1 - t0 == pytest.approx(raw - in_kernel, abs=2e-3)
