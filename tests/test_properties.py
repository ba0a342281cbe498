"""Property tests: every solver agrees with the oracle on edge-case instances.

Each test draws instances with one edge feature (bounds at their extremes,
zero series, a single component or degree-one moduli, orders long enough for
pm_basis to split) at each prime size the arithmetic distinguishes.  The
draws are derandomized so the suite is repeatable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpade import (direct_sim_pade, duality_sim_pade, recursive_sim_pade,
                     spec_matches_oracle, validate_instance)
from simpade.appbasis import PM_BASIS_THRESHOLD

PRIMES = [2, 3, 2**31 - 1, 2**61 - 1]

_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True,
                     database=None)


@st.composite
def instances(draw, p, n=st.integers(1, 3), deg=st.integers(1, 12),
              zero_series=False, edge_bounds=False):
    """A validated instance; x^d moduli when the uniform flag is drawn."""
    n = draw(n)
    uniform = draw(st.booleans())
    coeff = st.integers(0, p - 1)
    unit = st.integers(1, p - 1)
    if uniform:
        d = draw(deg)
        moduli = [[0] * d + [1]] * n
    else:
        degs = draw(st.lists(deg, min_size=n, max_size=n))
        moduli = [draw(st.lists(coeff, min_size=dg, max_size=dg))
                  + [draw(unit)] for dg in degs]
    series = [[] if zero_series
              else draw(st.lists(coeff, max_size=len(g) - 1)) for g in moduli]
    degs = [len(g) - 1 for g in moduli]
    n0 = draw(st.integers(1, max(degs)))
    if edge_bounds:
        rest = [draw(st.sampled_from([0, dg])) for dg in degs]
    else:
        rest = [draw(st.integers(0, dg)) for dg in degs]
    return validate_instance(p, series, moduli, [n0] + rest)


def _check_solvers_agree(inst):
    solvers = [direct_sim_pade, recursive_sim_pade]
    if inst.uniform_power_order() is not None:
        solvers.append(duality_sim_pade)
    shapes = set()
    for solve in solvers:
        spec = solve(inst)
        assert spec_matches_oracle(spec, inst), solve.__name__
        shapes.add((spec.k, tuple(sorted(spec.deltas))))
    assert len(shapes) == 1


@pytest.mark.parametrize("p", PRIMES)
@_SETTINGS
@given(data=st.data())
def test_bounds_at_zero_and_modulus_degree(p, data):
    _check_solvers_agree(data.draw(instances(p, edge_bounds=True)))


@pytest.mark.parametrize("p", PRIMES)
@_SETTINGS
@given(data=st.data())
def test_zero_series(p, data):
    _check_solvers_agree(data.draw(instances(p, zero_series=True)))


@pytest.mark.parametrize("p", PRIMES)
@_SETTINGS
@given(data=st.data())
def test_one_component_or_degree_one(p, data):
    shape = data.draw(st.sampled_from(["n=1", "d=1"]))
    if shape == "n=1":
        inst = data.draw(instances(p, n=st.just(1)))
    else:
        inst = data.draw(instances(p, deg=st.just(1)))
    _check_solvers_agree(inst)


@pytest.mark.parametrize("p", PRIMES)
@_SETTINGS
@given(data=st.data())
def test_orders_past_the_pm_basis_split(p, data):
    # moduli of degree > 32 make every solver's order exceed the threshold
    deg = st.integers(PM_BASIS_THRESHOLD + 1, PM_BASIS_THRESHOLD + 12)
    _check_solvers_agree(data.draw(instances(p, n=st.integers(1, 2),
                                             deg=deg)))
