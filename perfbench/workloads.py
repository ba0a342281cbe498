"""Seeded instance generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain coefficient
lists; run.py turns them into instances with the library's own
``validate_instance``, so the library only ever sees validated inputs.
The arithmetic here is plain Python integers and shares no code with the
library, so a planted answer is an independent check of the solvers.

Why each workload exists:

* ``xd-wide``  g_i = x^d, n = 8, d = 128, p = 97, balanced bounds.  Many
  components stress matrix dimension: ``mat_mul`` entry count, the 17-row
  ``m_basis`` elimination, the 9x9 adjoint lift of duality and a recursion of
  depth 3.  This is where the paper's n-scaling should show.
* ``gao-bigp`` the interleaved Reed-Solomon key equation in Gao form,
  g = prod(x - alpha_j), L = 160, K = 40, n = 4, p = 2^61 - 1, with a planted
  common error locator of the maximal degree t = n(L-K)/(n+1).  It takes
  the paths the x^d workloads bypass: object-dtype ``m_basis``, schoolbook
  ``mat_mul``, schoolbook division in Popov and completion against general
  moduli.  Duality does not apply to general moduli, so each instance also
  carries the syndrome form of the same received words (g = x^(L-K)), on
  which duality is timed; both forms have a known answer.
* ``small-many`` 96 small instances on a fixed grid of shapes (n, d, p,
  modulus kind), only the coefficients drawn from the seed, so every seed
  runs the same mix.  Per-call overhead, the schoolbook paths and the oracle
  dominate; a long-operand optimisation should not move it.

The large sizes keep the slowest call (recursive) near 5 s, so that one run
holds several cases; at L = 256 one gao-bigp case took 14 s.  An n = 2
workload (xd-long, d = 512) is left out: a fourth workload would need
shorter runs, and its short Kronecker-bound calls spread the most between
runs on a shared machine (more than 25%, measured before calibration).
"""

from __future__ import annotations

from dataclasses import dataclass

GAO_P = 2**61 - 1


@dataclass(frozen=True)
class RawInstance:
    """Coefficient lists for ``validate_instance`` plus what is known."""

    p: int
    series: list
    moduli: list
    bounds: list
    generic_dim: int | None = None   # xd family: sum(-delta) for generic S
    planted: list | None = None      # planted denominator (k = 1, delta = -1)


@dataclass(frozen=True)
class Case:
    """One unit of work: the instance and, for gao-bigp, its syndrome form."""

    main: RawInstance
    dual: RawInstance | None = None


# ---------------------------------------------------------------------------
# plain-integer polynomial helpers (ascending coefficients)


def _mul_linear(c, root, p):
    """c * (x - root)."""
    out = [0] * (len(c) + 1)
    for i, v in enumerate(c):
        out[i + 1] = (out[i + 1] + v) % p
        out[i] = (out[i] - root * v) % p
    return out


def from_roots(roots, p):
    c = [1]
    for r in roots:
        c = _mul_linear(c, r, p)
    return c


def horner(c, x, p):
    acc = 0
    for v in reversed(c):
        acc = (acc * x + v) % p
    return acc


def _quotient_by_root(G, a, p):
    """G / (x - a) for a root a of G (synthetic division)."""
    q = [0] * (len(G) - 1)
    acc = 0
    for k in range(len(G) - 1, 0, -1):
        acc = (acc * a + G[k]) % p
        q[k - 1] = acc
    return q


# ---------------------------------------------------------------------------
# families


def xd_instance(rng, n, d, p, n0):
    """g_i = x^d, random S_i, N_0 + sum N_i = n*d + n + 1.

    The solution space has dimension at least sum N - n*d = n + 1 for every
    S, and exactly n + 1 unless all maximal minors of an n*d x (n*d + n + 1)
    matrix vanish, which for random S happens with probability about
    p^-(n+2).
    """
    series = [[rng.randrange(p) for _ in range(d)] for _ in range(n)]
    rest = n * d + n + 1 - n0
    bounds = [n0] + [rest // n + (1 if i < rest % n else 0) for i in range(n)]
    return RawInstance(p, series, [[0] * d + [1]] * n, bounds,
                       generic_dim=n + 1)


def gao_case(rng, n=4, L=160, K=40, p=GAO_P):
    """Interleaved RS decoding with t = n(L-K)/(n+1) burst errors.

    Codewords are evaluations of random f_i (deg < K) at distinct nonzero
    alpha_j; all n received words carry errors at the same t positions.
    Gao form: lambda * R_i = phi_i mod G with G = prod(x - alpha_j),
    R_i interpolating the received word, N = (t+1, t+K, ...); the answer is
    the error locator Lambda = prod_{j in E}(x - alpha_j).
    Syndrome form: lambda * S_i = omega_i mod x^(L-K), S_i the syndrome of
    the same word for the dual GRS code, N = (t+1, t, ...); the answer is the
    reversed locator prod_{j in E}(1 - alpha_j x).
    Both have k = 1 and delta = (-1) with probability 1 - O(L/p).
    """
    t = n * (L - K) // (n + 1)
    alphas = rng.sample(range(1, p), L)
    G = from_roots(alphas, p)
    errors = sorted(rng.sample(range(L), t))
    # column multipliers v_j = 1/G'(alpha_j) of the dual code
    quot = {j: _quotient_by_root(G, alphas[j], p) for j in errors}
    v = {j: pow(horner(quot[j], alphas[j], p), p - 2, p) for j in errors}
    R, S = [], []
    for _ in range(n):
        f = [rng.randrange(p) for _ in range(K)]
        e = {j: rng.randrange(1, p) for j in errors}
        # R = f + interpolant of the error word; the codeword part of the
        # syndrome is zero because sum_j v_j h(alpha_j) = 0 for deg h < L-1
        r_poly = f + [0] * (L - K)
        s_poly = [0] * (L - K)
        for j in errors:
            w = e[j] * v[j] % p
            for k, c in enumerate(quot[j]):
                r_poly[k] = (r_poly[k] + w * c) % p
            a, pw = alphas[j], w
            for k in range(L - K):
                s_poly[k] = (s_poly[k] + pw) % p
                pw = pw * a % p
        R.append(r_poly)
        S.append(s_poly)
    locator = from_roots([alphas[j] for j in errors], p)
    reversed_locator = list(reversed(locator))
    main = RawInstance(p, R, [G] * n, [t + 1] + [t + K] * n, planted=locator)
    dual = RawInstance(p, S, [[0] * (L - K) + [1]] * n, [t + 1] + [t] * n,
                       planted=reversed_locator)
    return Case(main, dual)


SMALL_N = (1, 2, 3, 5)
SMALL_D = (8, 16, 32, 48)
SMALL_P = (2, 97, 65537)


def small_instance(rng, n, d, p, power_moduli, excess):
    """One small instance with sum N = sum deg g + excess.

    excess > 0 leaves an excess-dimensional space for generic data (more
    over GF(2)); excess <= 0 leaves it generically empty.
    """
    if power_moduli:
        moduli = [[0] * d + [1]] * n
    else:
        moduli = [[rng.randrange(p) for _ in range(d)] + [1]
                  for _ in range(n)]
    series = [[rng.randrange(p) for _ in range(d)] for _ in range(n)]
    total = n * d + excess
    n0 = max(1, min(d, total // (n + 1)))
    rest = max(0, total - n0)
    bounds = [n0] + [min(d, rest // n + (1 if i < rest % n else 0))
                     for i in range(n)]
    return RawInstance(p, series, moduli, bounds)


def small_grid(rng):
    """96 instances: every (n, d, p, kind); one shape in eight is empty."""
    out = []
    idx = 0
    for n in SMALL_N:
        for d in SMALL_D:
            for p in SMALL_P:
                for power_moduli in (True, False):
                    excess = 0 if idx % 8 == 7 else 1 + idx % (n + 1)
                    out.append(Case(small_instance(rng, n, d, p,
                                                   power_moduli, excess)))
                    idx += 1
    return out


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    pool: object       # rng -> list of Case
    warm: object       # rng -> list of Case, small, touches the same paths
    solvers: tuple     # solver names run on Case.main
    batch: bool        # a closed-loop step is the whole pool, not one case
    min_call_s: float  # repeat a call on one case until this much is timed


def _repeat(make, count):
    return lambda rng: [make(rng) for _ in range(count)]


WORKLOADS = {
    "xd-wide": Workload(
        _repeat(lambda r: Case(xd_instance(r, 8, 128, 97, 115)), 5),
        _repeat(lambda r: Case(xd_instance(r, 8, 16, 97, 15)), 1),
        ("direct", "duality", "recursive"), False, 2.0),
    "gao-bigp": Workload(
        _repeat(gao_case, 5),
        _repeat(lambda r: gao_case(r, L=32, K=8), 1),
        ("direct", "recursive"), False, 2.0),
    "small-many": Workload(
        small_grid,
        lambda r: small_grid(r)[:8],
        ("direct", "duality", "recursive"), True, 0.0),
}
