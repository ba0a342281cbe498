"""Span tracing around the library's layer boundaries, from outside it.

``install`` rebinds the public names that the library modules look up at call
time (``appbasis.mat_mul``, ``Poly.__mul__``, ...) to wrappers that record a
span (name, start, end, parent) per call and add counts worked out from the
operand sizes.  ``uninstall`` restores the originals.  Spans stay in memory
until ``write_spans`` stores them; ``summarise`` derives per-layer self
times and counters from them.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

ROOT = -1


class Recorder:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [ROOT]
        self.counts = defaultdict(int)

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self):
        return len(self.name)


def self_times(rec):
    """Per span: duration minus the durations of its direct children.

    Calls are single-threaded and properly nested, so children never
    overlap and their summed durations are the part of the parent's
    interval they cover.
    """
    n = len(rec)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    own = list(dur)
    for i in range(n):
        par = rec.parent[i]
        if par != ROOT:
            own[par] -= dur[i]
    return dur, own


@dataclass
class Summary:
    """Per span name: total self seconds, calls, deepest self-nesting."""

    self_s: dict
    calls: dict
    depth: dict         # longest chain of directly nested spans of a name
    pairs: dict         # (parent name, child name) -> child spans
    cover: float        # see summarise


def summarise(rec, solvers):
    """Self times and counts per span name, and the solver accounting.

    ``cover`` is the share of the time in the top-level spans named in
    ``solvers`` that named layer spans below them account for: one minus
    the self time of every span with such a name (a solver's own code,
    recursive calls included) over the top-level spans' durations.  Time
    spent in library code that no span wraps lowers it.
    """
    dur, own = self_times(rec)
    n = len(rec)
    out = Summary(defaultdict(float), defaultdict(int), defaultdict(int),
                  defaultdict(int), float("nan"))
    chain = [0] * n
    total = 0.0
    for i in range(n):
        name = rec.names[rec.name[i]]
        par = rec.parent[i]
        out.self_s[name] += own[i]
        out.calls[name] += 1
        if par == ROOT:
            chain[i] = 1
            if name in solvers:
                total += dur[i]
        else:
            pname = rec.names[rec.name[par]]
            chain[i] = chain[par] + 1 if pname == name else 1
            out.pairs[(pname, name)] += 1
        out.depth[name] = max(out.depth[name], chain[i])
    if total:
        out.cover = 1 - sum(out.self_s[name] for name in solvers) / total
    return out


def write_spans(rec, path):
    """Write spans as gzip CSV: id, name, start, end, parent."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id,name,start,end,parent\n")
        names = rec.names
        for i in range(len(rec)):
            fh.write(f"{i},{names[rec.name[i]]},{rec.start[i]!r},"
                     f"{rec.end[i]!r},{rec.parent[i]}\n")


# ---------------------------------------------------------------------------
# rebinding


def _wrap(rec, name, fn, count=None):
    def traced(*args, **kwargs):
        if count is not None:
            count(rec.counts, *args, **kwargs)
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    traced.__wrapped__ = fn
    return traced


def _len(value):
    coeffs = getattr(value, "coeffs", None)
    return len(coeffs) if coeffs is not None else 1


def _count_mul(counts, a, b):
    la, lb = _len(a), _len(b)
    counts["ffpoly.mul.coeff_products"] += la * lb
    # same test as ffpoly._mul_coeffs: Kronecker beyond 24 coefficients
    if min(la, lb) > 24:
        counts["ffpoly.mul.long_calls"] += 1


def _max_len(M):
    return max(len(e.coeffs) for row in M.rows for e in row)


def _count_mat_mul(counts, A, B):
    counts["polymat.mat_mul.entry_products"] += A.nrows * A.ncols * B.ncols
    la, lb = _max_len(A), _max_len(B)
    # same test as polymat.mat_mul: pack when both exceed 24, p < 2^40
    if la and lb and min(la, lb) > 24 and A.field.p < 2**40:
        counts["polymat.mat_mul.packed_calls"] += 1


def _count_m_basis(counts, d, A, s):
    counts["appbasis.m_basis.order_steps"] += d


def _count_lift(counts, v, F, precision):
    prec = 1
    while prec < precision:
        prec = min(2 * prec, precision)
        counts["adjrow.newton_steps"] += 1


def _count_recursive(counts, instance):
    if instance.n == 1:
        counts["solvers.recursive.leaves"] += 1
    else:
        counts["solvers.recursive.intersections"] += 1


def _count_oracle(counts, spec, instance, *args, **kwargs):
    counts["oracle.cells"] += (instance.bounds[0] * (instance.n + 1)
                               * instance.max_modulus_degree)


def _bindings(lib):
    """(owner, attribute, span name, counter) for every rebound name."""
    ff, pm, ab = lib.ffpoly, lib.polymat, lib.appbasis
    adj, sol, orc = lib.adjrow, lib.solvers, lib.oracle
    Poly = ff.Poly
    return [
        (Poly, "__mul__", "ffpoly.mul", _count_mul),
        (Poly, "__rmul__", "ffpoly.mul", _count_mul),
        (Poly, "__divmod__", "ffpoly.divmod", None),
        (Poly, "__init__", "ffpoly.poly_init", None),
        (adj, "poly_substitute_shift", "ffpoly.poly_substitute_shift", None),
        (pm, "mat_mul", "polymat.mat_mul", _count_mat_mul),
        (ab, "mat_mul", "polymat.mat_mul", _count_mat_mul),
        (ab, "popov_canonical", "polymat.popov_canonical", None),
        (ab, "m_basis", "appbasis.m_basis", _count_m_basis),
        (ab, "pm_basis", "appbasis.pm_basis", None),
        (ab, "popov_basis", "appbasis.popov_basis", None),
        (sol, "popov_basis", "appbasis.popov_basis", None),
        (sol, "neg_min_basis", "appbasis.neg_min_basis", None),
        (sol, "adjoint_first_row", "adjrow.adjoint_first_row", None),
        (adj, "det_power_of_x", "adjrow.det_power_of_x", None),
        (adj, "lifted_vector_solve", "adjrow.lifted_vector_solve",
         _count_lift),
        (sol, "direct_sim_pade", "solvers.direct", None),
        (sol, "duality_sim_pade", "solvers.duality", None),
        (sol, "recursive_sim_pade", "solvers.recursive", _count_recursive),
        (sol, "complete", "solvers.complete", None),
        (orc, "spec_matches_oracle", "oracle.spec_matches_oracle",
         _count_oracle),
    ]


def install(rec, lib):
    """Rebind every traced name; returns the originals for ``uninstall``."""
    saved = []
    for owner, attr, name, count in _bindings(lib):
        fn = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, _wrap(rec, name, fn, count))
    return saved


def uninstall(saved):
    for owner, attr, fn in reversed(saved):
        setattr(owner, attr, fn)
