"""Benchmark of the three simultaneous Pade solvers on seeded instances.

    python3 perfbench/run.py --workload xd-wide --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the library from
``src``; exits 2 without a result when there is none.  One process, one
thread, closed loop: each case (for small-many, each pass over its 96
instances) is processed to the end before the next starts, and no case
starts that would, at the mean pace so far, end more than half a case after
``--seconds``.
Processing a case means every applicable solver, the completion of every
nonempty answer and one oracle cross-check (see ``process``).  Timings are
CPU seconds of this process (``time.process_time``), each scaled by the
reference kernel that runs throughout the measurement (see calibrate.py),
and reported as medians with their sample counts; on small-many, whose
instances differ in size on purpose, a per-call figure is the mean over its
instances of each one's median.  Answers are checked after each case,
outside the timed sections (see gate.py); ``failed`` counts solver calls
that raised or failed that check, so failed_frac = failed / attempted.

--trace 0 prints the end-to-end metrics; --trace 1 runs every case once
untraced and once with spans recorded around the library's layers (see
tracing.py), prints the per-layer metrics, each per instance processed, and
writes the spans to perfbench/out/.  Every metric is printed as
``name value unit`` first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# one thread: numpy reads these when it is first imported, by calibrate
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402
from calibrate import REF_S, Calibration  # noqa: E402
from gate import check_case  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NO_PYCACHE = OUT / "no-pycache"    # never created: no cached bytecode there
SETUPS = 3            # set-ups per run at least
SETUP_S = 1.0         # set-up seconds after each closed-loop step at least

SOLVER_FUNCS = {
    "direct": "direct_sim_pade",
    "duality": "duality_sim_pade",
    "recursive": "recursive_sim_pade",
}

END_TO_END = (
    ("direct_s", "s"), ("duality_s", "s"), ("recursive_s", "s"),
    ("verify_s", "s"), ("instances_per_s", "1/s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("polymat.popov_canonical.self_s", "s"),
    ("polymat.popov_canonical.calls", "count"),
    ("polymat.popov_canonical.quotients", "count"),
    ("ffpoly.mul.calls", "count"),
    ("ffpoly.mul.coeff_products", "count"),
    ("ffpoly.mul.long_calls", "count"),
    ("ffpoly.mul.self_s", "s"),
    ("ffpoly.divmod.calls", "count"),
    ("ffpoly.divmod.self_s", "s"),
    ("ffpoly.poly_init.calls", "count"),
    ("ffpoly.poly_init.self_s", "s"),
    ("ffpoly.poly_substitute_shift.self_s", "s"),
    ("polymat.mat_mul.calls", "count"),
    ("polymat.mat_mul.entry_products", "count"),
    ("polymat.mat_mul.packed_calls", "count"),
    ("polymat.mat_mul.self_s", "s"),
    ("appbasis.m_basis.calls", "count"),
    ("appbasis.m_basis.order_steps", "count"),
    ("appbasis.m_basis.self_s", "s"),
    ("appbasis.pm_basis.calls", "count"),
    ("appbasis.pm_basis.max_depth", "count"),
    ("appbasis.pm_basis.self_s", "s"),
    ("appbasis.popov_basis.self_s", "s"),
    ("adjrow.lifted_vector_solve.self_s", "s"),
    ("adjrow.newton_steps", "count"),
    ("adjrow.det_power_of_x.self_s", "s"),
    ("solvers.direct.self_s", "s"),
    ("solvers.duality.self_s", "s"),
    ("solvers.recursive.self_s", "s"),
    ("solvers.recursive.leaves", "count"),
    ("solvers.recursive.intersections", "count"),
    ("solvers.complete.self_s", "s"),
    ("oracle.spec_matches_oracle.self_s", "s"),
    ("oracle.cells", "count"),
    ("oracle.skipped", "count"),
    ("trace.solver_cover", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# counters worked out from the operands of a call rather than observed
COMPUTED = {
    "ffpoly.mul.coeff_products", "ffpoly.mul.long_calls",
    "polymat.mat_mul.entry_products", "polymat.mat_mul.packed_calls",
    "appbasis.m_basis.order_steps", "adjrow.newton_steps", "oracle.cells",
}

TOP_LEVEL = ("solvers.direct", "solvers.duality", "solvers.recursive")


@dataclass
class Item:
    """A generated case with its validated instances."""

    case: object
    inst: object
    dual: object          # syndrome-form instance, or None


def fresh_import():
    """Import the library from source, dropping any earlier import.

    No bytecode is written (see main) and cached bytecode is looked up in a
    directory that stays empty, so every import compiles the library,
    whether or not the source tree holds __pycache__ directories.
    """
    for name in [m for m in sys.modules
                 if m == "simpade" or m.startswith("simpade.")]:
        del sys.modules[name]
    saved = sys.pycache_prefix
    sys.pycache_prefix = str(NO_PYCACHE)
    try:
        return importlib.import_module("simpade")
    finally:
        sys.pycache_prefix = saved


def prepare(lib, case):
    def build(raw):
        return lib.validate_instance(raw.p, raw.series, raw.moduli,
                                     raw.bounds)
    return Item(case, build(case.main),
                build(case.dual) if case.dual is not None else None)


class Tally:
    """What a run has measured so far, in CPU seconds."""

    def __init__(self, cal=None):
        self.cal = cal        # its clock times every call, if given
        self.times = {}       # phase -> case -> [(seconds, kernel runs)]
        self.first = {}       # phase -> case -> calls in first rounds
        self.busy = 0.0       # seconds of the first call of each phase
        self.instances = 0
        self.attempted = 0    # solver calls
        self.failed = 0       # solver calls that raised or failed the gate

    def clock(self):
        """(process seconds, kernel run) to time a call by."""
        return self.cal.clock() if self.cal else (time.process_time(), None)

    def add(self, phase, case, seconds, first, runs=None):
        self.times.setdefault(phase, {}).setdefault(case, []).append(
            (seconds, runs))
        if first:
            self.busy += seconds
            calls = self.first.setdefault(phase, {})
            calls[case] = calls.get(case, 0) + 1

    def samples(self, phase):
        return [t for ts in self.times.get(phase, {}).values() for t, _ in ts]

    def _scaled(self, timed):
        return [t * self.cal.scale(*runs) for t, runs in timed]

    def per_call(self, phase, per_case):
        """Median scaled call, or mean over cases of each one's median."""
        cases = self.times.get(phase, {})
        if not per_case:
            return statistics.median(
                self._scaled([t for ts in cases.values() for t in ts]))
        return statistics.fmean(
            statistics.median(self._scaled(ts)) for ts in cases.values())

    def per_instance(self, per_case):
        """Scaled seconds to process one instance, from per-call medians.

        Each phase's per-call figure times the calls it made in first rounds,
        which are the calls that processing an instance needs.
        """
        total = 0.0
        for phase, calls in self.first.items():
            if per_case:
                total += sum(statistics.median(self._scaled(
                    self.times[phase][case])) * k
                    for case, k in calls.items())
            else:
                total += self.per_call(phase, False) * sum(calls.values())
        return total / self.instances


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # one failed call must not stop the run
        traceback.print_exc(file=sys.stderr)
        return exc


def process(lib, item, solver_names, tally, min_s):
    """Solve, complete and oracle-check one case, timing every call.

    The first round calls every applicable solver once, completes every
    nonempty answer and runs the oracle once; that round is the case's
    processing time.  Further rounds repeat the solver calls and the oracle
    check, interleaved, until each has ``min_s`` CPU seconds measured, so
    that short calls get enough samples; the library keeps no state between
    calls.  Returns (answers, dual answers, oracle verdicts), each a list of
    every call's result.
    """
    calls = {}
    for name in solver_names:
        if name != "duality" or item.inst.uniform_power_order() is not None:
            calls[name] = (getattr(lib.solvers, SOLVER_FUNCS[name]),
                           item.inst)
    if item.dual is not None:
        calls["dual"] = (lib.solvers.duality_sim_pade, item.dual)
    results = {phase: [] for phase in calls}
    spent = dict.fromkeys(calls, 0.0)

    def timed(phase, fn, *args):
        t0, first_run = tally.clock()
        result = _call(fn, *args)
        t1, last_run = tally.clock()
        seconds = t1 - t0
        metric = "duality" if phase == "dual" else phase
        tally.add(metric, id(item), seconds,
                  phase not in results or not results[phase],
                  (first_run, last_run))
        if phase in results:
            results[phase].append(result)
            spent[phase] += seconds
        return result

    for phase, (fn, inst) in list(calls.items()):
        timed(phase, fn, inst)
    for phase in solver_names:
        spec = results.get(phase, [None])[0]
        # complete((), inst) raises: an empty answer has nothing to complete
        if spec is not None and not isinstance(spec, Exception) and spec.k:
            timed("complete", lib.solvers.complete, spec.lambdas, item.inst)
    first = results[solver_names[0]][0]
    inst = item.inst
    cells = inst.bounds[0] * (inst.n + 1) * inst.max_modulus_degree
    if cells > lib.oracle.DEFAULT_MAX_CELLS:
        tally.add("oracle_skipped", id(item), 0.0, False)
    elif not isinstance(first, Exception):
        calls["verify"] = (lib.oracle.spec_matches_oracle, first, inst)
        results["verify"], spent["verify"] = [], 0.0
        timed("verify", *calls["verify"])
    while True:
        due = [phase for phase in calls if spent[phase] < min_s
               and not isinstance(results[phase][-1], Exception)]
        if not due:
            break
        for phase in due:
            timed(phase, *calls[phase])
    tally.instances += 1
    return ({n: results[n] for n in solver_names if n in results},
            results.get("dual"), results.get("verify", []))


def check(lib, item, answers, dual, verdicts, tally):
    """Gate one processed case; count solver calls and failed calls."""
    def count(results, wrong):
        tally.attempted += len(results)
        bad = len(results) if wrong else sum(
            1 for r in results[1:] if r != results[0])
        tally.failed += bad
        return bad

    oracle_ok = verdicts[0] is True if verdicts else None
    if any(v is not True for v in verdicts[1:]):
        oracle_ok = False
    wrong = check_case(lib, item.inst, item.case.main,
                       {n: r[0] for n, r in answers.items()}, oracle_ok)
    failed = [n for n, r in answers.items() if count(r, n in wrong)]
    if dual is not None:
        wrong = check_case(lib, item.dual, item.case.dual,
                           {"duality": dual[0]}, None)
        if count(dual, "duality" in wrong):
            failed.append("duality on the syndrome form")
    for name in failed:
        print(f"gate: {name} failed", file=sys.stderr)


def set_up(workload, seed):
    """Import, generate the pool and warm up; returns (lib, pool)."""
    lib = fresh_import()
    pool = [prepare(lib, c) for c in workload.pool(random.Random(seed))]
    for item in [prepare(lib, c)
                 for c in workload.warm(random.Random(seed + 1))]:
        process(lib, item, workload.solvers, Tally(), 0.0)
    return lib, pool


def process_once(lib, item, solver_names, tally, rec):
    """``process`` once per call, recording spans into ``rec`` if given."""
    if rec is None:
        return process(lib, item, solver_names, tally, 0.0)
    saved = tracing.install(rec, lib)
    try:
        return process(lib, item, solver_names, tally, 0.0)
    finally:
        tracing.uninstall(saved)


def timed_set_up(workload, seed, tally):
    """``set_up``, timed into the tally's "setup" phase."""
    t0, first_run = tally.clock()
    lib, pool = set_up(workload, seed)
    t1, last_run = tally.clock()
    tally.add("setup", None, t1 - t0, False, (first_run, last_run))
    return lib, pool


def rss_mb():
    """Resident memory of this process now (Linux)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(args, workload, plain, traced, rec):
    """The closed loop; returns the first step's peak memory above set-up."""
    lib, pool = timed_set_up(workload, args.seed, plain)
    rss_after_setup = rss_mb()
    step_rss = None
    start = time.perf_counter()
    batches = 0
    while True:
        if workload.batch:
            items = pool
        else:
            items = [pool[batches % len(pool)]]
        for item in items:
            if not args.trace:
                check(lib, item, *process(lib, item, workload.solvers, plain,
                                          workload.min_call_s), plain)
                continue
            # an untraced and a traced pass over the same case, alternating
            # which goes first; their difference is the tracing overhead
            passes = [(plain, None), (traced, rec)]
            if plain.instances % 2:
                passes.reverse()
            for tally, recorder in passes:
                check(lib, item, *process_once(lib, item, workload.solvers,
                                               tally, recorder), tally)
        batches += 1
        if step_rss is None:
            # the library's share of memory: the first step's peak above the
            # level after set-up, before later set-ups add to the process
            step_rss = peak_rss_mb() - rss_after_setup
        if not args.trace:
            # set-ups after each step spread the set-up samples over the run,
            # as the solver samples are; their library copies are unused
            t0 = time.process_time()
            while time.process_time() - t0 < SETUP_S:
                timed_set_up(workload, args.seed, plain)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / batches / 2 > args.seconds:
            break
    while len(plain.samples("setup")) < SETUPS and not args.trace:
        timed_set_up(workload, args.seed, plain)
    return step_rss


def run(args):
    workload = WORKLOADS[args.workload]
    # the traced run reports raw span times: no kernel runs among its spans
    cal = None if args.trace else Calibration()
    plain, traced, rec = Tally(cal), Tally(), tracing.Recorder()
    if cal:
        cal.start()
    try:
        step_rss = measure(args, workload, plain, traced, rec)
    finally:
        if cal:
            cal.stop()

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if args.trace:
        metrics = per_layer(rec, plain, traced)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracing.write_spans(rec, path)
        print(f"{len(rec)} spans written to {path.relative_to(HERE.parent)}")
        for name, unit in PER_LAYER:
            note = "  (computed from operand sizes)" if name in COMPUTED else ""
            print(f"{name} {metrics[name]['value']:.6g} {unit}{note}")
    else:
        metrics = end_to_end(plain, step_rss, workload.batch)
        for name, unit in END_TO_END:
            line = f"{name} {metrics[name]['value']:.6g} {unit}"
            count = len(plain.samples(name[:-2]))
            if count and workload.batch and name != "setup_s":
                line += f"  (mean over instances of each one's median; " \
                        f"{count} calls)"
            elif count:
                line += f"  (median of {count})"
            print(line)
        rec_s = metrics["recursive_s"]["value"]
        for name in ("direct_s", "duality_s"):
            print(f"recursive_s/{name} {rec_s / metrics[name]['value']:.4g}")
        print(f"calibration kernel: median {statistics.median(cal.runs):.6g} s"
              f" of {len(cal.runs)} runs; reference {REF_S} s")
    print(f"instances {plain.instances}  solver calls {attempted}  "
          f"failed {failed}  failed_frac {failed / max(attempted, 1):.6g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(tally, step_rss, per_case):
    """The end-to-end metrics, every time scaled by the kernel beside it."""
    values = {f"{phase}_s": tally.per_call(phase, per_case)
              for phase in ("direct", "duality", "recursive", "verify")}
    values.update({
        "instances_per_s": 1 / tally.per_instance(per_case),
        "setup_s": tally.per_call("setup", False),
        "peak_rss_mb": step_rss,
    })
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(rec, plain, traced):
    """Per-layer values from the spans, each per instance processed."""
    summary = tracing.summarise(rec, TOP_LEVEL)
    values = dict(rec.counts)
    for name, calls in summary.calls.items():
        values[name + ".calls"] = calls
        values[name + ".self_s"] = summary.self_s[name]
    values["polymat.popov_canonical.quotients"] = summary.pairs[
        ("polymat.popov_canonical", "ffpoly.divmod")]
    values["oracle.skipped"] = len(traced.samples("oracle_skipped"))
    values["trace.overhead_s"] = traced.busy - plain.busy
    out = {}
    for name, unit in PER_LAYER:
        if name == "appbasis.pm_basis.max_depth":
            value = summary.depth["appbasis.pm_basis"]
        elif name == "trace.solver_cover":
            value = summary.cover
        elif name == "trace.overhead_frac":
            value = (traced.busy - plain.busy) / plain.busy
        else:
            value = values.get(name, 0) / traced.instances
        out[name] = _metric(value, unit)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "simpade" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
