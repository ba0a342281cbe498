"""Command-line front end: solve, verify, bench.

Instance files are JSON documents with ascending coefficient lists
(constant term first):

    {"p": 2,
     "S": [[1, 0, 1, 0, 1], [1, 0, 0, 0, 1], [1, 0, 0, 1, 1]],
     "g": [[0, 0, 0, 0, 0, 1], ...],
     "N": [5, 3, 4, 5]}

Solution-specification files echo a hash of the instance they were computed
from:

    {"lambdas": [[1, 0, 0, 0, 1], [0, 1, 0, 1]],
     "deltas": [-1, -1],
     "instance_sha256": "..."}

Exit codes: 0 success, 1 parse/validation error, 2 solver precondition
violated, 3 empty solution set (output still written), 4 verification
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

from .ffpoly import Poly, is_prime
from .oracle import (OracleSizeError, oracle_solution_space,
                     spec_matches_oracle)
from .polymat import is_row_reduced, shifted_row_degrees
from .solvers import (PreconditionError, SolutionSpec, ValidationError,
                      complete, direct_sim_pade, duality_sim_pade,
                      recursive_sim_pade, validate_instance, verify_solution)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_EMPTY = 3
EXIT_VERIFY = 4

_SOLVERS = {
    "direct": direct_sim_pade,
    "duality": duality_sim_pade,
    "recursive": recursive_sim_pade,
}


class ParseError(ValueError):
    pass


def _is_int(value):
    # JSON true and false load as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _require(doc, key, kind, where):
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{where}: field {key!r} has the wrong type")
    return value


def _coeff_lists(doc, key, where):
    raw = _require(doc, key, list, where)
    out = []
    for idx, entry in enumerate(raw):
        if not isinstance(entry, list) or \
                not all(_is_int(c) and c >= 0 for c in entry):
            raise ParseError(f"{where}: {key}[{idx}] must be a list of "
                             "nonnegative integers")
        out.append(entry)
    return out


def parse_instance(text, where="instance"):
    """Parse instance JSON (text or pre-loaded string) to a ProblemInstance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: top level must be an object")
    p = _require(doc, "p", int, where)
    series = _coeff_lists(doc, "S", where)
    moduli = _coeff_lists(doc, "g", where)
    bounds = _require(doc, "N", list, where)
    if not all(_is_int(b) and b >= 0 for b in bounds):
        raise ParseError(f"{where}: N must be a list of nonnegative integers")
    return validate_instance(p, series, moduli, bounds)


def emit_instance(instance):
    doc = {
        "p": instance.field.p,
        "S": [s.to_list() for s in instance.series],
        "g": [g.to_list() for g in instance.moduli],
        "N": list(instance.bounds),
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def instance_hash(instance):
    return hashlib.sha256(emit_instance(instance).encode()).hexdigest()


def emit_spec(spec, instance):
    doc = {
        "lambdas": [lam.to_list() for lam in spec.lambdas],
        "deltas": list(spec.deltas),
        "instance_sha256": instance_hash(instance),
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def parse_spec(text, instance, where="spec"):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: top level must be an object")
    lambdas = _coeff_lists(doc, "lambdas", where)
    deltas = _require(doc, "deltas", list, where)
    if not all(_is_int(d) for d in deltas):
        raise ParseError(f"{where}: deltas must be integers")
    if len(lambdas) != len(deltas):
        raise ParseError(f"{where}: lambdas and deltas lengths differ")
    # a nonzero row has shifted degree >= deg lambda - N_0 >= -N_0
    n0 = instance.bounds[0]
    if any(-d > n0 for d in deltas):
        raise ParseError(f"{where}: deltas must be at least -N_0 = {-n0}")
    echoed = doc.get("instance_sha256")
    field = instance.field
    spec = SolutionSpec(tuple(Poly(field, c) for c in lambdas), tuple(deltas))
    return spec, echoed


def _cmd_solve(args):
    instance = parse_instance(_read(args.input), where=args.input)
    if args.algo == "oracle":
        try:
            space = oracle_solution_space(instance)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        doc = {
            "basis": [list(v) for v in space.basis],
            "dim": space.dim,
            "instance_sha256": instance_hash(instance),
        }
        _write(args.output, json.dumps(doc, sort_keys=True, indent=1) + "\n")
        return EXIT_OK if space.dim else EXIT_EMPTY
    try:
        spec = _SOLVERS[args.algo](instance)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _write(args.output, emit_spec(spec, instance))
    return EXIT_OK if spec.k else EXIT_EMPTY


def _cmd_verify(args):
    instance = parse_instance(_read(args.input), where=args.input)
    spec, echoed = parse_spec(_read(args.spec), instance, where=args.spec)
    failures = []

    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    check("instance-hash", echoed is None or echoed == instance_hash(instance))
    check("deltas-negative", all(d < 0 for d in spec.deltas))
    rows_ok = True
    neg_shift = tuple(-b for b in instance.bounds)
    if spec.k:
        completion = complete(spec.lambdas, instance)
        for i in range(spec.k):
            if not verify_solution(completion.row(i), instance):
                rows_ok = False
        check("rows-are-solutions", rows_ok)
        reduced = is_row_reduced(completion, neg_shift)
        check("completion-row-reduced", reduced)
        check("deltas-match-row-degrees",
              reduced and shifted_row_degrees(completion, neg_shift)
              == spec.deltas)
    try:
        check("matches-oracle", spec_matches_oracle(spec, instance))
    except OracleSizeError:
        print("skip matches-oracle (instance exceeds oracle size guard)")
        if not spec.k:
            # no rows to check and no oracle: nothing supports the claim
            print("FAIL empty-claim (unverified: no solutions claimed and "
                  "the oracle check was skipped)")
            failures.append("empty-claim")
    except ValueError:
        check("matches-oracle", False)
    return EXIT_VERIFY if failures else EXIT_OK


def _bench_instance(n, d, p, seed):
    rng = random.Random(seed)
    series = [[rng.randrange(p) for _ in range(d)] for _ in range(n)]
    modulus = [0] * d + [1]
    n0 = min(d, (d + 1) // 2 + 1)
    # sum N = n*d + n + 1: solution dimension n + 1 generically (N_i <= d)
    rest = n * d + n + 1 - n0
    bounds = [n0] + [min(d, rest // n + (1 if i < rest % n else 0))
                     for i in range(n)]
    return validate_instance(p, series, [modulus] * n, bounds)


def _cmd_bench(args):
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    known = set(_SOLVERS) | {"oracle"}
    if (args.n < 1 or args.d < 1 or args.seed < 0 or not is_prime(args.p)
            or not algos or any(a not in known for a in algos)):
        print("error: bad bench parameters", file=sys.stderr)
        return EXIT_PARSE
    instance = _bench_instance(args.n, args.d, args.p, args.seed)
    print("algo,n,d,wall_time,k,sum_neg_delta")
    for algo in algos:
        start = time.perf_counter()
        if algo == "oracle":
            try:
                space = oracle_solution_space(instance)
            except OracleSizeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_PRECONDITION
            k, total = space.dim, space.dim
        else:
            spec = _SOLVERS[algo](instance)
            k, total = spec.k, sum(-d for d in spec.deltas)
        elapsed = time.perf_counter() - start
        print(f"{algo},{args.n},{args.d},{elapsed:.6f},{k},{total}")
    return EXIT_OK


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simpade",
        description="Simultaneous Pade approximation over prime fields")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--input", required=True)
    solve.add_argument("--algo", required=True,
                       choices=["direct", "duality", "recursive", "oracle"])
    solve.add_argument("--output", required=True)
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="verify a solution specification")
    verify.add_argument("--input", required=True)
    verify.add_argument("--spec", required=True)
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="time solvers on random instances")
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--d", type=int, required=True)
    bench.add_argument("--p", type=int, required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--algos", required=True)
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
