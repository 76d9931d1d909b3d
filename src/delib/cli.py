"""Command-line front end: solve, simulate, generate, reduce, verify.

Summaries are line-oriented ``key=value`` pairs for scripting; all
randomness flows from ``--seed`` and repeated invocations produce
byte-identical files.

Exit codes: 0 success; 1 verification failure; 2 a requested score
threshold is unmet; 3 a size guard was exceeded; 4 scheduler incompatible
with the space; 5 inadmissible generator parameters; 6 input parse failure
or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from fractions import Fraction

from . import generators, instancefile, solvers
from .dynamics import (
    TRACE_CSV_HEADER,
    AdversarialScheduler,
    GreedyFastScheduler,
    RandomScheduler,
    reaches_popular,
    run_deliberation,
    singleton_structure,
    trace_to_csv,
)
from .generators import GeneratorError
from .grid import grid_converge
from .instancefile import Instance, InstanceFormatError
from .solvers import GuardExceeded
from .space import Kind

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_ETA_UNMET = 2
EXIT_GUARD = 3
EXIT_BAD_SCHEDULER = 4
EXIT_BAD_PARAMS = 5
EXIT_PARSE = 6


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    try:
        eta = None if args.eta is None else Fraction(args.eta)
    except (ValueError, ZeroDivisionError):
        return _fail(EXIT_PARSE, f"--eta must be a rational, got {args.eta!r}")
    try:
        inst = instancefile.load(args.space)
    except (OSError, InstanceFormatError) as exc:
        return _fail(EXIT_PARSE, f"cannot load instance: {exc}")
    try:
        report = solvers.solve_popular(inst.space, args.method)
    except GuardExceeded as exc:
        return _fail(EXIT_GUARD, str(exc))
    except ValueError as exc:
        return _fail(EXIT_PARSE, str(exc))
    eta_met = None if eta is None else report.best_score >= eta
    if args.json:
        doc = {
            "method": report.method.value,
            "score": str(report.best_score),
            "proposal": instancefile.coords_document(report.best_proposal),
            "supporters": list(report.supporters),
            "work": report.work,
        }
        if eta_met is not None:
            doc["eta"] = args.eta
            doc["eta_met"] = eta_met
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        except OSError as exc:
            return _fail(EXIT_PARSE, f"cannot write output: {exc}")
    print(f"method={report.method.value}")
    print(f"score={report.best_score}")
    print(f"proposal={report.best_proposal}")
    print(f"work={report.work}")
    if eta_met is not None:
        print(f"eta_met={'yes' if eta_met else 'no'}")
    if eta_met is False:
        return EXIT_ETA_UNMET
    return EXIT_OK


# ---------------------------------------------------------------------------


def _slow_lower_bound(n: int) -> float:
    root = math.sqrt(n)
    return (2.0 / 3.0) * (2 ** (root / 2) - 2 * n / 2 ** (root / 2))


def _family_for(inst: Instance):
    """``(family, None)`` for the slow family the file declares, rebuilt from
    its metadata, else ``(None, message)``.  Both families have exactly ``n``
    agents, so the count is compared before the family is built."""
    meta = inst.meta or {}
    try:
        generate = {"euc-slow": generators.gen_euc_slow, "hyp-slow": generators.gen_hyp_slow}[meta["family"]]
        n = int(meta["n"])
        family = generate(n) if n == inst.space.n else None
    except (KeyError, TypeError, ValueError):  # ValueError covers GeneratorError
        return None, (
            "adversarial scheduling needs a generated slow-family instance "
            "(its support oracle is reconstructed from the file metadata)"
        )
    if family is None or family.space != inst.space:
        return None, "instance does not match its declared family"
    return family, None


def cmd_simulate(args) -> int:
    try:
        inst = instancefile.load(args.space)
    except (OSError, InstanceFormatError) as exc:
        return _fail(EXIT_PARSE, f"cannot load instance: {exc}")
    space = inst.space
    if args.scheduler != "random" and args.k < 2:
        plays = "picks its own k (2 or 3)" if args.scheduler == "grid-converge" else "plays 2-compromises"
        return _fail(EXIT_BAD_SCHEDULER, f"the {args.scheduler} scheduler {plays}; --k must be at least 2")
    if args.scheduler == "random":
        scheduler = RandomScheduler()
    elif args.scheduler == "greedy-fast":
        if space.kind is not Kind.EUCLIDEAN:
            return _fail(EXIT_BAD_SCHEDULER, "greedy-fast runs on Euclidean spaces only")
        scheduler = GreedyFastScheduler()
    elif args.scheduler == "adversarial":
        try:
            family, message = _family_for(inst)
        except GuardExceeded as exc:
            return _fail(EXIT_GUARD, str(exc))
        if family is None:
            return _fail(EXIT_BAD_SCHEDULER, message)
        scheduler = AdversarialScheduler(family.support_oracle)
    elif args.scheduler == "grid-converge":
        if space.kind is not Kind.GRID:
            return _fail(EXIT_BAD_SCHEDULER, "grid-converge runs on grid spaces only")
        scheduler = None
    else:
        return _fail(EXIT_BAD_SCHEDULER, f"unknown scheduler {args.scheduler!r}")

    initial = inst.structure if inst.structure is not None else singleton_structure(space)
    try:
        if args.scheduler == "grid-converge":
            trace = grid_converge(space, initial)
        else:
            trace = run_deliberation(space, initial, scheduler, k=args.k, seed=args.seed)
    except GuardExceeded as exc:
        return _fail(EXIT_GUARD, str(exc))
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(trace_to_csv(trace))
        except OSError as exc:
            return _fail(EXIT_PARSE, f"cannot write output: {exc}")
    try:
        successful = "yes" if reaches_popular(space, trace.final) else "no"
    except GuardExceeded:
        successful = "unknown"
    n = space.n
    print(
        f"steps={len(trace.steps)} bound2n={2 ** n} "
        f"lower={_slow_lower_bound(n):.6g} successful={successful}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    try:
        if args.family == "hyp-slow":
            fam = generators.gen_hyp_slow(args.n)
            inst = Instance(fam.space, None, {"family": "hyp-slow", "n": args.n})
        elif args.family == "euc-slow":
            fam = generators.gen_euc_slow(args.n)
            inst = Instance(fam.space, None, {"family": "euc-slow", "n": args.n})
        elif args.family == "exp-compromise":
            built = generators.gen_exp_compromise(args.d)
            meta = {
                "family": "exp-compromise",
                "d": args.d,
                "k": built.compromise_size,
                "capture_fraction": str(built.capture_fraction),
                "decay": str(built.decay),
                "rival_cap": str(built.rival_cap),
                "types_per_proposal": built.types_per_proposal,
            }
            inst = Instance(built.space, built.initial, meta)
        elif args.family == "random":
            space = generators.gen_random(
                args.kind, args.n, args.d, args.seed, tuple(args.range)
            )
            meta = {
                "family": "random",
                "kind": args.kind,
                "n": args.n,
                "d": args.d,
                "seed": args.seed,
                "range": list(args.range),
            }
            inst = Instance(space, None, meta)
        else:
            return _fail(EXIT_BAD_PARAMS, f"unknown family {args.family!r}")
    except (GeneratorError, GuardExceeded) as exc:
        return _fail(EXIT_BAD_PARAMS, str(exc))
    try:
        instancefile.save(inst, args.out)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot write output: {exc}")
    print(f"written={args.out} agents={inst.space.n} d={inst.space.dim}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _certificate_document(cert: generators.ReductionCertificate, instance_path: str) -> dict:
    return {
        "problem": cert.problem,
        "instance": instance_path,
        "eta": None if cert.eta is None else str(cert.eta),
        "unanimous": cert.unanimous,
        "dim_labels": list(cert.dim_labels),
        "source": cert.source,
    }


def cmd_reduce(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_PARSE, f"cannot read input: {exc}")
    try:
        if args.source == "3sat":
            num_vars, clauses = generators.parse_dimacs_cnf(text)
            cert = generators.reduce_3sat_to_euc(num_vars, clauses)
            meta = {"family": "reduction", "problem": "3sat", "eta": str(cert.eta)}
        else:
            num_vertices, edges = generators.parse_edge_list(text)
            if args.kappa is None:
                return _fail(EXIT_PARSE, "--kappa is required for independent-set reductions")
            cert = generators.reduce_is_to_hyp(num_vertices, edges, args.kappa)
            meta = {"family": "reduction", "problem": "indep-set", "kappa": args.kappa}
    except GuardExceeded as exc:
        return _fail(EXIT_GUARD, str(exc))
    except ValueError as exc:  # GeneratorError, or a malformed number in the input
        return _fail(EXIT_PARSE, str(exc))
    cert_path = args.cert or (args.out + ".cert.json")
    try:
        instancefile.save(Instance(cert.space, None, meta), args.out)
        with open(cert_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_certificate_document(cert, args.out), sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot write output: {exc}")
    target = "unanimous" if cert.unanimous else f"eta={cert.eta}"
    print(f"written={args.out} cert={cert_path} d={cert.space.dim} agents={cert.space.n} {target}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _verify_exp_compromise(args) -> int:
    try:
        inst = instancefile.load(args.infile)
    except (OSError, InstanceFormatError) as exc:
        return _fail(EXIT_PARSE, f"cannot load instance: {exc}")
    meta = inst.meta or {}
    if meta.get("family") != "exp-compromise":
        return _fail(EXIT_PARSE, "not an exp-compromise instance (missing family metadata)")
    try:
        built = generators.gen_exp_compromise(int(meta["d"]))
    except GuardExceeded as exc:
        return _fail(EXIT_GUARD, str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(EXIT_PARSE, f"malformed exp-compromise metadata: {exc!r}")
    regenerated = Instance(built.space, built.initial, None)
    if regenerated.space != inst.space or built.initial != inst.structure:
        print("check=regeneration result=fail")
        print("first_violation=instance does not match its declared construction")
        return EXIT_VERIFY_FAIL
    report = generators.verify_exp_compromise(built)
    for line in report.checks:
        print(f"check={line.split(':')[0]} result=pass")
    if not report.passed:
        print(f"first_violation={report.failures[0]}")
        return EXIT_VERIFY_FAIL
    print("result=pass")
    return EXIT_OK


def _verify_trace(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_PARSE, f"cannot read trace: {exc}")
    if not lines or lines[0] != TRACE_CSV_HEADER:
        print("first_violation=header")
        return EXIT_VERIFY_FAIL
    prev_phi = None
    for lineno, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 6:
            print(f"first_violation=row {lineno}: malformed")
            return EXIT_VERIFY_FAIL
        step, ell, sizes_s, new_size, phi_b, phi_a = parts
        try:
            sizes = [int(s) for s in sizes_s.split("+")] if sizes_s else []
            step, ell, new_size = int(step), int(ell), int(new_size)
            before, after = (int(phi_b), int(phi_a)) if phi_b or phi_a else (None, None)
        except ValueError:
            print(f"first_violation=row {lineno}: malformed")
            return EXIT_VERIFY_FAIL
        if step != lineno:
            print(f"first_violation=row {lineno}: step numbering")
            return EXIT_VERIFY_FAIL
        if ell < 2 or len(sizes) != ell:
            print(f"first_violation=row {lineno}: participant count")
            return EXIT_VERIFY_FAIL
        if any(new_size <= s for s in sizes):
            print(f"first_violation=row {lineno}: growth")
            return EXIT_VERIFY_FAIL
        if new_size > sum(sizes):
            print(f"first_violation=row {lineno}: conservation")
            return EXIT_VERIFY_FAIL
        if before is not None:
            if prev_phi is not None and before != prev_phi:
                print(f"first_violation=row {lineno}: potential chaining")
                return EXIT_VERIFY_FAIL
            if after <= before or (ell == 2 and after - before < 1):
                print(f"first_violation=row {lineno}: potential")
                return EXIT_VERIFY_FAIL
            prev_phi = after
    print(f"result=pass rows={len(lines) - 1}")
    return EXIT_OK


def _sat_satisfiable(num_vars: int, clauses) -> bool:
    for bits in range(1 << num_vars):
        assignment = [(bits >> i) & 1 for i in range(num_vars)]
        if all(
            any(assignment[abs(l) - 1] == (1 if l > 0 else 0) for l in clause)
            for clause in clauses
        ):
            return True
    return False


def _has_independent_set(num_vertices: int, edges, kappa: int) -> bool:
    forbidden = {frozenset(e) for e in edges}
    for combo in itertools.combinations(range(1, num_vertices + 1), kappa):
        if all(frozenset(p) not in forbidden for p in itertools.combinations(combo, 2)):
            return True
    return False


def _verify_reduction(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, f"cannot load certificate: {exc}")
    if not isinstance(cert, dict):
        return _fail(EXIT_PARSE, "certificate must hold a JSON object")
    space_path = args.space or cert.get("instance")
    if not space_path:
        return _fail(EXIT_PARSE, "no instance path given (use --space)")
    try:
        inst = instancefile.load(space_path)
    except (OSError, InstanceFormatError) as exc:
        return _fail(EXIT_PARSE, f"cannot load instance: {exc}")
    source = cert.get("source", {})
    try:
        if cert.get("problem") == "3sat":
            eta = Fraction(cert["eta"])
            report = solvers.solve_euc_subsets(inst.space)
            reached = report.best_score >= eta
            print(f"score>=eta: {'yes' if reached else 'no'}")
            expected = _sat_satisfiable(int(source["variables"]), source["clauses"])
            print(f"source_satisfiable={'yes' if expected else 'no'}")
        elif cert.get("problem") == "indep-set":
            proposal = solvers.hyp_unanimous_proposal(inst.space)
            reached = proposal is not None
            print(f"unanimous: {'yes' if reached else 'no'}")
            expected = _has_independent_set(
                int(source["vertices"]),
                [tuple(e) for e in source["edges"]],
                int(source["kappa"]),
            )
            print(f"source_has_independent_set={'yes' if expected else 'no'}")
        else:
            return _fail(EXIT_PARSE, f"unknown certificate problem {cert.get('problem')!r}")
    except GuardExceeded as exc:
        return _fail(EXIT_GUARD, str(exc))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return _fail(EXIT_PARSE, f"malformed certificate: {exc!r}")
    if reached != expected:
        print("first_violation=biconditional")
        return EXIT_VERIFY_FAIL
    print("result=pass")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.what == "exp-compromise":
        return _verify_exp_compromise(args)
    if args.what == "trace":
        return _verify_trace(args)
    return _verify_reduction(args)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delib",
        description="Deliberative coalition formation: solvers, dynamics, generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a popular proposal")
    p.add_argument("--space", required=True, help="instance JSON file")
    p.add_argument(
        "--method",
        default="auto",
        choices=["auto", *(m.value for m in solvers.Method)],
    )
    p.add_argument("--eta", help="score threshold to test (rational, e.g. 3 or 7/2)")
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run a deliberation to termination")
    p.add_argument("--space", required=True)
    p.add_argument("--k", type=int, default=2, help="maximum coalitions per compromise")
    p.add_argument(
        "--scheduler",
        required=True,
        choices=["random", "adversarial", "greedy-fast", "grid-converge"],
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write the step CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="produce an instance file")
    p.add_argument(
        "--family",
        required=True,
        choices=["hyp-slow", "euc-slow", "exp-compromise", "random"],
    )
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", default="euclidean", choices=["hypercube", "euclidean", "grid", "grid_nonneg"])
    p.add_argument("--range", type=int, nargs=2, default=(-5, 5), metavar=("LO", "HI"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("reduce", help="reduce a source problem to an instance")
    p.add_argument("--from", dest="source", required=True, choices=["3sat", "indep-set"])
    p.add_argument("--in", dest="infile", required=True, help="DIMACS CNF or edge-list file")
    p.add_argument("--kappa", type=int, help="independent-set size sought")
    p.add_argument("--out", required=True)
    p.add_argument("--cert", help="certificate path (default: OUT.cert.json)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="check a construction, trace, or reduction")
    p.add_argument("--what", required=True, choices=["exp-compromise", "trace", "reduction"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--space", help="instance file (reduction verification)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
