"""The four workloads: their inputs, their rounds of commands, their checks.

A workload builds its inputs from the seed in ``setup``, lists one round of
operations in ``ops``, and checks a finished round's outputs in ``check``.
Every round runs the same operations on the same inputs, so the share of
failed operations is the same in every run.  The program only ever sees the
files written here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import checkers
from checkers import CheckFailed

# Fixed satisfiable 3-CNF formulas on three variables.
FORMULAS = {
    "sat2": [[1, 2, 3], [-1, -2, -3]],
    "sat3": [[1, 2, 3], [-1, -2, -3], [1, -2, 3]],
}


@dataclass
class Op:
    """One command of a round and the outcome it must have."""

    kind: str  # solve, simulate, verify, generate, reduce, reload
    label: str
    call: Callable[[], int]
    # (exit code, stdout, stderr) -> success; None means exit code 0.  Only
    # the malformed-input commands, which a known fault makes fail, set it.
    accept: Callable[[int, str, str], bool] | None = None


@dataclass
class Result:
    op: Op
    rc: int | None
    out: str
    err: str
    seconds: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        if self.error is not None:
            return False
        if self.op.accept is not None:
            return self.op.accept(self.rc, self.out, self.err)
        return self.rc == 0


@dataclass
class Context:
    """What the workload needs at run time: the program and its input files."""

    delib: object  # namespace of the delib modules, looked up at call time
    work: str
    seed: int
    files: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def cli(self, *argv) -> Callable[[], int]:
        argv = [str(a) for a in argv]
        return lambda: self.delib.cli.main(argv)


def _kv(out: str) -> dict:
    """``key=value`` tokens of a command's output."""
    return dict(token.partition("=")[::2] for token in out.split() if "=" in token)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _edge_list(num_vertices: int, edges) -> str:
    lines = [f"p {num_vertices} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _save(ctx: Context, name: str, space, structure=None, meta=None) -> str:
    inst = ctx.delib.instancefile.Instance(space, structure, meta)
    path = ctx.path(name)
    ctx.delib.instancefile.save(inst, path)
    return path


def _check_solve(res: Result, instance_path: str) -> tuple[Fraction, tuple]:
    """Recount the returned proposal's score from the instance file."""
    kv = _kv(res.out)
    score, proposal = Fraction(kv["score"]), checkers.parse_point(kv["proposal"])
    kind, agents = checkers.read_instance(_read(instance_path))
    checkers.check_score(kind, agents, proposal, score)
    return score, proposal


def _check_trace_file(res: Result, csv_path: str, n: int, k: int = 2) -> str:
    text = _read(csv_path)
    checkers.check_trace(text, n, k)
    rows = len(text.splitlines()) - 1
    if _kv(res.out).get("steps") not in (None, str(rows)):
        raise CheckFailed(f"{csv_path}: simulate reported {_kv(res.out).get('steps')} steps, trace has {rows}")
    return text


def _check_verify_pass(res: Result):
    if "result=pass" not in res.out:
        raise CheckFailed(f"{res.op.label}: verify did not pass: {res.out.strip()!r}")


def _random_graph(rng: random.Random, num_vertices: int, alpha: int):
    """A graph whose independence number is exactly ``alpha``."""
    pairs = [(u, v) for u in range(1, num_vertices + 1) for v in range(u + 1, num_vertices + 1)]
    while True:
        edges = [p for p in pairs if rng.random() < 0.6]
        if checkers.independence_number(num_vertices, edges) == alpha:
            return edges


class Workload:
    name = ""

    def setup(self, ctx: Context):
        raise NotImplementedError

    def ops(self, ctx: Context) -> list[Op]:
        raise NotImplementedError

    def check(self, ctx: Context, results: list[Result]):
        raise NotImplementedError


# ---------------------------------------------------------------------------


class AdversarialSlow(Workload):
    """The slow pairing schedule on the Euclidean slow family.

    The family is fixed by n, so the seed reaches the program only as
    ``simulate --seed``; n = 40 gives 3,012 validated transitions.
    """

    name = "adversarial-slow"
    sizes = (9, 16, 36, 40)
    solved = 16  # at most 22 distinct positions fit the subset-LP guard
    batch = 2  # solves before each simulation and at the end of a round

    def setup(self, ctx):
        for n in self.sizes:
            fam = ctx.delib.generators.gen_euc_slow(n)
            ctx.files[n] = _save(ctx, f"euc-slow-{n}.json", fam.space, None, {"family": "euc-slow", "n": n})

    def ops(self, ctx):
        # The same solve in batches before every simulation and at the end;
        # the repeats must agree.
        ops = []

        def solves():
            for _ in range(self.batch):
                ops.append(Op("solve", f"solve-{len(ops)}", ctx.cli(
                    "solve", "--space", ctx.files[self.solved], "--method", "subset-lp", "--eta", self.solved)))

        for n in self.sizes:
            solves()
            csv = ctx.path(f"adv-{n}.csv")
            ops.append(Op("simulate", f"simulate-{n}", ctx.cli(
                "simulate", "--space", ctx.files[n], "--scheduler", "adversarial",
                "--seed", ctx.seed, "--trace", csv)))
            ops.append(Op("verify", f"verify-{n}", ctx.cli("verify", "--what", "trace", "--in", csv)))
        solves()
        return ops

    def check(self, ctx, results):
        by = {r.op.label: r for r in results}
        for n in self.sizes:
            sim = by[f"simulate-{n}"]
            csv = _check_trace_file(sim, ctx.path(f"adv-{n}.csv"), n)
            checkers.check_adversarial(n, int(_kv(sim.out)["steps"]), csv)
            _check_verify_pass(by[f"verify-{n}"])
        n = self.solved
        solves = [r for r in results if r.op.kind == "solve"]
        score, _ = _check_solve(solves[0], ctx.files[n])
        if score != n:  # the uniform proposal on all n axes is approved by everyone
            raise CheckFailed(f"euc-slow n={n}: popular score {score}, expected {n}")
        if len({r.out for r in solves}) != 1:
            raise CheckFailed(f"euc-slow n={n}: repeated solves printed different output")


class EuclidSolve(Workload):
    """Subset LPs on 3-SAT reductions; subset LPs against cells on random instances.

    Each random instance is a fixed random point set (one per slot) turned
    by a seeded permutation of the axes and seeded sign flips.  That is an
    isometry, so approval and the cell arrangement are the same up to it on
    every seed, and with the scheduler's seed fixed per slot the work per
    round barely depends on the seed (LP and validation counts within 2%)
    while the files do.
    """

    name = "euclid-solve"
    random_shapes = ((8, 3),) * 4

    def setup(self, ctx):
        space = ctx.delib.space
        for name, clauses in FORMULAS.items():
            path = ctx.path(f"{name}.cnf")
            _write(path, _dimacs(3, clauses))
            ctx.files[name] = path
        for slot, (n, d) in enumerate(self.random_shapes):
            base, points = random.Random(slot), []
            while len(points) < n:
                den = base.choice((1, 2, 3, 4))
                coords = [Fraction(base.randint(-5 * den, 5 * den), den) for _ in range(d)]
                if any(coords):
                    points.append(coords)
            rng = random.Random(ctx.seed * 1000 + slot)
            axes, signs = rng.sample(range(d), d), [rng.choice((1, -1)) for _ in range(d)]
            agents = tuple(
                space.Agent(space.euclidean_point([signs[j] * p[axes[j]] for j in range(d)])) for p in points
            )
            inst = space.DeliberationSpace(space.Kind.EUCLIDEAN, d, agents)
            ctx.files[slot] = _save(ctx, f"euc-{slot}.json", inst)

    def ops(self, ctx):
        def cert(name):
            return ctx.path(f"{name}.json") + ".cert.json"

        def solve(name):
            return Op("solve", f"solve-{name}", ctx.cli("solve", "--space", ctx.path(f"{name}.json"), "--method", "subset-lp"))

        ops = [Op("reduce", f"reduce-{name}", ctx.cli(
            "reduce", "--from", "3sat", "--in", ctx.files[name], "--out", ctx.path(f"{name}.json"))) for name in FORMULAS]
        ops += [solve(name) for name in FORMULAS]
        # Verifying a reduction repeats its solve's scan: one is enough.
        ops.append(Op("verify", "verify-sat2", ctx.cli("verify", "--what", "reduction", "--in", cert("sat2"))))
        for slot in range(len(self.random_shapes)):
            path, csv = ctx.files[slot], ctx.path(f"euc-{slot}.csv")
            for method in ("subset-lp", "cells"):
                ops.append(Op("solve", f"solve-{slot}-{method}", ctx.cli("solve", "--space", path, "--method", method)))
            ops.append(Op("simulate", f"simulate-{slot}", ctx.cli(
                "simulate", "--space", path, "--scheduler", "random", "--seed", slot, "--trace", csv)))
            ops.append(Op("verify", f"verify-{slot}", ctx.cli("verify", "--what", "trace", "--in", csv)))
        return ops

    def check(self, ctx, results):
        by = {r.op.label: r for r in results}
        for name, clauses in FORMULAS.items():
            instance = ctx.path(f"{name}.json")
            score, _ = _check_solve(by[f"solve-{name}"], instance)
            eta = Fraction(json.loads(_read(instance + ".cert.json"))["eta"])
            checkers.check_sat_reduction(3, clauses, score >= eta)
        _check_verify_pass(by["verify-sat2"])
        checkers.check_sat_reduction(3, FORMULAS["sat2"], "score>=eta: yes" in by["verify-sat2"].out)
        for slot, (n, _) in enumerate(self.random_shapes):
            path = ctx.files[slot]
            lp, _ = _check_solve(by[f"solve-{slot}-subset-lp"], path)
            cells, _ = _check_solve(by[f"solve-{slot}-cells"], path)
            if lp != cells:
                raise CheckFailed(f"euc-{slot}: subset-lp score {lp}, cells score {cells}")
            _check_trace_file(by[f"simulate-{slot}"], ctx.path(f"euc-{slot}.csv"), n)
            _check_verify_pass(by[f"verify-{slot}"])


class HypercubeScan(Workload):
    """The 2^d mask loop: brute-force solves, random-scheduler dynamics, unanimity scans.

    Every agent holds exactly floor(d/2) ones.  The number of proposals an
    agent approves depends only on its number of ones, so the scans do the
    same work on every seed while positions, scores and types change.  How
    much work the random scheduler does depends on the coalitions it meets,
    so its instance is a fixed one with the axes permuted by the seed, and
    its own seed is fixed: approval, and so every step, is the same up to
    the permutation.
    """

    name = "hypercube-scan"
    solve_shapes = ((8, 15),) * 4
    simulate_shape = (6, 12)
    graph_vertices, graph_alpha = 6, 2  # one graph per solve instance

    def _instance(self, ctx, rng, n, d, name, axes=None):
        space = ctx.delib.space
        axes = axes or list(range(d))
        agents = tuple(
            space.Agent(space.hypercube_point_from_set([axes[j] for j in rng.sample(range(d), d // 2)], d))
            for _ in range(n)
        )
        return _save(ctx, name, space.DeliberationSpace(space.Kind.HYPERCUBE, d, agents))

    def setup(self, ctx):
        rng = random.Random(ctx.seed)
        for slot, (n, d) in enumerate(self.solve_shapes):
            ctx.files[slot] = self._instance(ctx, rng, n, d, f"hyp-{slot}.json")
        n, d = self.simulate_shape
        ctx.files["sim"] = self._instance(ctx, random.Random(0), n, d, "hyp-sim.json", rng.sample(range(d), d))
        for g in range(len(self.solve_shapes)):
            edges = _random_graph(rng, self.graph_vertices, self.graph_alpha)
            ctx.files[f"edges-{g}"] = edges
            _write(ctx.path(f"graph-{g}.txt"), _edge_list(self.graph_vertices, edges))

    def ops(self, ctx):
        # Each auto solve comes after one unanimity scan and before the type
        # ILP on the same instance, timed apart from it.  No independent set
        # of size alpha + 1 exists, so each unanimity scan runs over all 2^d
        # proposals.
        ops = []
        csv = ctx.path("hyp-sim.csv")
        for slot in range(len(self.solve_shapes)):
            if slot == len(self.solve_shapes) // 2:
                ops.append(Op("simulate", "simulate", ctx.cli(
                    "simulate", "--space", ctx.files["sim"], "--scheduler", "random", "--seed", 1, "--trace", csv)))
                ops.append(Op("verify", "verify-trace", ctx.cli("verify", "--what", "trace", "--in", csv)))
            out = ctx.path(f"is-{slot}.json")
            ops.append(Op("reduce", f"reduce-is-{slot}", ctx.cli(
                "reduce", "--from", "indep-set", "--in", ctx.path(f"graph-{slot}.txt"),
                "--kappa", self.graph_alpha + 1, "--out", out)))
            ops.append(Op("verify", f"verify-is-{slot}", ctx.cli("verify", "--what", "reduction", "--in", out + ".cert.json")))
            path = ctx.files[slot]
            ops.append(Op("solve", f"solve-{slot}", ctx.cli("solve", "--space", path)))
            ops.append(Op("solve-ilp", f"ilp-{slot}", ctx.cli("solve", "--space", path, "--method", "ilp")))
        return ops

    def check(self, ctx, results):
        by = {r.op.label: r for r in results}
        delib = ctx.delib
        for slot in range(len(self.solve_shapes)):
            path = ctx.files[slot]
            res = by[f"solve-{slot}"]
            score, _ = _check_solve(res, path)
            ilp_score, _ = _check_solve(by[f"ilp-{slot}"], path)
            # The route auto did not take must find the same score.
            if _kv(res.out)["method"] == "brute":
                other, other_score = "ilp", ilp_score
            else:
                other = "brute"
                other_score = delib.solvers.solve_popular(delib.instancefile.load(path).space, other).best_score
            if other_score != score:
                raise CheckFailed(f"hyp-{slot}: auto score {score}, {other} score {other_score}")
        _check_trace_file(by["simulate"], ctx.path("hyp-sim.csv"), self.simulate_shape[0])
        _check_verify_pass(by["verify-trace"])
        for g in range(len(self.solve_shapes)):
            res = by[f"verify-is-{g}"]
            _check_verify_pass(res)
            unanimous = "unanimous: yes" in res.out
            checkers.check_is_reduction(self.graph_vertices, ctx.files[f"edges-{g}"], self.graph_alpha + 1, unanimous)


class GridFiles(Workload):
    """Generation, grid convergence, file round trips, verification and two malformed inputs."""

    name = "grid-files"
    grid_agents = 400
    formula = "sat2"
    reloaded = ("grid", "grid_nonneg", "exp-28", "r3", "ris")

    def setup(self, ctx):
        rng = random.Random(ctx.seed)
        # A fixed formula: how long verifying its reduction takes depends on
        # the formula, and a seeded one made the verify time vary with the seed.
        _write(ctx.path("small.cnf"), _dimacs(3, FORMULAS[self.formula]))
        ctx.files["graph"] = _random_graph(rng, 5, 2)
        _write(ctx.path("small-graph.txt"), _edge_list(5, ctx.files["graph"]))
        # An instance whose second agent lacks "coords", and a trace row with
        # a non-integer field: both must be rejected with a one-line error.
        space = ctx.delib.space
        agents = tuple(space.Agent(space.grid_point(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(3))
        good = _save(ctx, "small-grid.json", space.DeliberationSpace(space.Kind.GRID, 2, agents))
        doc = json.loads(_read(good))
        del doc["agents"][1]["coords"]
        _write(ctx.path("bad-agent.json"), json.dumps(doc))
        _write(ctx.path("bad-trace.csv"), checkers.TRACE_HEADER + "\n0,2,1+1,x,3,4\n")

    def ops(self, ctx):
        ops = []
        for kind in ("grid", "grid_nonneg"):
            path, csv = ctx.path(f"{kind}.json"), ctx.path(f"{kind}.csv")
            ops.append(Op("generate", f"generate-{kind}", ctx.cli(
                "generate", "--family", "random", "--kind", kind, "--n", self.grid_agents, "--d", 2,
                "--seed", ctx.seed, "--range", -30, 30, "--out", path)))
            ops.append(Op("simulate", f"simulate-{kind}", ctx.cli(
                "simulate", "--space", path, "--scheduler", "grid-converge", "--trace", csv)))
            ops.append(Op("verify", f"verify-{kind}", ctx.cli("verify", "--what", "trace", "--in", csv)))
            ops.append(Op("solve", f"solve-{kind}", ctx.cli("solve", "--space", path)))
        exp = ctx.path("exp-28.json")
        ops.append(Op("generate", "generate-exp", ctx.cli("generate", "--family", "exp-compromise", "--d", 28, "--out", exp)))
        ops.append(Op("verify", "verify-exp", ctx.cli("verify", "--what", "exp-compromise", "--in", exp)))
        ops.append(Op("reduce", "reduce-3sat", ctx.cli("reduce", "--from", "3sat", "--in", ctx.path("small.cnf"), "--out", ctx.path("r3.json"))))
        ops.append(Op("verify", "verify-3sat", ctx.cli("verify", "--what", "reduction", "--in", ctx.path("r3.json.cert.json"))))
        ops.append(Op("reduce", "reduce-is", ctx.cli(
            "reduce", "--from", "indep-set", "--in", ctx.path("small-graph.txt"), "--kappa", 2, "--out", ctx.path("ris.json"))))
        ops.append(Op("verify", "verify-is", ctx.cli("verify", "--what", "reduction", "--in", ctx.path("ris.json.cert.json"))))
        for name in self.reloaded:
            ops.append(Op("reload", f"reload-{name}", self._reload(ctx, name)))
        ops.append(Op("solve", "malformed-instance", ctx.cli("solve", "--space", ctx.path("bad-agent.json")),
                      accept=lambda rc, out, err: rc == 6 and len(err.strip().splitlines()) == 1))
        ops.append(Op("verify", "malformed-trace", ctx.cli("verify", "--what", "trace", "--in", ctx.path("bad-trace.csv")),
                      accept=lambda rc, out, err: rc == 1 and "first_violation=" in out))
        return ops

    def _reload(self, ctx, name):
        def reload():
            instancefile = ctx.delib.instancefile
            instancefile.save(instancefile.load(ctx.path(f"{name}.json")), ctx.path(f"{name}.resaved.json"))
            return 0

        return reload

    def check(self, ctx, results):
        by = {r.op.label: r for r in results}
        for kind in ("grid", "grid_nonneg"):
            path = ctx.path(f"{kind}.json")
            _, agents = checkers.read_instance(_read(path))
            if len(agents) != self.grid_agents:
                raise CheckFailed(f"{kind}: {len(agents)} agents generated")
            best = checkers.best_unit_target(kind, agents)
            sim = by[f"simulate-{kind}"]
            text = _check_trace_file(sim, ctx.path(f"{kind}.csv"), len(agents), 2 if kind == "grid_nonneg" else 3)
            rows = [line.split(",") for line in text.splitlines()[1:]]
            # No coalition outgrows the popular score, and the successful one reaches it.
            if len(rows) > len(agents) or max(int(r[3]) for r in rows) != best:
                raise CheckFailed(f"{kind}: convergence does not reach the unit-target score {best} within n steps")
            if _kv(sim.out).get("successful") != "yes":
                raise CheckFailed(f"{kind}: convergence not reported successful")
            _check_verify_pass(by[f"verify-{kind}"])
            score, _ = _check_solve(by[f"solve-{kind}"], path)
            if score != best:
                raise CheckFailed(f"{kind}: solve score {score}, best unit target {best}")
        _check_verify_pass(by["verify-exp"])
        self._check_pivot(ctx.path("exp-28.json"))
        _check_verify_pass(by["verify-3sat"])
        _check_verify_pass(by["verify-is"])
        checkers.check_sat_reduction(3, FORMULAS[self.formula], "score>=eta: yes" in by["verify-3sat"].out)
        checkers.check_is_reduction(5, ctx.files["graph"], 2, "unanimous: yes" in by["verify-is"].out)
        for name in self.reloaded:
            if _read(ctx.path(f"{name}.json")) != _read(ctx.path(f"{name}.resaved.json")):
                raise CheckFailed(f"{name}: reloading and saving changed the file")

    @staticmethod
    def _check_pivot(path):
        """The single-dimension pivot outweighs every coalition of the stored structure."""
        text = _read(path)
        doc = json.loads(text)
        kind, agents = checkers.read_instance(text)
        pivot = tuple(int(j == doc["d"] - 1) for j in range(doc["d"]))
        support = checkers.recount(kind, agents, pivot)
        heaviest = max(sum((agents[i][1] for i in c["members"]), Fraction(0)) for c in doc["structure"])
        if not support > heaviest:
            raise CheckFailed(f"exp-compromise: pivot support {support} does not beat {heaviest}")


WORKLOADS = {w.name: w for w in (AdversarialSlow(), EuclidSolve(), HypercubeScan(), GridFiles())}
