"""Instance file round-trips and the command-line surface."""

import contextlib
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delib import generators, instancefile
from delib.cli import main
from delib.dynamics import Coalition, CoalitionStructure, singleton_structure
from delib.generators import gen_euc_slow, gen_random
from delib.instancefile import Instance, InstanceFormatError
from delib.space import Agent, DeliberationSpace, Kind, euclidean_point


def _replace(doc, kind, d, agents):
    """Make ``doc`` a structure-free instance of ``kind`` with ``agents``."""
    doc.pop("structure")
    doc.update(kind=kind, d=d, agents=agents)


class TestRoundTrip:
    def test_canonical_identity(self, tmp_path):
        inst = Instance(gen_random("euclidean", 4, 2, seed=5), None, {"family": "random"})
        path = tmp_path / "a.json"
        instancefile.save(inst, str(path))
        text1 = path.read_text()
        loaded = instancefile.load(str(path))
        instancefile.save(loaded, str(path))
        assert path.read_text() == text1

    def test_rationals_as_strings(self):
        space = DeliberationSpace(
            Kind.EUCLIDEAN,
            1,
            (Agent(euclidean_point([Fraction(2, 4)]), Fraction(6, 4)),),
        )
        doc = instancefile.to_document(Instance(space))
        assert doc["agents"][0]["coords"] == ["1/2"]
        assert doc["agents"][0]["weight"] == "3/2"

    def test_structure_roundtrip(self):
        fam = gen_euc_slow(3)
        structure = CoalitionStructure(
            (
                Coalition(frozenset({0, 1}), fam.support_oracle(frozenset({0, 1}))),
                Coalition(frozenset({2}), fam.space.agents[2].position),
            )
        )
        inst = Instance(fam.space, structure)
        again = instancefile.loads(instancefile.dumps(inst))
        assert again.structure == structure

    def test_grid_nonneg_tag(self):
        space = gen_random("grid_nonneg", 3, 2, seed=1)
        doc = instancefile.to_document(Instance(space))
        assert doc["kind"] == "grid_nonneg"
        assert instancefile.from_document(doc).space.grid_nonneg

    def test_bad_documents_rejected(self):
        with pytest.raises(InstanceFormatError):
            instancefile.loads("[]")
        with pytest.raises(InstanceFormatError):
            instancefile.loads('{"version": 1, "kind": "torus", "d": 2, "agents": []}')
        with pytest.raises(InstanceFormatError):
            instancefile.loads(
                '{"version": 1, "kind": "euclidean", "d": 1, "agents": [{"coords": ["0"], "weight": "1"}]}'
            )
        with pytest.raises(InstanceFormatError):
            instancefile.loads(
                '{"version": 2, "kind": "euclidean", "d": 1, "agents": [{"coords": ["1"], "weight": "1"}]}'
            )

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc["agents"][1].pop("coords"),
            lambda doc: doc.update(agents={"0": doc["agents"][0]}),
            lambda doc: doc.update(agents=[doc["agents"][0], 7]),
            lambda doc: doc["structure"][0].pop("members"),
            lambda doc: doc.update(structure={"members": [0]}),
            lambda doc: doc["structure"][0].update(members=[]),
            lambda doc: doc.update(kind=["grid"]),
            lambda doc: doc.update(meta=[1]),
            lambda doc: doc["agents"][0].update(weight=None),
            # JSON floats and booleans: inexact, or truncated by int().
            lambda doc: _replace(doc, "euclidean", 1, [{"coords": [0.1], "weight": "1"}]),
            lambda doc: _replace(doc, "euclidean", 1, [{"coords": ["1"], "weight": 0.1}]),
            lambda doc: _replace(doc, "grid", 2, [{"coords": [2.5, 1], "weight": "1"}]),
            lambda doc: _replace(doc, "hypercube", 2, [{"coords": [1.0, 0.9], "weight": "1"}]),
            lambda doc: doc.update(d=2.7),
            lambda doc: doc["structure"][0].update(members=[0.4]),
            lambda doc: doc["agents"][0].update(weight=True),
            lambda doc: doc["agents"][0]["coords"].append(3),
            # Strings where a list belongs, which would be read one character at a time.
            lambda doc: _replace(doc, "hypercube", 3, [{"coords": "101", "weight": "1"}]),
            lambda doc: _replace(doc, "grid", 2, [{"coords": "12", "weight": "1"}]),
            lambda doc: _replace(doc, "euclidean", 2, [{"coords": "12", "weight": "1"}]),
            lambda doc: doc["structure"][0].update(members="01"),
        ],
    )
    def test_malformed_entries_rejected(self, damage):
        space = gen_random("grid", 3, 2, seed=4)
        doc = instancefile.to_document(Instance(space, singleton_structure(space)))
        damage(doc)
        with pytest.raises(InstanceFormatError):
            instancefile.from_document(doc)

    @pytest.mark.parametrize(
        "bad,line",
        [
            ("1/0", "bad coordinates ['0', '0', '0', '1/0']: Fraction(1, 0)"),
            ("2/x", "bad coordinates ['0', '0', '0', '2/x']: Invalid literal for Fraction: '2/x'"),
        ],
    )
    def test_repeated_coordinate_strings(self, tmp_path, capsys, bad, line):
        # Coordinate strings are parsed once per load; a bad one still fails
        # where it first appears, though "0" and the bad string repeat.
        agents = [{"coords": ["0"] * i + ["1"] + ["0"] * (3 - i), "weight": "1"} for i in range(4)]
        agents += [{"coords": ["0", "0", "0", bad], "weight": "1"}] * 2
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"version": 1, "kind": "euclidean", "d": 4, "agents": agents}))
        assert run_cli("solve", "--space", str(path)) == 6
        assert capsys.readouterr().err == f"error: cannot load instance: {line}\n"
        doc = json.loads(path.read_text())
        doc["agents"] = doc["agents"][:4]
        loaded = instancefile.from_document(doc).space
        assert loaded == gen_euc_slow(4).space

    def test_invalid_structure_rejected(self):
        fam = gen_euc_slow(2)
        doc = instancefile.to_document(Instance(fam.space))
        doc["structure"] = [{"proposal": ["1", "0"], "members": [1]}]  # agent 0 missing
        with pytest.raises(InstanceFormatError):
            instancefile.from_document(doc)


def run_cli(*argv):
    return main(list(argv))


class TestCli:
    def test_solve_with_eta(self, tmp_path, capsys):
        path = tmp_path / "euc.json"
        assert run_cli("generate", "--family", "euc-slow", "--n", "3", "--out", str(path)) == 0
        assert run_cli("solve", "--space", str(path), "--method", "subset-lp", "--eta", "3") == 0
        out = capsys.readouterr().out
        assert "score=3" in out and "eta_met=yes" in out
        assert run_cli("solve", "--space", str(path), "--eta", "4") == 2

    def test_solve_guard_exit(self, tmp_path):
        path = tmp_path / "big.json"
        assert run_cli(
            "generate", "--family", "random", "--kind", "hypercube",
            "--n", "3", "--d", "40", "--seed", "1", "--out", str(path),
        ) == 0
        assert run_cli("solve", "--space", str(path), "--method", "brute") == 3

    @pytest.mark.parametrize(
        "generate, method, line",
        [
            (["--family", "random", "--kind", "hypercube", "--n", "3", "--d", "27", "--seed", "1"], "brute",
             "brute force over 2^27 proposals exceeds the guard (d <= 26)"),
            (["--family", "random", "--kind", "hypercube", "--n", "11", "--d", "12", "--seed", "1"], "ilp",
             "11 distinct positions exceed the ILP guard (10)"),
            (["--family", "euc-slow", "--n", "23"], "subset-lp",
             "23 distinct positions exceed the subset guard (22)"),
        ],
    )
    def test_solve_guard_lines(self, tmp_path, capsys, generate, method, line):
        # One past each solver guard: exit 3 and one line, before any search.
        path = tmp_path / "past.json"
        assert run_cli("generate", *generate, "--out", str(path)) == 0
        capsys.readouterr()
        assert run_cli("solve", "--space", str(path), "--method", method) == 3
        assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_eta_parsed_before_solving(self, tmp_path, capsys):
        path = tmp_path / "euc.json"
        assert run_cli("generate", "--family", "euc-slow", "--n", "3", "--out", str(path)) == 0
        capsys.readouterr()
        assert run_cli("solve", "--space", str(path), "--eta", "abc") == 6
        assert capsys.readouterr() == ("", "error: --eta must be a rational, got 'abc'\n")

    @pytest.mark.parametrize("command", ["solve", "simulate", "generate", "reduce-out", "reduce-cert"])
    def test_unwritable_output_exits_6(self, tmp_path, capsys, command):
        euc, cnf = tmp_path / "euc.json", tmp_path / "f.cnf"
        assert run_cli("generate", "--family", "euc-slow", "--n", "3", "--out", str(euc)) == 0
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        bad = str(tmp_path / "missing" / "out")
        argv = {
            "solve": ["solve", "--space", str(euc), "--json", bad],
            "simulate": ["simulate", "--space", str(euc), "--scheduler", "adversarial", "--trace", bad],
            "generate": ["generate", "--family", "euc-slow", "--n", "3", "--out", bad],
            "reduce-out": ["reduce", "--from", "3sat", "--in", str(cnf), "--out", bad],
            "reduce-cert": ["reduce", "--from", "3sat", "--in", str(cnf), "--out", str(tmp_path / "r.json"),
                            "--cert", bad],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv) == 6
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert bad in err

    def test_cells_guard_exit(self, tmp_path, capsys):
        path = tmp_path / "axis.json"
        for d, code in ((1, 0), (3, 3)):
            # 33 distinct positions on the first axis: over the guard in R^3 only
            agents = tuple(
                Agent(euclidean_point([(k // 2 + 1) * (-1) ** k] + [0] * (d - 1))) for k in range(33)
            )
            instancefile.save(Instance(DeliberationSpace(Kind.EUCLIDEAN, d, agents)), str(path))
            capsys.readouterr()
            assert run_cli("solve", "--space", str(path), "--method", "cells") == code
            assert run_cli("solve", "--space", str(path)) == code  # auto picks cells for d <= 3
            assert run_cli("simulate", "--space", str(path), "--scheduler", "greedy-fast") == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: 33 distinct positions in R^3 exceed the cells guard\n" * 3

    def test_greedy_fast_past_32_positions(self, tmp_path, capsys):
        # Step (iii) of greedy-fast and the successful= line both solve with auto.
        path = tmp_path / "euc.json"
        instancefile.save(Instance(gen_random("euclidean", 40, 1, seed=1, coord_range=(-50, 50))), str(path))
        capsys.readouterr()
        assert run_cli("simulate", "--space", str(path), "--scheduler", "greedy-fast") == 0
        assert capsys.readouterr().out.endswith("successful=yes\n")

    def test_simulate_schedulers(self, tmp_path, capsys):
        euc = tmp_path / "euc.json"
        run_cli("generate", "--family", "euc-slow", "--n", "4", "--out", str(euc))
        trace = tmp_path / "t.csv"
        assert run_cli(
            "simulate", "--space", str(euc), "--scheduler", "adversarial",
            "--seed", "1", "--trace", str(trace),
        ) == 0
        out = capsys.readouterr().out
        assert "steps=" in out and "successful=yes" in out
        assert trace.read_text().startswith("step,ell,")
        assert run_cli("verify", "--what", "trace", "--in", str(trace)) == 0

    def test_simulate_incompatible_scheduler(self, tmp_path):
        hyp = tmp_path / "h.json"
        run_cli("generate", "--family", "random", "--kind", "hypercube",
                "--n", "3", "--d", "4", "--seed", "2", "--out", str(hyp))
        assert run_cli("simulate", "--space", str(hyp), "--scheduler", "greedy-fast") == 4
        assert run_cli("simulate", "--space", str(hyp), "--scheduler", "adversarial") == 4

    @pytest.mark.parametrize("k", ["1", "0", "-2"])
    def test_two_way_schedulers_reject_k_below_2(self, tmp_path, capsys, k):
        slow = tmp_path / "slow.json"
        assert run_cli("generate", "--family", "euc-slow", "--n", "4", "--out", str(slow)) == 0
        for scheduler in ("adversarial", "greedy-fast"):
            capsys.readouterr()
            assert run_cli("simulate", "--space", str(slow), "--scheduler", scheduler, "--k", k) == 4
            assert capsys.readouterr() == (
                "", f"error: the {scheduler} scheduler plays 2-compromises; --k must be at least 2\n"
            )
        # The random scheduler finds no compromise of fewer than two coalitions.
        assert run_cli("simulate", "--space", str(slow), "--scheduler", "random", "--k", k) == 0
        assert capsys.readouterr().out == "steps=0 bound2n=16 lower=-1.33333 successful=no\n"

    @pytest.mark.parametrize("k", ["1", "0"])
    def test_grid_converge_rejects_k_below_2(self, tmp_path, capsys, k):
        grid = tmp_path / "g.json"
        assert run_cli("generate", "--family", "random", "--kind", "grid", "--n", "12", "--seed", "3",
                       "--out", str(grid)) == 0
        capsys.readouterr()
        assert run_cli("simulate", "--space", str(grid), "--scheduler", "grid-converge", "--k", k) == 4
        assert capsys.readouterr() == (
            "", "error: the grid-converge scheduler picks its own k (2 or 3); --k must be at least 2\n"
        )

    def test_slow_family_size_guard(self, tmp_path, capsys):
        # One past each slow family's 1,000,000 coordinates: generate exits
        # 5, and an adversarial run on a hand-made file declaring such a
        # family exits 3, before either builds it.
        out = tmp_path / "x.json"
        lines = {
            "euc-slow": "the euc-slow family would hold 1002001 coordinates (1001 agents in R^1001), "
                        "over the euc-slow family guard (1000000)",
            "hyp-slow": "the hyp-slow family would hold 1002528 coordinates (708 agents in {0,1}^1416), "
                        "over the hyp-slow family guard (1000000)",
        }
        for family, n in (("euc-slow", 1001), ("hyp-slow", 708)):
            capsys.readouterr()
            assert run_cli("generate", "--family", family, "--n", str(n), "--out", str(out)) == 5
            assert capsys.readouterr() == ("", f"error: {lines[family]}\n") and not out.exists()
            space = DeliberationSpace(Kind.EUCLIDEAN, 1, (Agent(euclidean_point([1])),) * n)
            hand_made = tmp_path / f"{family}.json"
            instancefile.save(Instance(space, None, {"family": family, "n": n}), str(hand_made))
            assert run_cli("simulate", "--space", str(hand_made), "--scheduler", "adversarial") == 3
            assert capsys.readouterr() == ("", f"error: {lines[family]}\n")

    def test_adversarial_checks_the_agent_count_before_building(self, tmp_path, capsys):
        # A declared n far above the file's 3 agents is rejected without
        # building the 200,000-agent family; so is a small wrong n.
        path = tmp_path / "h.json"
        assert run_cli("generate", "--family", "hyp-slow", "--n", "3", "--out", str(path)) == 0
        doc = json.loads(path.read_text())
        for n in (200000, 4):
            doc["meta"]["n"] = n
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            start = time.perf_counter()
            assert run_cli("simulate", "--space", str(path), "--scheduler", "adversarial") == 4
            assert time.perf_counter() - start < 5
            assert capsys.readouterr().err == "error: instance does not match its declared family\n"

    def test_generate_hyp_slow_dimensions(self, tmp_path):
        out = tmp_path / "h.json"
        assert run_cli("generate", "--family", "hyp-slow", "--n", "4", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["d"] == 8 and len(doc["agents"]) == 4

    def test_generate_inadmissible(self, tmp_path):
        out = tmp_path / "x.json"
        assert run_cli("generate", "--family", "exp-compromise", "--d", "29", "--out", str(out)) == 5
        assert run_cli("generate", "--family", "hyp-slow", "--n", "1", "--out", str(out)) == 5

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--kind", "euclidean", "--d", "0"], "the dimension must be at least 1"),
            (["--kind", "hypercube", "--d", "0"], "the dimension must be at least 1"),
            (["--kind", "hypercube", "--d", "-3"], "the dimension must be at least 1"),
            (["--kind", "euclidean", "--range", "0", "0"], "the coordinate range holds only 0"),
            (["--kind", "grid", "--range", "0", "0"], "the coordinate range holds only 0"),
            (["--kind", "grid_nonneg", "--range", "-5", "0"], "the coordinate range holds no positive value"),
            (["--kind", "grid_nonneg", "--range", "-5", "-1"], "the coordinate range holds no positive value"),
        ],
    )
    def test_generate_random_degenerate(self, tmp_path, capsys, argv, line):
        # Each of these drew agents forever or failed inside the generator.
        out = tmp_path / "x.json"
        start = time.perf_counter()
        assert run_cli("generate", "--family", "random", "--n", "3", *argv, "--out", str(out)) == 5
        assert time.perf_counter() - start < 5
        assert capsys.readouterr() == ("", f"error: {line}\n") and not out.exists()

    def test_exp_compromise_size_guard(self, tmp_path, capsys, monkeypatch):
        # d=82 would hold 84 coalitions of 4,960,116 agents each; d=55, the
        # largest accepted, is built in test_generators.
        out = tmp_path / "exp.json"
        assert run_cli("generate", "--family", "exp-compromise", "--d", "28", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        doc["meta"]["d"] = 82
        out.write_text(json.dumps(doc))
        monkeypatch.setattr(generators, "_chain_disjoint", lambda sets: pytest.fail("the construction was built"))
        capsys.readouterr()
        line = "error: the construction for d=82 would hold 416649744 agents, over the exp-compromise guard (328050)\n"
        big = tmp_path / "big.json"
        assert run_cli("generate", "--family", "exp-compromise", "--d", "82", "--out", str(big)) == 5
        assert capsys.readouterr() == ("", line) and not big.exists()
        assert run_cli("verify", "--what", "exp-compromise", "--in", str(out)) == 3
        assert capsys.readouterr() == ("", line)

    def test_exp_compromise_generate_verify(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        assert run_cli("generate", "--family", "exp-compromise", "--d", "28", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["k"] == 2
        assert len(doc["structure"]) == 3
        assert run_cli("verify", "--what", "exp-compromise", "--in", str(out)) == 0
        out_text = capsys.readouterr().out
        assert "result=pass" in out_text

    def test_reduce_and_verify(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        inst = tmp_path / "sat.json"
        assert run_cli("reduce", "--from", "3sat", "--in", str(cnf), "--out", str(inst)) == 0
        assert run_cli("verify", "--what", "reduction", "--in", str(inst) + ".cert.json") == 0
        out = capsys.readouterr().out
        assert "score>=eta: yes" in out

        graph = tmp_path / "g.txt"
        graph.write_text("p 3 3\n1 2\n2 3\n1 3\n")
        red = tmp_path / "is.json"
        assert run_cli("reduce", "--from", "indep-set", "--in", str(graph),
                       "--kappa", "2", "--out", str(red)) == 0
        assert run_cli("verify", "--what", "reduction", "--in", str(red) + ".cert.json") == 0
        out = capsys.readouterr().out
        assert "unanimous: no" in out

    def test_reduce_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 3 1\n1 2 3\n")
        assert run_cli("reduce", "--from", "3sat", "--in", str(bad), "--out", str(tmp_path / "o.json")) == 6
        bad.write_text("p cnf 3 1\n1 x 3 0\n")
        assert run_cli("reduce", "--from", "3sat", "--in", str(bad), "--out", str(tmp_path / "o.json")) == 6
        bad.write_text("p 3 1\n1 x\n")
        out = str(tmp_path / "o.json")
        assert run_cli("reduce", "--from", "indep-set", "--in", str(bad), "--kappa", "1", "--out", out) == 6

    def test_reduce_size_guard(self, tmp_path, capsys):
        # 100 variables give R^200 and 300 agents, plus one agent per clause:
        # 200 clauses reach the 100,000-coordinate guard, 201 exceed it.
        cnf, out = tmp_path / "f.cnf", tmp_path / "o.json"
        for count, code in ((200, 0), (201, 3)):
            clauses = "".join(f"{i % 100 + 1} -{(i + 1) % 100 + 1} {(i + 2) % 100 + 1} 0\n" for i in range(count))
            cnf.write_text(f"p cnf 100 {count}\n" + clauses)
            assert run_cli("reduce", "--from", "3sat", "--in", str(cnf), "--out", str(out)) == code
        captured = capsys.readouterr()
        assert captured.out.startswith(f"written={out} ") and captured.out.count("\n") == 1
        assert captured.err == (
            "error: the reduction would hold 100200 coordinates (501 agents in R^200), "
            "over the reduction guard (100000)\n"
        )

    def test_reduce_indep_set_size_guard(self, tmp_path, capsys):
        # 311 vertices and kappa 2 give {0,1}^625 and 1,251 agents, plus one
        # agent per edge: 349 edges reach the 1,000,000-coordinate guard, 350 exceed it.
        graph, out = tmp_path / "g.txt", tmp_path / "o.json"
        chain = [(i, i + 1) for i in range(1, 311)] + [(i, i + 2) for i in range(1, 41)]
        for count, code in ((349, 0), (350, 3)):
            graph.write_text(f"p 311 {count}\n" + "".join(f"{u} {v}\n" for u, v in chain[:count]))
            assert run_cli("reduce", "--from", "indep-set", "--in", str(graph), "--kappa", "2", "--out", str(out)) == code
        captured = capsys.readouterr()
        assert captured.out == f"written={out} cert={out}.cert.json d=625 agents=1600 unanimous\n"
        assert captured.err == (
            "error: the reduction would hold 1000625 coordinates (1601 agents in {0,1}^625), "
            "over the reduction guard (1000000)\n"
        )

    def test_unanimity_scan_at_the_guard_edge(self, tmp_path, capsys):
        # Three disjoint triangles have no independent set of four vertices,
        # so their kappa 4 reduction in {0,1}^25 has no unanimous proposal
        # and the scan runs to the end.  An edgeless 13-vertex graph at
        # kappa 1 gives d = 27, one past the guard.
        graph, out = tmp_path / "g.txt", tmp_path / "o.json"
        for text, kappa, code in (
            ("p 9 9\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n7 8\n8 9\n7 9\n", "4", 0),
            ("p 13 0\n", "1", 3),
        ):
            graph.write_text(text)
            assert run_cli("reduce", "--from", "indep-set", "--in", str(graph), "--kappa", kappa, "--out", str(out)) == 0
            capsys.readouterr()
            assert run_cli("verify", "--what", "reduction", "--in", f"{out}.cert.json") == code
            if code == 0:
                assert "unanimous: no\n" in capsys.readouterr().out
        assert capsys.readouterr() == ("", "error: brute force over 2^27 proposals exceeds the guard (d <= 26)\n")

    def test_malformed_instance_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        good = instancefile.to_document(Instance(gen_random("grid", 3, 2, seed=4)))
        for damage in (
            lambda doc: doc["agents"][1].pop("coords"),
            lambda doc: doc.update(agents={"0": doc["agents"][0]}),
            lambda doc: doc.update(structure=[{"proposal": [1, 0]}]),
        ):
            doc = json.loads(json.dumps(good))
            damage(doc)
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run_cli("solve", "--space", str(path)) == 6
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: cannot load instance: ") and err.count("\n") == 1

    def test_malformed_trace_row(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        # A non-integer field, or exactly one of the two potentials blank.
        for row in ("0,2,1+1,x,3,4", "0,2,1+1,2,x,", "0,2,1+1,2,,5"):
            trace.write_text(f"step,ell,participant_sizes,new_size,phi_before,phi_after\n{row}\n")
            assert run_cli("verify", "--what", "trace", "--in", str(trace)) == 1, row
            assert capsys.readouterr() == ("first_violation=row 0: malformed\n", ""), row

    def test_simulate_guard_messages(self, tmp_path, capsys):
        hyp = tmp_path / "h.json"
        run_cli("generate", "--family", "random", "--kind", "hypercube",
                "--n", "3", "--d", "30", "--seed", "2", "--out", str(hyp))
        # Every agent at (1, y) approves (1, 0): two coalitions over 23 positions.
        space = DeliberationSpace(Kind.EUCLIDEAN, 2, tuple(Agent(euclidean_point([1, y])) for y in range(23)))
        structure = CoalitionStructure(
            (Coalition(frozenset(range(12)), euclidean_point([1, 0])),
             Coalition(frozenset(range(12, 23)), euclidean_point([1, 0])))
        )
        euc = tmp_path / "e.json"
        instancefile.save(Instance(space, structure), str(euc))
        capsys.readouterr()
        assert run_cli("simulate", "--space", str(hyp), "--scheduler", "random") == 3
        assert run_cli("simulate", "--space", str(euc), "--scheduler", "random") == 3
        assert capsys.readouterr() == (
            "",
            "error: brute force over 2^30 proposals exceeds the guard (d <= 26)\n"
            "error: 23 distinct positions exceed the subset guard (22)\n",
        )

    def test_trace_verify_catches_tampering(self, tmp_path):
        euc = tmp_path / "euc.json"
        run_cli("generate", "--family", "euc-slow", "--n", "4", "--out", str(euc))
        trace = tmp_path / "t.csv"
        run_cli("simulate", "--space", str(euc), "--scheduler", "adversarial",
                "--seed", "1", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        parts = lines[1].split(",")
        parts[5] = parts[4]  # potential no longer increases
        lines[1] = ",".join(parts)
        trace.write_text("\n".join(lines) + "\n")
        assert run_cli("verify", "--what", "trace", "--in", str(trace)) == 1

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli("generate", "--family", "random", "--kind", "euclidean",
                    "--n", "5", "--d", "2", "--seed", "9", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()
        t1, t2 = tmp_path / "1.csv", tmp_path / "2.csv"
        for t in (t1, t2):
            run_cli("simulate", "--space", str(a), "--scheduler", "random",
                    "--seed", "7", "--trace", str(t))
        assert t1.read_bytes() == t2.read_bytes()

    def test_solve_json_report(self, tmp_path):
        path = tmp_path / "euc.json"
        run_cli("generate", "--family", "euc-slow", "--n", "2", "--out", str(path))
        report = tmp_path / "r.json"
        assert run_cli("solve", "--space", str(path), "--json", str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["score"] == "2"

    def test_grid_converge_command(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run_cli("generate", "--family", "random", "--kind", "grid_nonneg",
                "--n", "6", "--d", "2", "--seed", "3", "--out", str(path))
        assert run_cli("simulate", "--space", str(path), "--scheduler", "grid-converge") == 0
        assert "successful=yes" in capsys.readouterr().out

    def test_greedy_fast_step_bound(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        run_cli("generate", "--family", "random", "--kind", "euclidean",
                "--n", "5", "--d", "2", "--seed", "21", "--out", str(path))
        assert run_cli("simulate", "--space", str(path), "--scheduler", "greedy-fast") == 0
        out = capsys.readouterr().out
        steps = int(out.split("steps=")[1].split()[0])
        assert steps <= 26 and "successful=yes" in out


# ---------------------------------------------------------------------------
# Fuzzing the input boundaries: only the documented exit codes, no traceback.

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.text(max_size=4)
    | st.sampled_from(["1/2", "-1", "0", "3", "x", "1/0"]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


@st.composite
def _documents(draw):
    """A small valid instance document with up to three fields replaced or deleted."""
    kind = draw(st.sampled_from(["hypercube", "euclidean", "grid", "grid_nonneg"]))
    d = 2 if kind.startswith("grid") else draw(st.integers(1, 4))
    space = gen_random(kind, draw(st.integers(1, 5)), d, seed=draw(st.integers(0, 99)))
    doc = instancefile.to_document(Instance(space, singleton_structure(space) if draw(st.booleans()) else None))
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            if isinstance(node, dict) and draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(_json_values)
            break
    return doc


_field = st.text(st.sampled_from("0123456789+-x ") | st.characters(blacklist_categories=("Cs",)), max_size=4)
_trace_rows = st.lists(st.sampled_from(["0", "1", "2", "3", "1+1", "2+1", ""]) | _field, min_size=6, max_size=6).map(
    ",".join
) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)


# DIMACS and edge-list text with small numbers only: a reduction grows with
# the square of its header's variable or vertex count.
_token = st.sampled_from(["p", "cnf", "c", "0", "-0", "1.5", "x"]) | st.integers(-7, 7).map(str) | st.text(
    st.characters(blacklist_categories=("Cs", "Nd")), min_size=1, max_size=3
)
_reduce_lines = st.lists(
    st.lists(st.integers(-7, 7), min_size=3, max_size=3).map(lambda c: "{} {} {} 0".format(*c))
    | st.lists(st.integers(0, 7), min_size=2, max_size=2).map(lambda e: "{} {}".format(*e))
    | st.lists(_token, max_size=5).map(" ".join),
    max_size=6,
)


@st.composite
def _reduce_inputs(draw):
    """An optional header, sometimes promising the count its body holds, and a body."""
    lines = draw(_reduce_lines)
    form = draw(st.sampled_from(["", "p cnf {} {}", "p {} {}"]))
    count = draw(st.none() | st.integers(-1, 6))
    if count is None:
        count = sum(line.split().count("0") for line in lines) if "cnf" in form else sum(map(bool, lines))
    return "\n".join([form.format(draw(st.integers(-1, 6)), count)] + lines) + "\n"


def _run_captured(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_documents().map(json.dumps), st.text(max_size=40)))
    def test_loads_raises_only_format_errors(self, text):
        try:
            inst = instancefile.loads(text)
        except InstanceFormatError as exc:
            assert "\n" not in str(exc)
        else:
            text = instancefile.dumps(inst)
            assert instancefile.dumps(instancefile.loads(text)) == text

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_documents())
    def test_solve_exits_with_documented_codes(self, tmp_path, doc):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run_captured("solve", "--space", path)
        assert code in (0, 3, 6)
        assert err.count("\n") == (code != 0)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_trace_rows, max_size=4))
    def test_trace_rows_exit_with_documented_codes(self, tmp_path, rows):
        path = tmp_path / "fuzz.csv"
        path.write_text("\n".join(["step,ell,participant_sizes,new_size,phi_before,phi_after"] + rows) + "\n", encoding="utf-8")
        code, out, err = _run_captured("verify", "--what", "trace", "--in", path)
        assert err == ""
        assert (code, out.startswith("result=pass")) in ((0, True), (1, False))
        assert code == 0 or out.startswith("first_violation=")

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_reduce_inputs(), st.sampled_from(["3sat", "indep-set"]), st.none() | st.integers(-1, 4))
    def test_reduce_exits_with_documented_codes(self, tmp_path, text, source, kappa):
        path = tmp_path / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        argv = ["reduce", "--from", source, "--in", path, "--out", tmp_path / "r.json"]
        if kappa is not None:
            argv += ["--kappa", kappa]
        code, _, err = _run_captured(*argv)
        assert code in (0, 6)
        assert err.count("\n") == (code != 0)
