"""Instance file round-trips and the command-line surface."""

import json
from fractions import Fraction

import pytest

from delib import instancefile
from delib.cli import main
from delib.dynamics import Coalition, CoalitionStructure
from delib.generators import gen_euc_slow, gen_random
from delib.instancefile import Instance, InstanceFormatError
from delib.space import Agent, DeliberationSpace, Kind, euclidean_point


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

    def test_generate_hyp_slow_dimensions(self, tmp_path):
        out = tmp_path / "h.json"
        assert run_cli("generate", "--family", "hyp-slow", "--n", "4", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["d"] == 8 and len(doc["agents"]) == 4

    def test_generate_inadmissible(self, tmp_path):
        out = tmp_path / "x.json"
        assert run_cli("generate", "--family", "exp-compromise", "--d", "29", "--out", str(out)) == 5
        assert run_cli("generate", "--family", "hyp-slow", "--n", "1", "--out", str(out)) == 5

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
