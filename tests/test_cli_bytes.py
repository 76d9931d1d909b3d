"""CLI output bytes on a fixed corpus, pinned by SHA-256.

The digests pin generated instance files, trace CSVs, ``solve --json``
reports and the ``verify --what reduction`` summaries, so a change to the
internal point representation, to the dynamics' bookkeeping, to the LP
core and its pruning or to the hypercube scans cannot alter what the
command line writes.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

from delib import instancefile
from delib.cli import main
from delib.dynamics import singleton_structure
from delib.instancefile import Instance
from delib.space import Agent, DeliberationSpace, Kind, euclidean_point

EXPECTED = {
    "euc-slow-9.json": "81549bbeabf5c48a1e719ca3846a76f45d7340ace2dfaf84f1db954f12ad6d59",
    "euc-slow-9-adversarial.csv": "f6c77ee6186bf7400b11901d47b676c80c0e2d9b2f66be236b83655473796acb",
    "euc-8x3.json": "c50271e6965bc95cc2e7b6cd59ec59c26ee81f3cc037eccd30fa4724a80083d3",
    "euc-8x3-random.csv": "ce808b0c719c24da3c6d27991d91d29e6a3f389bdbe7238ae9c3345dcd9783a1",
    "euc-8x3-subset-lp.json": "c2dccc1ebf959bfee0b58553b522ec3d020e7ddbc63e1df897736992c0d85507",
    "euc-8x3-cells.json": "41893fc1c8c00422ecfd78aca46c3d9db407672658e9a80b633e3614be1ad1c1",
}

# Three-variable formulas in DIMACS form.  The first two are satisfiable;
# "unsat8" holds all eight sign patterns, so its subset scan decides 5,658
# subsets with 12 LPs and prunes the rest by their certificates.
FORMULAS = {
    "sat2": "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n",
    "sat3": "p cnf 3 3\n1 2 3 0\n-1 -2 -3 0\n1 -2 3 0\n",
    "unsat8": "p cnf 3 8\n" + "".join(f"{a} {b} {c} 0\n" for a in (1, -1) for b in (2, -2) for c in (3, -3)),
}

EXPECTED_LP = {
    "sat2-subset-lp.json": "e34b8b380701f0ebfdef83b0c0db7623c2c8268e299c556c442ccef7be0c7892",
    "sat3-subset-lp.json": "274586d5244b7a11f3ecc58605eb7b55f5db9340d53317ee6ccb71222f582ae1",
    "sat2-verify.txt": "7325cb054546097560483432d6274ddcdbd1a7f1a950b839ede92f62c43d12a5",
    "euc-8x3-s5-subset-lp.json": "8433e3dd3afc06be2e9e4bc8a7cadfaba154c8a5e94fc4ee8a18c4be82f23930",
    "euc-8x3-s5-cells.json": "403124b34152d329ba62fc318d8429eebfb6f19ed936f2b89da1261c378cda44",
    "euc-8x3-s7-subset-lp.json": "95b5233f18c9f6057bb0afb946086e7e99eee484fb2ab4abd47102c5d9eba62b",
    "euc-8x3-s7-cells.json": "791e4e6bf0609da3103664a81c586d99a2dd5735cb51f9aa463785471eea086d",
    "euc-8x3-greedy-fast.csv": "09bdf4cc0d25a760043fbf943a44fc29175ebc6c266b9b7d2afbc3f8b6be0f44",
    "unsat8-subset-lp.json": "03cca3d4321b9c654072a492fc2f5ad729a08d6eb97b8fed9b4484cd2791ac92",
    "euc-slow-16-subset-lp.json": "cbd41f1b002bac6b6144b484bddf7b7b245ad4886695c98b06163bef8723b43d",
    "euc-12x5-s5-subset-lp.json": "c3931d4928888d58e869cb5d96ad7be22e8b6f159f225d5702c781011a60e508",
}

EXPECTED_HYP_GRID = {
    "hyp-8x12.json": "08ae9ddd90fa6f7b66d2c932e8528da08057bd129b9a69b8a9058b51c340475e",
    "hyp-8x12-brute.json": "dade443e056f9d361e2ec7a0b16d7b0f47d5862469cac1d569d084dfbba5b737",
    "hyp-8x12-ilp.json": "2226a026ddcc1c3bdbbb73a6166e4b520a58b9e36a89ecc1a488b62f3fdddd01",
    "hyp-6x10.json": "29690f0ea23caa53a77ba3e1198bde4b8efb57eb90231298c06b69d28cc98acb",
    "hyp-6x10-random.csv": "f5927ab84b21f626e9ace0fa1322eb1f43b539642eb64370acf0552c23688320",
    "hyp-6x10-random.txt": "53bd5d5106b7e5c620972f6904b795fd0bf17ac6cf827de29db65d4e981cc7c9",
    "c4.json": "86b44a00d60b31752dec3220bf8c87a5678de49325050ed7a676ed51b15d1930",
    "c4-verify.txt": "9e77328d5e5b18f274b813c36155e1db780defe690ac9452ae5b5355edf5a9d1",
    "grid-12.json": "6bc4bcfe3a33073d66b2b2e6b232799307b90f63c300aa045b4201efcd6ac151",
    "grid-12-converge.csv": "2c2af0ccd5abafddae98d1f1046b98b1263c05ded22a8fb76d101099822e3d34",
    "grid-12-solve.json": "3cff499df45a55f9db809518611bc979a5e59878edeb2ea58f2d5db4592f5f98",
    "grid_nonneg-12.json": "694fd1719fb7dcd918dbc1589a7eaedc18af7612a76f0d044d4687973aadd1fa",
    "grid_nonneg-12-converge.csv": "371e9155dbfcf172d03f52ed84803f8d2d73a87760b965045f1d0c9a66fa374f",
    "grid_nonneg-12-solve.json": "e7829b8ee9dc8af1947dc3cfb4967480272c5d7b9b905d8051672af3ae7beee1",
    "hyp-8x20.json": "0585baa2eac643d8ff61f49e6104481c2d25d95e9304b2ea65df863189ffcd8b",
    "hyp-8x20-auto.json": "a8388a283a85782ecd28d56f89732fcd11e8112229f7ad33abc9395f46b5b7c8",
    "hyp-6x16.json": "195a9cb054c90810b1e96205285d96514a5a4b45d13a6d7cf4bdf69f61970af8",
    "hyp-6x16-random.csv": "87e8e18a4cd87b78e55b1bb869af45f38a9bfd1cf4f2aee0864907f3e374f332",
    "hyp-6x16-random.txt": "53bd5d5106b7e5c620972f6904b795fd0bf17ac6cf827de29db65d4e981cc7c9",
    "hyp-weighted-14.json": "56756e28cda91b1b9656d353b852cd1cf6b3fe92351dbf0077c3aca0e958f304",
    "hyp-weighted-14-brute.json": "1a71683111946063de1d7fafaef64305513081110f8ec67afd78f3318e2f6f24",
    "is-2k3.json": "d64805ee8f265fa9a63a99132f31c27d97e7cb69f3d813b45710e48bb4a9f6bf",
    "is-2k3-verify.txt": "5c5a7c91c3b0b319aadf16f34c420b232f12aee206639b09a67d46714cc17f3f",
    "is-c6.json": "81c42ba728631a659e4df0f9391fc1f2396e8d6cddcd1f2177c7cd523cb83911",
    "is-c6-verify.txt": "9e77328d5e5b18f274b813c36155e1db780defe690ac9452ae5b5355edf5a9d1",
}

# Six-vertex graphs whose kappa = 3 reductions lie past the 12-bit chunk
# (d = 17): two disjoint triangles have independence number 2, so no
# proposal is unanimous; the 6-cycle has 3, so one is.
IS_GRAPHS = {
    "is-2k3": "p 6 6\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n",
    "is-c6": "p 6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n",
}

# A weighted hypercube past the mask scan's 12-bit chunk (d = 14): ten
# agents on six positions, with weights over the denominators 2, 3 and 7.
WEIGHTED_HYP_14 = [
    ("10001110001001", "1/2"),
    ("10001110001001", "2/3"),
    ("00000010101001", "5/7"),
    ("01101000000000", "3/2"),
    ("01101000000000", "1/3"),
    ("00000001100000", "4/7"),
    ("11100000000010", "5/3"),
    ("00000011110000", "3/7"),
    ("00000011110000", "1/7"),
    ("10001110001001", "1/7"),
]


def build_corpus(tmp) -> dict[str, bytes]:
    """Run the corpus commands in ``tmp`` and return each output's bytes."""

    def run(*argv):
        code = main([str(a) for a in argv])
        assert code == 0, argv

    slow, rand = tmp / "euc-slow-9.json", tmp / "euc-8x3.json"
    run("generate", "--family", "euc-slow", "--n", 9, "--out", slow)
    run("simulate", "--space", slow, "--scheduler", "adversarial", "--trace", tmp / "euc-slow-9-adversarial.csv")
    run("generate", "--family", "random", "--kind", "euclidean", "--n", 8, "--d", 3, "--seed", 3, "--out", rand)
    run("simulate", "--space", rand, "--scheduler", "random", "--seed", 1, "--trace", tmp / "euc-8x3-random.csv")
    for method in ("subset-lp", "cells"):
        run("solve", "--space", rand, "--method", method, "--json", tmp / f"euc-8x3-{method}.json")
    return {name: (tmp / name).read_bytes() for name in EXPECTED}


def build_lp_corpus(tmp) -> dict[str, bytes]:
    """The LP-heavy commands: reductions, more random instances, greedy-fast."""

    def run(*argv):
        code = main([str(a) for a in argv])
        assert code == 0, argv

    outputs = {}
    for name, text in FORMULAS.items():
        cnf, inst = tmp / f"{name}.cnf", tmp / f"{name}.json"
        cnf.write_text(text)
        run("reduce", "--from", "3sat", "--in", cnf, "--out", inst)
        run("solve", "--space", inst, "--method", "subset-lp", "--json", tmp / f"{name}-subset-lp.json")
        outputs[f"{name}-subset-lp.json"] = (tmp / f"{name}-subset-lp.json").read_bytes()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        run("verify", "--what", "reduction", "--in", f"{tmp / 'sat2.json'}.cert.json")
    outputs["sat2-verify.txt"] = stdout.getvalue().encode()
    for seed in (5, 7):
        inst = tmp / f"euc-8x3-s{seed}.json"
        run("generate", "--family", "random", "--kind", "euclidean", "--n", 8, "--d", 3, "--seed", seed, "--out", inst)
        for method in ("subset-lp", "cells"):
            out = tmp / f"euc-8x3-s{seed}-{method}.json"
            run("solve", "--space", inst, "--method", method, "--json", out)
            outputs[out.name] = out.read_bytes()
    rand = tmp / "euc-8x3.json"
    run("generate", "--family", "random", "--kind", "euclidean", "--n", 8, "--d", 3, "--seed", 3, "--out", rand)
    run("simulate", "--space", rand, "--scheduler", "greedy-fast", "--trace", tmp / "euc-8x3-greedy-fast.csv")
    outputs["euc-8x3-greedy-fast.csv"] = (tmp / "euc-8x3-greedy-fast.csv").read_bytes()
    # The d = 16 tableau of the slow family, and a d >= 4 random instance.
    slow, wide = tmp / "euc-slow-16.json", tmp / "euc-12x5-s5.json"
    run("generate", "--family", "euc-slow", "--n", 16, "--out", slow)
    run("generate", "--family", "random", "--kind", "euclidean", "--n", 12, "--d", 5, "--seed", 5, "--out", wide)
    for inst in (slow, wide):
        out = tmp / f"{inst.stem}-subset-lp.json"
        run("solve", "--space", inst, "--method", "subset-lp", "--json", out)
        outputs[out.name] = out.read_bytes()
    return outputs


def build_hyp_grid_corpus(tmp) -> dict[str, bytes]:
    """Hypercube solves, dynamics and unanimity; grid convergence and solves."""
    outputs = {}

    def run(*argv, stdout_name=None):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(a) for a in argv])
        assert code == 0, argv
        if stdout_name:
            outputs[stdout_name] = out.getvalue().encode()

    hyp = tmp / "hyp-8x12.json"
    run("generate", "--family", "random", "--kind", "hypercube", "--n", 8, "--d", 12, "--seed", 2, "--out", hyp)
    for method in ("brute", "ilp"):
        run("solve", "--space", hyp, "--method", method, "--json", tmp / f"hyp-8x12-{method}.json")
    small = tmp / "hyp-6x10.json"
    run("generate", "--family", "random", "--kind", "hypercube", "--n", 6, "--d", 10, "--seed", 4, "--out", small)
    run("simulate", "--space", small, "--scheduler", "random", "--seed", 2, "--trace", tmp / "hyp-6x10-random.csv",
        stdout_name="hyp-6x10-random.txt")
    graph = tmp / "c4.txt"
    graph.write_text("p 4 4\n1 2\n2 3\n3 4\n4 1\n")
    run("reduce", "--from", "indep-set", "--in", graph, "--kappa", 2, "--out", tmp / "c4.json")
    run("verify", "--what", "reduction", "--in", f"{tmp / 'c4.json'}.cert.json", stdout_name="c4-verify.txt")
    for kind in ("grid", "grid_nonneg"):
        inst = tmp / f"{kind}-12.json"
        run("generate", "--family", "random", "--kind", kind, "--n", 12, "--seed", 3, "--out", inst)
        run("simulate", "--space", inst, "--scheduler", "grid-converge", "--trace", tmp / f"{kind}-12-converge.csv")
        run("solve", "--space", inst, "--json", tmp / f"{kind}-12-solve.json")
    # Past the 12-bit chunk: an auto (brute force) solve at d = 20, random
    # dynamics at d = 16 and a weighted brute-force solve at d = 14.
    wide = tmp / "hyp-8x20.json"
    run("generate", "--family", "random", "--kind", "hypercube", "--n", 8, "--d", 20, "--seed", 3, "--out", wide)
    run("solve", "--space", wide, "--json", tmp / "hyp-8x20-auto.json")
    dyn = tmp / "hyp-6x16.json"
    run("generate", "--family", "random", "--kind", "hypercube", "--n", 6, "--d", 16, "--seed", 3, "--out", dyn)
    run("simulate", "--space", dyn, "--scheduler", "random", "--seed", 1, "--trace", tmp / "hyp-6x16-random.csv",
        stdout_name="hyp-6x16-random.txt")
    weighted = tmp / "hyp-weighted-14.json"
    agents = [{"coords": [int(c) for c in bits], "weight": w} for bits, w in WEIGHTED_HYP_14]
    weighted.write_text(json.dumps({"agents": agents, "d": 14, "kind": "hypercube", "version": 1}))
    run("solve", "--space", weighted, "--method", "brute", "--json", tmp / "hyp-weighted-14-brute.json")
    for name, text in IS_GRAPHS.items():
        graph = tmp / f"{name}.txt"
        graph.write_text(text)
        run("reduce", "--from", "indep-set", "--in", graph, "--kappa", 3, "--out", tmp / f"{name}.json")
        run("verify", "--what", "reduction", "--in", f"{tmp / name}.json.cert.json", stdout_name=f"{name}-verify.txt")
    for name in EXPECTED_HYP_GRID:
        if name not in outputs:
            outputs[name] = (tmp / name).read_bytes()
    return outputs


EXPECTED_SIMULATE = {
    "euc-8x2-random.txt": "ba013cf26ae1161d2cfe5eb96e2b3dacbb64791cdef0209b582d0f6fe77969cf",
    "euc-8x2-random.csv": "9dcbe63eda9956026f42d0a6a6f63556b9ff0c9bd3e597f0a5419a10d8e29206",
    "euc-8x2-random-k3.txt": "499aa820c940d8843f58029ead84998f15dfa3499c188d93f7736ad8a5e21640",
    "euc-8x2-random-k3.csv": "f458f1406edeeea42fa5230c8bae1df090d3c35c9ad72d228f5d18ddc87ed89e",
    "euc-8x4-random.txt": "ba013cf26ae1161d2cfe5eb96e2b3dacbb64791cdef0209b582d0f6fe77969cf",
    "euc-8x4-random.csv": "ce808b0c719c24da3c6d27991d91d29e6a3f389bdbe7238ae9c3345dcd9783a1",
    "euc-slow-23-adversarial.txt": "160c202008a74d1c698934a6591d317ea980a691bc3e9ae8fe111f4f822cd754",
    "euc-slow-23-adversarial.csv": "08452d91826463fccd2cf1743dbf20e06679a217ceead6efdaeac56e82b84126",
}


def build_simulate_corpus(tmp) -> dict[str, bytes]:
    """``simulate`` summaries and traces on the routes ``successful=`` takes:
    the cells scan (d = 2), the subset scan (d = 4), and a subset guard that
    fires (euc-slow n = 23 has 23 distinct positions), which prints
    ``successful=unknown``."""
    outputs = {}

    def simulate(name, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["simulate", *(str(a) for a in argv), "--trace", str(tmp / f"{name}.csv")])
        assert code == 0, argv
        outputs[f"{name}.txt"] = out.getvalue().encode()
        outputs[f"{name}.csv"] = (tmp / f"{name}.csv").read_bytes()

    for n, d in ((8, 2), (8, 4)):
        inst = tmp / f"euc-{n}x{d}.json"
        assert main(["generate", "--family", "random", "--kind", "euclidean", "--n", str(n), "--d", str(d),
                     "--seed", "3", "--out", str(inst)]) == 0
        simulate(f"euc-{n}x{d}-random", "--space", inst, "--scheduler", "random", "--seed", 1)
        if d == 2:
            simulate(f"euc-{n}x{d}-random-k3", "--space", inst, "--scheduler", "random", "--seed", 1, "--k", 3)
    slow = tmp / "euc-slow-23.json"
    assert main(["generate", "--family", "euc-slow", "--n", "23", "--out", str(slow)]) == 0
    simulate("euc-slow-23-adversarial", "--space", slow, "--scheduler", "adversarial")
    return outputs


# n = 400 grids with coordinates in -30..30, where relabelling pulls most
# proposals a long way into the core; the n = 12 grids above barely pull.
EXPECTED_GRID_400 = {
    "grid-400.json": "17973212a967051b2421c38466f98b3511a0ccb96b0bad6bb0ad6576111d476b",
    "grid-400-converge.csv": "f3859355cd5049e8d61a3c7ab1a34316f2b6137215d37bc5a02ad9f1da5b2d4c",
    "grid-400-converge.txt": "cf3e6d257a91c7633760566e366a7611bd515a45affb9d914516e8e1ce8e07ea",
    "grid_nonneg-400.json": "f6e98be5a64d939f29b9d9af0e1abaee9935859138322af9a0a4f1d2a39599fb",
    "grid_nonneg-400-converge.csv": "4495e832c410bdc1196b7a7e3b2c670baa9db3f1db6404894d1f8752302ed451",
    "grid_nonneg-400-converge.txt": "a3345b797383827fcc7f9642101bceec03e24e4676bf8369d45728ed23113c4b",
}


def build_grid_400_corpus(tmp) -> dict[str, bytes]:
    """Generated n = 400 grids, their convergence traces and summaries."""
    outputs = {}
    for kind in ("grid", "grid_nonneg"):
        inst, csv = tmp / f"{kind}-400.json", tmp / f"{kind}-400-converge.csv"
        assert main(["generate", "--family", "random", "--kind", kind, "--n", "400", "--d", "2", "--seed", "1",
                     "--range", "-30", "30", "--out", str(inst)]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["simulate", "--space", str(inst), "--scheduler", "grid-converge", "--trace", str(csv)])
        assert code == 0, kind
        outputs[inst.name] = inst.read_bytes()
        outputs[csv.name] = csv.read_bytes()
        outputs[f"{kind}-400-converge.txt"] = out.getvalue().encode()
    return outputs


def _digests(outputs):
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def test_cli_outputs_are_byte_identical(tmp_path):
    assert _digests(build_corpus(tmp_path)) == EXPECTED


def test_lp_outputs_are_byte_identical(tmp_path):
    assert _digests(build_lp_corpus(tmp_path)) == EXPECTED_LP


def test_hypercube_and_grid_outputs_are_byte_identical(tmp_path):
    assert _digests(build_hyp_grid_corpus(tmp_path)) == EXPECTED_HYP_GRID


def test_simulate_outputs_are_byte_identical(tmp_path):
    assert _digests(build_simulate_corpus(tmp_path)) == EXPECTED_SIMULATE


def test_grid_400_outputs_are_byte_identical(tmp_path):
    assert _digests(build_grid_400_corpus(tmp_path)) == EXPECTED_GRID_400


# Random-scheduler dynamics on the grid kinds, whose compromise search tallies
# the unit targets, and on a weighted Euclidean instance, whose search and
# ``successful=`` test compare against Fraction weights.  Nine agents on
# eight positions in R^2.
WEIGHTED_EUC_2 = [
    (("3", "1"), "1/2"),
    (("3", "1"), "2/3"),
    (("-2", "5/2"), "3/4"),
    (("1/3", "4"), "5/6"),
    (("-4", "-1"), "7/5"),
    (("2", "-3"), "1/3"),
    (("-1", "-7/2"), "3/2"),
    (("5/2", "3"), "2/7"),
    (("-3", "2"), "4/3"),
]

EXPECTED_RANDOM_K = {
    "grid-12-random-k2.txt": "c285d535d3415d000f001a2ec7b7b16338242d5368614c94f0a47584aa80f3fc",
    "grid-12-random-k2.csv": "216173cc9476df56259233aac3b93060ab0e3a7c28ddb78d8e333113e91cbf06",
    "grid-12-random-k3.txt": "4231c7f3d6c7deda90163f393242ac8e1d1eb001ad59bd7d59228a5be5bb55dc",
    "grid-12-random-k3.csv": "f15e55d123ade437baf0f19e2004c8346ea33816dd1814aaee0e95d7f9b0bfed",
    "grid_nonneg-12-random-k2.txt": "3be4faf683003584a49f6b3afa05e86f6afc56d231a35efe2e206c82fadf1f81",
    "grid_nonneg-12-random-k2.csv": "a151f38868ab62be48e7e1eea355a649a70e1ea27c5eec6ac4362bfc818f8c3a",
    "grid_nonneg-12-random-k3.txt": "cc25ca0f20f51752aacf56d698b2585272df4eb2750cdc7a1409a265db74a285",
    "grid_nonneg-12-random-k3.csv": "191b303a374c42a09ca443bab31c870c42d26ab96af33d0ca427925e9ebd1007",
    "euc-weighted-9-random-k2.txt": "e1f8d43d40571d9066f33720266bdacb291b3513c280edeb128bb9c72b4c98e8",
    "euc-weighted-9-random-k2.csv": "37c55730f27e261f4eec9f7f75ce6f148a201d1324fcbac4f87514efa2267895",
    "euc-weighted-9-random-k3.txt": "e5b228222f8ca98c70e96b09304a0dd0ef3b1f91facb7d9bf6de14fe2f362a7e",
    "euc-weighted-9-random-k3.csv": "8e5897bb0dd78adbc0facfabf0ad7c1a9e8ddaa9023cb7d30fd67ad0129e7213",
}


def build_random_k_corpus(tmp) -> dict[str, bytes]:
    """``simulate --scheduler random --seed 1`` at k = 2 and 3: summaries and traces."""
    outputs = {}
    instances = {}
    for kind in ("grid", "grid_nonneg"):
        inst = tmp / f"{kind}-12.json"
        assert main(["generate", "--family", "random", "--kind", kind, "--n", "12", "--seed", "3",
                     "--out", str(inst)]) == 0
        instances[f"{kind}-12"] = inst
    weighted = tmp / "euc-weighted-9.json"
    agents = [{"coords": list(coords), "weight": w} for coords, w in WEIGHTED_EUC_2]
    weighted.write_text(json.dumps({"agents": agents, "d": 2, "kind": "euclidean", "version": 1}))
    instances["euc-weighted-9"] = weighted
    for stem, inst in instances.items():
        for k in (2, 3):
            name, csv = f"{stem}-random-k{k}", tmp / f"{stem}-random-k{k}.csv"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["simulate", "--space", str(inst), "--scheduler", "random", "--seed", "1",
                             "--k", str(k), "--trace", str(csv)])
            assert code == 0, name
            outputs[f"{name}.txt"] = out.getvalue().encode()
            outputs[f"{name}.csv"] = csv.read_bytes()
    return outputs


def test_random_k_outputs_are_byte_identical(tmp_path):
    assert _digests(build_random_k_corpus(tmp_path)) == EXPECTED_RANDOM_K


# Instance files whose writer paths the corpora above miss: a stored
# structure with Fraction-string metadata (exp-compromise d = 28), a wide
# hypercube (hyp-slow n = 8 lives in {0,1}^16), and a weighted Euclidean file
# with a singleton structure and metadata holding a non-ASCII string, an
# escape and a nested list.
EXPECTED_FILES = {
    "exp-28.json": "d1c526f251d78dc1e7587d0921d971b447e675c35c2419608099710253266a62",
    "hyp-slow-8.json": "c4439537fe863bc358fa88b0136d09f3bfd2c535f3dcf58aa1cbbdee7c7e8ca4",
    "euc-weighted-9-saved.json": "0be7057ad0ff1a9844a5eb851f4e63e99b34851572dddfee555d52200af2394c",
}


def build_file_corpus(tmp) -> dict[str, bytes]:
    assert main(["generate", "--family", "exp-compromise", "--d", "28", "--out", str(tmp / "exp-28.json")]) == 0
    assert main(["generate", "--family", "hyp-slow", "--n", "8", "--out", str(tmp / "hyp-slow-8.json")]) == 0
    agents = tuple(Agent(euclidean_point(coords), Fraction(w)) for coords, w in WEIGHTED_EUC_2)
    space = DeliberationSpace(Kind.EUCLIDEAN, 2, agents)
    meta = {"family": "hand-made", "note": "Zürich \"quoted\"\tand tabbed", "grid": [[1, "1/2"], [], {}], "n": 9}
    instancefile.save(Instance(space, singleton_structure(space), meta), str(tmp / "euc-weighted-9-saved.json"))
    return {name: (tmp / name).read_bytes() for name in EXPECTED_FILES}


def test_instance_files_are_byte_identical(tmp_path):
    assert _digests(build_file_corpus(tmp_path)) == EXPECTED_FILES
