"""CLI output bytes on a fixed corpus, pinned by SHA-256.

The digests pin generated instance files, trace CSVs and ``solve --json``
reports, so a change to the internal point representation or to the
dynamics' bookkeeping cannot alter what the command line writes.
"""

import hashlib

from delib.cli import main

EXPECTED = {
    "euc-slow-9.json": "81549bbeabf5c48a1e719ca3846a76f45d7340ace2dfaf84f1db954f12ad6d59",
    "euc-slow-9-adversarial.csv": "f6c77ee6186bf7400b11901d47b676c80c0e2d9b2f66be236b83655473796acb",
    "euc-8x3.json": "c50271e6965bc95cc2e7b6cd59ec59c26ee81f3cc037eccd30fa4724a80083d3",
    "euc-8x3-random.csv": "ce808b0c719c24da3c6d27991d91d29e6a3f389bdbe7238ae9c3345dcd9783a1",
    "euc-8x3-subset-lp.json": "c2dccc1ebf959bfee0b58553b522ec3d020e7ddbc63e1df897736992c0d85507",
    "euc-8x3-cells.json": "41893fc1c8c00422ecfd78aca46c3d9db407672658e9a80b633e3614be1ad1c1",
}


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


def test_cli_outputs_are_byte_identical(tmp_path):
    outputs = build_corpus(tmp_path)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == EXPECTED
