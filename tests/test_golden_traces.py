"""Golden traces: the trace CSV bytes and the exit code of ``lipcut solve``
on every builtin are a contract.  Each case pins the SHA-256 of the CSV
written by ``lipcut solve --builtin <name> --trace``; the two comp-example
variants are capped at 25 iterations to keep the suite short.

A change that moves one of these hashes changes solver output and must say
so in CHANGES.md.  The pins were recorded with numpy 2.4 on x86-64; a
different libm can move the last digit of a transcendental and with it a
hash.
"""

import hashlib

import pytest

from lipcut.cli import main

GOLDEN = [
    ("sin-example", [], 0, "3950f06b1e2ef9d13fd2387f3e497c08b45e9eb2bbbdc262017c9409ae55448e"),
    ("bad-local", [], 0, "b9bbe45b080dceca2d945f8aa321d6523307828705a139ef077bcee6b26c5a63"),
    ("infeasible-1d", [], 2, "2c408432c6eecbf4ab6fda7aaea188a1b50fb032a871d1ac95e0b4f3f769a726"),
    ("comp-example", ["--max-iters", "25"], 3,
     "fd874ff47e9b738dbd807f91da272f942ef9b7b7b3fd12e3eb347f4ab501502c"),
    ("comp-example-manipulated", ["--max-iters", "25"], 3,
     "2ba695f3b99c9ec3ef100b4b953afbc465c12c05500208b9bcc774884a45b2a9"),
]


@pytest.mark.parametrize("name, extra, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_trace_bytes_and_exit_code(tmp_path, capsys, name, extra, code, digest):
    trace = tmp_path / f"{name}.csv"
    assert main(["solve", "--builtin", name, "--trace", str(trace)] + extra) == code
    capsys.readouterr()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest
