"""Golden traces: the trace CSV bytes and the exit code of ``lipcut solve``
on every builtin are a contract.  Each case pins the SHA-256 of the CSV
written by ``lipcut solve --builtin <name> --trace``; the two comp-example
variants are capped at 25 iterations to keep the suite short.  Two 3-D
problem files pin the 1- and inf-norm branches, one with an integral x3,
and a 2-D file pins masked cuts in both cut modes, which no builtin
reaches.

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


LATTICE = """\
dimension: 3
bounds: [[-1.2, 1.2], [-1.1, 1.1], [-2.0, 2.0]]
integral: [false, false, {integral}]
norm: "{norm}"
image_norm: "{image_norm}"
objective: "0.5*x1 - 0.7*x2 + 0.3*x3"
objective_L: {objective_L}
constraints:
  - expr: "0.8*sin(2*x1 + 1) + 0.6*cos(1.5*x2) + 0.4*x3 - 0.2"
  - expr: "0.5*x1 - 0.3*x2 - x3 + 0.1"
global_L: {global_L}
epsilon: 1.0e-3
max_iterations: 12
"""

# Constants from the elementwise derivative bounds (0.5, 0.7, 0.3) and
# [[1.6, 0.9, 0.4], [0.5, 0.3, 1]]: the largest entry for norms (1, inf),
# the sum of the entries for (inf, 1).
GOLDEN_FILES = [
    ("norms-1-inf-integral", dict(integral="true", norm="1", image_norm="inf", objective_L=0.7, global_L=1.6), 3,
     "3c89e12c41ea27c7bc81f9fea6ecd4fd8268827b8d8a4b6933cdcc281ba0efa2"),
    ("norms-inf-1", dict(integral="false", norm="inf", image_norm="1", objective_L=1.5, global_L=4.7), 3,
     "a8888e7ae8b36c979139c69ec927b82f9762a739b78627970df9987b8f9f1cc6"),
]


@pytest.mark.parametrize("name, fields, code, digest", GOLDEN_FILES, ids=[g[0] for g in GOLDEN_FILES])
def test_problem_file_trace_bytes_and_exit_code(tmp_path, capsys, name, fields, code, digest):
    problem = tmp_path / f"{name}.yaml"
    problem.write_text(LATTICE.format(**fields))
    trace = tmp_path / f"{name}.csv"
    assert main(["solve", "--problem", str(problem), "--oracle-tol", "1e-3", "--trace", str(trace)]) == code
    capsys.readouterr()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


MASKED = """\
dimension: 2
bounds: [[0.0, 3.0], [0.0, 3.0]]
norm: "2"
image_norm: "2"
objective: "x1 + x2"
objective_L: 1.4142135623730951
constraints:
  - expr: "cos(3*x1) + 0.3"
    L: 3
    mask: [1]
  - expr: "sin(4*x2) + 0.2"
    L: 4
    mask: [2]
global_L: 5
epsilon: 0
"""

# Component cuts are solved after 15 iterations, each component attaining
# some cut; vector cuts, over the union of the masks, reach the limit.
GOLDEN_MASKED = [
    ("component", [], 0, "5edde27a0ff03f8a85fbae5320773435609552bff18458bec92a41870fb13b75"),
    ("vector", ["--max-iters", "25"], 3, "2b00b06d91fbca7ef29becc9d91e316df2776b5b057474ad41263d2b4a636cf7"),
]


@pytest.mark.parametrize("mode, extra, code, digest", GOLDEN_MASKED, ids=[g[0] for g in GOLDEN_MASKED])
def test_masked_trace_bytes_and_exit_code(tmp_path, capsys, mode, extra, code, digest):
    problem = tmp_path / "masked.yaml"
    problem.write_text(MASKED)
    trace = tmp_path / f"masked-{mode}.csv"
    assert main(["solve", "--problem", str(problem), "--mode", mode, "--trace", str(trace)] + extra) == code
    capsys.readouterr()
    rows = trace.read_text().splitlines()[1:]
    if mode == "component":
        assert len(rows) == 15 and {row.split(",")[7] for row in rows[:-1]} == {"0", "1"}
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest
