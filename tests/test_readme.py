"""The README's library quick start runs as written: its two ``python``
blocks state one problem in the one-point and in the batch form, and the
README says both give the same trace."""

import ast
import re
from pathlib import Path

from lipcut.driver import SolveStatus, trace_to_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks() -> list[str]:
    """The ``python`` code blocks of the README's "Library quick start"."""
    text = README.read_text()
    start = text.index("## Library quick start")
    section = text[start:text.index("\n## ", start)]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_the_two_quick_start_blocks_give_byte_identical_traces():
    one_point, batch = quick_start_blocks()
    # the batch block only restates the problem: the statements of the
    # first block after its problem is built solve it the same way
    built = [s for s in ast.parse(one_point).body if isinstance(s, ast.Assign)
             and [t.id for t in s.targets if isinstance(t, ast.Name)] == ["problem"]]
    solve = "\n".join(one_point.splitlines()[built[-1].end_lineno:])
    namespace = {}
    traces = []
    for source in (one_point, batch + solve):
        exec(compile(source, str(README), "exec"), namespace)
        outcome = namespace["outcome"]
        assert outcome.status is SolveStatus.Solved
        traces.append(trace_to_csv(outcome.trace, namespace["problem"].domain.dimension))
    assert traces[0] == traces[1]
