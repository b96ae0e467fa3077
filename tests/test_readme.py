"""The README's library tour runs, and gives the values its comments state."""

import ast
import math
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_values() -> dict[str, object]:
    """Run the "Library tour" block statement by statement; the value of
    each bare expression, keyed by its source text."""
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(compile(ast.Expression(node.value), "README", "eval"),
                                  namespace)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return values


def test_library_tour_values():
    v = tour_values()
    f = v["fm.f_markov(ts)"]
    assert v["fm.validate(ts, 1e-12)"] == []
    assert abs(f - (3 * math.log(3) - 3 * math.log(2))) < 1e-14
    assert repr(f).startswith("1.2163953")
    assert abs(v["fm.big_F(src, 1).big_f"] - f) < 1e-12  # F = f at depth 1
    cylinder = [value for source, value in v.items() if source.startswith("fm.cylinder_prob")]
    assert len(cylinder) == 1 and abs(cylinder[0] - 1 / 12) < 1e-15
    seq = v["[r.big_f for r in fm.f_sequence(hidden, 2)]"]
    assert len(seq) == 3
    assert seq[0] - seq[1] > 1e-6 and abs(seq[2] - seq[1]) < 1e-12  # strict drop, then flat
    approx = v["fm.f_markov(approx.inner)"]
    assert abs(approx - seq[1]) < 1e-12  # equals big_F(hidden, 1)
