"""Set-up cost of one workload, measured in a fresh interpreter.

    python3 bench/setup_probe.py INPUTS.json [--cli]

Times, from before ``import freemarkov`` (and ``freemarkov.cli`` with
``--cli``), the loading, building and validating of every system and source
in an inputs document written by ``run.py``.  Prints ``{"setup_s": ...}``.
Generating the inputs is not part of it.
"""

import json
import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import freemarkov  # noqa: E402,F401

if "--cli" in sys.argv:
    import freemarkov.cli  # noqa: F401

from inputs import load_inputs  # noqa: E402

load_inputs(Path(sys.argv[1]).read_text(encoding="utf-8"))
print(json.dumps({"setup_s": time.perf_counter() - t0}))
