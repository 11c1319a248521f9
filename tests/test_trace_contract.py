"""Every function the benchmark tracer wraps must exist under its traced name.

perfbench/spans.py looks each SPANNED / COUNTED name up on the imported
symmlu modules; a rename in the library would otherwise break
`perfbench/run.py --trace 1` without failing any library test.
"""
import importlib
import importlib.util
from pathlib import Path

import symmlu

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_library():
    spans = load_spans()
    missing = []
    for table in (spans.SPANNED, spans.COUNTED):
        for mod, names in table.items():
            module = importlib.import_module(f"symmlu.{mod}")
            missing += [f"{mod}.{fn}" for fn in names if not callable(getattr(module, fn, None))]
    assert missing == []
    assert spans.SPANNED["mixed"] == ("lu_equivalent_mixed", "refine_minimum")


def test_the_numpy_kernels_are_the_only_backend():
    # perfbench/run.py records this flag in every benchmark report
    assert symmlu.USING_NUMBA is False
