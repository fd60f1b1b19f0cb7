"""The names the traced benchmark wraps, and the imports the dense-free
library paths must not regain.

`perfbench/spans.py` replaces stabsym entry points by name from outside the
package, so a rename or move in `src/` crashes the traced run instead of
failing a test.  The spans module is read here, not edited."""

import importlib
import importlib.util
from pathlib import Path

from stabsym import clifford, cyclotomic, moments, operators

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_in_stabsym():
    spans = _spans()
    missing = []
    for name, targets in spans.SPANS.items():
        for module_name, *path in targets:
            owner = importlib.import_module(f"stabsym.{module_name}")
            if len(path) == 2:  # a class attribute is wrapped from the class dict
                owner = getattr(owner, path[0], None)
            if owner is None or path[-1] not in vars(owner):
                missing.append((name, module_name, *path))
    assert not missing
    assert callable(operators.build_gram)  # wrapped by name for the Gram spans


def test_every_counter_target_is_a_cycnumber_method():
    for key, attrs in _spans().COUNTERS.items():
        assert all(attr in vars(cyclotomic.CycNumber) for attr in attrs), key


def test_the_clifford_laws_and_moments_import_no_dense_kernel():
    assert not hasattr(clifford, "OpMatrix")
    for name in ("hermitian_basis", "weyl_mono", "phase_point_mono"):
        assert not hasattr(moments, name), name
