"""The names the traced benchmark wraps, the names the README exports, and
the imports the dense-free library paths must not regain.

`perfbench/spans.py` replaces stabsym entry points by name from outside the
package, so a rename or move in `src/` crashes the traced run instead of
failing a test.  The spans module is read here, not edited."""

import importlib
import importlib.util
import inspect
import re
import types
from pathlib import Path

import stabsym
from stabsym import clifford, cyclotomic, moments, operators, phase_space, zmod

ROOT = Path(__file__).resolve().parents[1]
SPANS_FILE = ROOT / "perfbench" / "spans.py"


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
    # one array form for the Clifford layer's operators: phase stacks and
    # the batched monomial tables, no per-point object
    for name in ("PhaseTable", "weyl_mono", "phase_point_mono"):
        assert not hasattr(clifford, name), name
    for name in ("Mono", "mono_sum", "weyl_mono", "phase_point_mono"):
        assert not hasattr(operators, name), name
    assert not hasattr(stabsym, "weyl")
    # labels are grouped by Lagrangian in `lagrangian_index` alone, and their
    # cosets are listed by `enumerate_stabilizer_labels` alone
    for name in ("coset_reps", "basis_blocks"):
        assert not hasattr(phase_space, name), name
    # one set type: a family is one `OperatorSet`, its Gram an attribute,
    # and its labels are listed by `stabilizer_set` alone
    for module in (operators, moments, clifford, stabsym):
        assert not hasattr(module, "StateFamily"), module
    assert not hasattr(operators, "stabilizer_labels")
    assert moments.OperatorSet is operators.OperatorSet
    assert stabsym.OperatorSet is operators.OperatorSet
    # a Z_d matrix is an integer array, and the certified Sp order is not
    # reread from a cache keyed on matrices
    assert not hasattr(zmod, "ZModMatrix")
    assert not hasattr(clifford, "_order_on_nonzero")
    # the helpers only tests call live in `tests/dense_oracles.py`: `src/`
    # defines none of them and holds no float embedding of a field element
    sources = [path.read_text() for path in (ROOT / "src" / "stabsym").glob("*.py")]
    defined = {m[1] for text in sources for m in re.finditer(r"^\s*(?:def|class) (\w+)", text, re.M)}
    assert not defined & set("trace_product hs_inner from_rational gram_closed_form from_json vec_add"
                             " enumerate_subspaces InconsistentSigns ConductorTooSmall ext_compose"
                             " sp_order sqrt_d _lift to_complex is_real iunit tau"
                             " verify_Sf_machinery".split())
    for name in "hs_inner gram_closed_form ext_compose sp_order sqrt_d verify_Sf_machinery".split():
        assert not hasattr(stabsym, name), name
    assert not any(re.search(r"^\s*(?:import|from) cmath\b", text, re.M) for text in sources)
    assert not hasattr(cyclotomic.CycNumber, "to_complex")


def test_moments_read_one_trace_table_by_set():
    # the traced benchmark wraps `trace_table` by name and calls it with the
    # set alone; the table has no second form and the basis no pair matrix
    assert _spans().SPANS["moments.trace_table"] == [("moments", "trace_table")]
    assert list(inspect.signature(moments.trace_table).parameters) == ["q"]
    for name in ("_table", "_incidence"):
        assert not hasattr(moments, name), name
    assert "pair" not in moments._Basis._fields


def test_the_readme_exports_are_the_package_names():
    # the "Public API" paragraph lists what `import stabsym` exports: every
    # backticked name there resolves on stabsym, and every public name of
    # the package is listed, so a removed export cannot stay in the README
    text = (ROOT / "README.md").read_text()
    paragraph = text.split("## Public API\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {m[1] for m in re.finditer(r"`([A-Za-z_][\w.]*)(?:\(.*?\))?`", paragraph)}
    unresolved = []
    for name in listed:
        owner = stabsym
        for part in name.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.append(name)
    assert not unresolved
    exported = {name for name, value in vars(stabsym).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == listed
