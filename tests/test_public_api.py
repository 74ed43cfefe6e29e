"""Public API surface sanity."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        if name == "__version__":
            continue
        assert hasattr(repro, name), name


@pytest.mark.parametrize("module", [
    "repro.core", "repro.decomp", "repro.sets", "repro.codegen",
    "repro.machine", "repro.frontend", "repro.diophantine",
    "repro.baselines", "repro.report", "repro.cli",
    "repro.analysis", "repro.pipeline",
])
def test_submodule_all_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


def test_key_entry_points_importable():
    from repro import (  # noqa: F401
        Block,
        Scatter,
        compile_clause,
        evaluate_program,
        run_distributed,
        run_shared,
        translate_source,
    )
    from repro.codegen import (  # noqa: F401
        choose_static,
        compile_doacross,
        compile_indirect,
        compile_reduce,
        run_program_shared,
    )
    # the hand-declared halo is retired without an alias
    with pytest.raises(ImportError):
        from repro import OverlappedBlock  # noqa: F401
    with pytest.raises(ImportError):
        from repro.codegen import compile_halo_stencil  # noqa: F401


def test_plan_cache_controls_exported():
    from repro import clear_plan_cache, plan_cache_info

    clear_plan_cache()
    info = plan_cache_info()
    assert info["hits"] == 0 and info["misses"] == 0 and info["size"] == 0
    assert {"hits", "misses", "size", "maxsize", "enabled"} <= set(info)


def test_analysis_exports():
    from repro import Diagnostic, DiagnosticReport, Severity, verify_clause
    from repro.analysis import CODES

    assert callable(verify_clause)
    assert Severity.ERROR.value == "error"
    d = Diagnostic(code="RACE001", message="x")
    report = DiagnosticReport(clause="c")
    report.add(d)
    assert not report.ok and report.has("RACE001")
    assert set(CODES) >= {"RACE001", "COMM001", "BND001", "LINT001"}
