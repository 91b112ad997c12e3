"""The traced benchmark wraps functions of the package by name: a rename that
drops a traced function must fail here, not only in `run.py --trace 1`."""
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_spanned_function_and_restores_all():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        spanned = set()
        for owner, attr, original in patched:
            wrapper = getattr(owner, attr)
            assert wrapper is not original and wrapper.__wrapped__ is original
            if wrapper.__name__ == "traced":
                home = original.__module__.rpartition(".")[2]
                spanned.add(f"{home}.{original.__name__}")
    finally:
        tracer.uninstall()
    assert spanned == tracer_mod.SPANNED
    assert any(attr == "__matmul__" for _, attr, _ in patched)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
