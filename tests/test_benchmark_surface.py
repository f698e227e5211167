"""The benchmark's span tracer still finds every package name it patches.

``perfbench/spans.py`` times the package by swapping module attributes and
model methods by name, so renaming one of them breaks the traced benchmark
run.  This test installs the tracer and checks each patch both ways.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_and_restores_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    assert patched
    assert len({(id(owner), attr) for owner, attr, _ in patched}) == len(patched)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
