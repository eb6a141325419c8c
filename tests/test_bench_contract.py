"""The benchmark's tracer patches lucidnet functions by name; every name it
lists must resolve, so a rename fails here and not only in the benchmark's
own smoke test."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracer  # noqa: E402


@pytest.mark.parametrize(
    "module, qualname",
    [(module, qualname) for module, qualname, _ in tracer.TRACED],
    ids=[tracer.span_name(module, qualname) for module, qualname, _ in tracer.TRACED],
)
def test_traced_name_resolves(module, qualname):
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        assert callable(owner.__dict__[attr])  # the tracer patches the class
    else:
        assert callable(getattr(module, qualname))
