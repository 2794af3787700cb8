"""The benchmark's tracer wraps functions and profile facts by name; every
name it lists must stay bound, or its per-layer metrics read zero."""

import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

import pytest

from trapnets.classes import NetworkProfile

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name", tracing.function_names())
def test_layer_name_is_bound(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"trapnets.{module}"), attr, None))


@pytest.mark.parametrize("prop", tracing.PROFILE_PROPERTIES)
def test_profile_property_is_cached(prop):
    assert isinstance(vars(NetworkProfile).get(prop), cached_property)
