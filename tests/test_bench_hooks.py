"""The library names that the benchmark's outside-in tracer hooks.

The tracer reports a hook whose target is gone and leaves its metrics
out, so a deletion would otherwise surface only in the benchmark's own
self-test.  The tracer module is read here, not installed: installing it
would wrap the library functions for the rest of the session.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def resolve(module: str, attr: str):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_hook_target_exists():
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.HOOKS
               if not callable(resolve(module, attr))]
    assert missing == []


def test_every_cache_has_statistics():
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.CACHES
               if not callable(getattr(resolve(module, attr), "cache_info", None))]
    assert missing == []
