"""Importing gradsynth afresh, as a benchmark harness does between runs,
leaves nothing of the earlier import alive."""

import os
import subprocess
import sys
from pathlib import Path

import gradsynth

SCRIPT = """
import gc, importlib, inspect, pkgutil, sys, weakref

path = importlib.import_module("gradsynth").__path__
names = ["gradsynth"] + [f"gradsynth.{m.name}" for m in pkgutil.iter_modules(path)]
modules = [importlib.import_module(n) for n in names]
old = [weakref.ref(m) for m in modules] + [
    weakref.ref(c)
    for m in modules
    for _, c in inspect.getmembers(m, inspect.isclass)
    if c.__module__ == m.__name__
]
del modules
for name in names:
    del sys.modules[name]
for name in names:
    importlib.import_module(name)
gc.collect()
print(len(names), len(old), [repr(r()) for r in old if r() is not None])
"""


def test_a_fresh_import_leaves_no_old_module_or_class_alive():
    src = Path(gradsynth.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    n_modules, n_refs, alive = done.stdout.split(maxsplit=2)
    assert int(n_modules) > 1 and int(n_refs) > int(n_modules)
    assert alive.strip() == "[]"
