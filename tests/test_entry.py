"""``import uqlab`` loads no numpy, and the ``uqlab`` command pins BLAS before numpy loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqlab
from uqlab import experiment
from uqlab._entry import BLAS_THREAD_VARS

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python(code: str, **env) -> dict:
    """Run ``code`` in a fresh interpreter with no BLAS thread variable but
    ``env`` set; it prints one JSON object on its last line, returned here."""
    src = str(Path(uqlab.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Runs ``setup``, then the uqlab command's entry point on ``--help``; records
# the BLAS thread variables when numpy's import starts (nothing if numpy was
# loaded before) and after the command, and the worker count a run of 15
# dense networks then gets.
_ENTRY = """
import json, os, sys
SETUP
at_numpy = {}
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not at_numpy:
            at_numpy.update({var: os.environ.get(var) for var in PINNED})
sys.meta_path.insert(0, Spy())
from uqlab._entry import main
sys.argv = ["uqlab", "--help"]
try:
    main()
except SystemExit as exc:
    assert exc.code == 0, exc.code
from uqlab import experiment
print(json.dumps({"at_numpy": at_numpy, "after": {var: os.environ.get(var) for var in PINNED},
                  "workers": experiment._pool_size(15), "cpus": experiment._usable_cpus()}))
"""


def _entry(setup="", **env) -> dict:
    return _python(_ENTRY.replace("SETUP", setup).replace("PINNED", repr(PINNED)), **env)


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        loaded = _python("import json, sys, uqlab; print(json.dumps(sorted(sys.modules)))")
        assert "numpy" not in loaded
        assert [m for m in loaded if m.startswith("uqlab")] == ["uqlab", "uqlab.errors"]

    def test_every_lazy_name_is_its_modules_object(self):
        for name, module in uqlab._MODULE_OF.items():
            assert getattr(uqlab, name) is getattr(importlib.import_module(f"uqlab.{module}"), name)

    def test_dir_lists_every_exported_name(self):
        assert set(uqlab.__all__) <= set(dir(uqlab))
        assert set(uqlab._MODULE_OF) <= set(uqlab.__all__)

    def test_star_import_binds_every_exported_name(self):
        namespace = {}
        exec("from uqlab import *", namespace)
        for name, module in uqlab._MODULE_OF.items():
            assert namespace[name] is getattr(importlib.import_module(f"uqlab.{module}"), name)
        assert set(uqlab.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            uqlab.nope  # noqa: B018

    def test_a_rebound_function_is_read_from_its_module_each_time(self, monkeypatch):
        # A tracer rebinds functions in their modules and undoes it there;
        # the package must hold no copy that outlives the undo.
        original = experiment.run_experiment
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "run_experiment", len)
            assert uqlab.run_experiment is len
        assert uqlab.run_experiment is original
        assert "run_experiment" not in vars(uqlab)


class TestEntryPinsBlas:
    def test_no_variable_set_pins_three_before_numpy_loads(self):
        out = _entry()
        assert out["at_numpy"] == dict.fromkeys(PINNED, "1")
        # Pinned BLAS: one worker per usable CPU but the parent's.
        assert out["workers"] == min(out["cpus"] - 1, 15)

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"])
    def test_a_users_variable_wins(self, var):
        out = _entry(**{var: "2"})
        assert out["at_numpy"] == out["after"] == {v: "2" if v == var else None for v in PINNED}
        assert out["workers"] == 0

    def test_numpy_already_loaded_sets_nothing(self):
        out = _entry("import numpy")
        assert out["at_numpy"] == {}
        assert out["after"] == dict.fromkeys(PINNED)
        assert out["workers"] == 0
