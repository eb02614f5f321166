"""Every name a module exports in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import qubuslab

MODULES = ["qubuslab"] + [
    f"qubuslab.{info.name}" for info in pkgutil.iter_modules(qubuslab.__path__)
]


def test_every_module_found():
    assert {"qubuslab.gates", "qubuslab.graphstab", "qubuslab.growth"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "a name is listed twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, missing
