"""The package namespace: each public name is declared once, in its module."""

import qlabelsec
from qlabelsec import (
    adversary,
    errors,
    info_theory,
    learn_harness,
    pac_bounds,
    protocol,
    qubit,
)

MODULES = (errors, pac_bounds, info_theory, qubit, adversary, protocol, learn_harness)


def test_all_is_the_union_of_the_module_lists():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))  # no name exported twice
    assert len(qlabelsec.__all__) == len(set(qlabelsec.__all__))
    assert set(qlabelsec.__all__) == {"__version__", *declared}


def test_every_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qlabelsec, name) is getattr(module, name)
    assert isinstance(qlabelsec.__version__, str)
