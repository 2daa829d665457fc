"""The package exports exactly the union of its modules' export lists."""

import qcawalk
from qcawalk import amplitudes, asymptotics, coined_walks, correspondence, qca_core

MODULES = (amplitudes, asymptotics, coined_walks, correspondence, qca_core)


def test_package_all_is_union_of_module_lists():
    union = set().union(*(module.__all__ for module in MODULES))
    assert qcawalk.__all__ == sorted(union)


def test_every_export_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qcawalk, name) is getattr(module, name), name


def test_no_name_is_listed_by_two_modules():
    seen = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in seen, f"{name} in {seen.get(name)} and {module.__name__}"
            seen[name] = module.__name__


def test_removed_names_are_not_exported():
    removed = ("QubitState", "ZERO_TOLERANCE", "MASS_TOLERANCE", "norm_sq", "support")
    for name in removed:
        assert name not in qcawalk.__all__
        assert not any(hasattr(obj, name) for obj in (qcawalk, *MODULES)), name
