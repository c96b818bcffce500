import importlib
import pkgutil

import statcomplex

# Names the package no longer defines: unused functionals, and the scalar
# references that only tests compare against (now in tests/scalar_reference.py).
REMOVED = ("kl_divergence", "error_function", "kl_generator", "c_sq", "c_jsd", "c_tv",
           "normalize", "DegenerateInputError", "SupportError", "FDivergenceSpec",
           "f_divergence", "tv_generator", "jsd_generator", "family_complexity_direct",
           "spectrum_distribution", "report_to_dict", "indicator_mask")


def test_every_export_resolves():
    missing = [name for name in statcomplex.__all__ if not hasattr(statcomplex, name)]
    assert missing == []
    assert len(set(statcomplex.__all__)) == len(statcomplex.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from statcomplex import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(statcomplex.__all__)


def test_removed_names_are_gone():
    modules = [statcomplex] + [importlib.import_module(f"statcomplex.{m.name}")
                               for m in pkgutil.iter_modules(statcomplex.__path__)]
    assert len(modules) > 8
    for module in modules:
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__
