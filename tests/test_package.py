import ast
import types
from pathlib import Path

import glnz
from glnz import congruence, exactmat, involution, transvection, verify

MODULES = (congruence, exactmat, involution, transvection, verify)


def test_package_exports_exactly_each_modules_all():
    public = {
        name for name, value in vars(glnz).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(glnz, name) is getattr(module, name), (module.__name__, name)


def _glnz_imports(module):
    """The glnz modules that a module's ``from .x import`` lines name."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {a.name for a in node.names}
    return imported


def test_lower_layers_import_only_what_is_below_them():
    # the finite-field and lattice layer stands alone, and the involution
    # and congruence layers do not lean on each other
    assert _glnz_imports(exactmat) == set()
    assert _glnz_imports(congruence) == {"exactmat"}
    assert _glnz_imports(involution) == {"exactmat"}
    assert _glnz_imports(transvection) == {"exactmat", "involution"}
