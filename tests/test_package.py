import types

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

