import doctest
import importlib
import pkgutil

import cofiso


def _modules():
    yield cofiso
    for info in pkgutil.iter_modules(cofiso.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            yield importlib.import_module(f"cofiso.{info.name}")


def test_docstring_examples_pass():
    attempted = 0
    for module in _modules():
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted > 0
