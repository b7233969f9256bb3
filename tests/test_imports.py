"""What the package loads: the lazy root and a cold CLI start."""

import importlib
import subprocess
import sys

import pytest

import hyperq

ROOT_NAMES = {
    "poly": ("BiPoly", "LaurentPoly", "RatFunc", "qint", "qpow"),
    "stern": ("cw", "cw_q", "fusc", "fusc_q"),
    "hyperbinary": ("enum_polys", "expansions", "expansions_upto", "h_q", "h_rs", "hbar_st"),
    "qrational": ("qdeform",),
    "matrices": ("L", "R", "m_of"),
}


def fresh(code: str) -> str:
    """The last line a fresh interpreter prints after running ``code``."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_import_loads_no_library_module():
    """Building the parser needs none of these; each is loaded by the
    subcommand that runs it."""
    heavy = ("dataclasses", "fractions", "hyperq.verify", "hyperq.matrices",
             "hyperq.fence", "hyperq.qrational", "hyperq.hyperbinary")
    loaded = fresh("import sys\n"
                   "before = set(sys.modules)\n"
                   "import hyperq.cli\n"
                   "hyperq.cli.build_parser()\n"
                   f"print(sorted(m for m in {heavy!r} if m in set(sys.modules) - before))")
    assert loaded == "[]"


def test_cli_import_builds_no_parser():
    """``main`` builds its parser on the first call and reuses it; the
    import alone builds none (a parser is 11 ArgumentParser objects,
    one per subcommand and the top level)."""
    built = fresh("import argparse\n"
                  "built = []\n"
                  "init = argparse.ArgumentParser.__init__\n"
                  "def counted(self, *args, **kwargs):\n"
                  "    built.append(self)\n"
                  "    init(self, *args, **kwargs)\n"
                  "argparse.ArgumentParser.__init__ = counted\n"
                  "from hyperq.cli import main\n"
                  "at_import = len(built)\n"
                  "assert main(['fusc', '19']) == main(['fuscq', '19']) == 0\n"
                  "print(at_import, len(built))")
    assert built == "0 11"


def test_fusc_loads_only_stern_and_poly():
    loaded = fresh("import sys\n"
                   "from hyperq.cli import main\n"
                   "assert main(['fusc', '19']) == 0\n"
                   "print(sorted(m for m in sys.modules if m.startswith('hyperq.')))")
    assert loaded == "['hyperq.cli', 'hyperq.poly', 'hyperq.stern']"


@pytest.mark.parametrize("argv, loaded", [
    (["qrat", "7/3"], "['hyperq.cli', 'hyperq.poly', 'hyperq.qrational']"),
    (["cwindex", "7/3"], "['hyperq.cli', 'hyperq.poly', 'hyperq.qrational']"),
    (["qrat", "7/3", "--via", "graph"],
     "['hyperq.cli', 'hyperq.fence', 'hyperq.hyperbinary', 'hyperq.poly', "
     "'hyperq.qrational', 'hyperq.stern']"),
])
def test_only_the_closure_route_loads_fence(argv, loaded):
    """``qrational`` imports ``fence`` (and through it ``hyperbinary``)
    inside ``closure_poly``, which only ``qrat --via graph`` runs."""
    assert fresh("import sys\n"
                 "from hyperq.cli import main\n"
                 f"assert main({argv!r}) == 0\n"
                 "print(sorted(m for m in sys.modules if m.startswith('hyperq.')))") == loaded


@pytest.mark.parametrize("module", sorted(ROOT_NAMES))
def test_root_names_are_the_module_attributes(module):
    mod = importlib.import_module(f"hyperq.{module}")
    for name in ROOT_NAMES[module]:
        assert getattr(hyperq, name) is getattr(mod, name)
        assert name in dir(hyperq)


def test_root_exports_exactly_the_documented_names():
    assert sorted(hyperq.__all__) == sorted(n for names in ROOT_NAMES.values() for n in names)


def test_unknown_root_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperq.no_such_name
    with pytest.raises(ImportError):
        from hyperq import no_such_name  # noqa: F401


def test_submodules_import_through_the_root():
    from hyperq import fence, verify

    assert fence is importlib.import_module("hyperq.fence")
    assert verify.REGISTRY
