"""The package imports only the standard library, numpy and itself;
scipy, mpmath and pytest-benchmark belong in tests and benches.  No module
imports a sibling's private name or reads the environment.  An ensemble
run, pool helpers included, loads none of the modules it does not
execute."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import opucz

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "opucz"}


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_stdlib_numpy_and_itself():
    sources = sorted(path for root in opucz.__path__
                     for path in Path(root).glob("**/*.py"))
    assert sources
    outside = {(path.name, name) for path in sources
               for name in _imports(path)
               if name.partition(".")[0] not in ALLOWED}
    assert not outside


def _polynomial_uses(path):
    """Lines that import numpy.polynomial, or reach it as np.polynomial,
    which numpy loads on first access."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "polynomial":
            names = ["numpy.polynomial"]
        else:
            continue
        if any(name.startswith("numpy.polynomial") for name in names):
            yield node.lineno


def test_package_never_uses_numpy_polynomial():
    # its one Gauss rule, opuc.gauss_jacobi, is built in numpy's core
    sources = sorted(path for root in opucz.__path__
                     for path in Path(root).glob("**/*.py"))
    assert sources
    found = [(path.name, line) for path in sources
             for line in _polynomial_uses(path)]
    assert not found


def _private_imports(path):
    """(line, name) for each _-prefixed name imported from a sibling module
    of the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("opucz")):
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name.startswith("_"))


def test_no_module_imports_a_siblings_private_name():
    # a name that one module shares with another is public, and is named so
    sources = sorted(path for root in opucz.__path__
                     for path in Path(root).glob("**/*.py"))
    assert sources
    found = [(path.name, line, name) for path in sources
             for line, name in _private_imports(path)]
    assert not found


ENVIRONMENT_READERS = {"environ", "getenv", "putenv", "environb", "getenvb"}


def _environment_uses(path):
    """(line, name) for each reference to os.environ, os.getenv or
    os.putenv (or their bytes forms), as an attribute or an imported name."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name in ENVIRONMENT_READERS)


def test_no_module_reads_the_environment():
    # every setting comes in through a flag or a --config file
    sources = sorted(path for root in opucz.__path__
                     for path in Path(root).glob("**/*.py"))
    assert sources
    found = [(path.name, line, name) for path in sources
             for line, name in _environment_uses(path)]
    assert not found


# modules that no ensemble run executes: numpy.ma came from np.unique in the
# Aberth loop, numpy.polynomial from leggauss, the rest from cli's imports
NOT_LOADED = ("numpy.ma", "numpy.polynomial", "opucz.intensity",
              "opucz.kernel", "opucz.varlim")


def _imported(code: str, tmp_path) -> list:
    """Every module that `python -X importtime -c code` imports, once per
    import and process: a forked pool helper writes its own lines."""
    src = str(Path(list(opucz.__path__)[0]).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    r = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                       cwd=tmp_path, env=env, capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    return [line.rpartition("|")[2].strip() for line in r.stderr.splitlines()
            if line.startswith("import time:")]


def test_pooled_convergence_loads_only_what_it_runs(tmp_path):
    # two processes on any machine: the parent and one forked helper, each
    # of which reads its peak memory through the resource module
    names = _imported(
        "import sys\n"
        "import opucz.mc as mc\n"
        "mc._cpus = lambda: 2\n"
        "from opucz.cli import main\n"
        "sys.exit(main(['convergence', '--alphas', 'weight:jacobi:pi:1',\n"
        "    '--region', 'sector:0.5:0:pi/2', '--ns', '25,50',\n"
        "    '--trials', '70', '--seed', '3', '--threads', '2',\n"
        "    '--out', 'conv']))\n", tmp_path)
    timing = json.loads((tmp_path / "conv.summary.json").read_text())["timing"]
    assert timing["processes"] == 2
    assert not set(NOT_LOADED) & set(names)
    assert names.count("resource") == 2  # the helper's imports are traced


def test_one_worker_simulate_loads_only_what_it_runs(tmp_path):
    names = _imported(
        "import sys\n"
        "from opucz.cli import main\n"
        "sys.exit(main(['simulate', '--alphas', 'decay:1:1', '--n', '30',\n"
        "    '--region', 'annulus:0.3:0.6', '--trials', '101',\n"
        "    '--threads', '1', '--out', 'sim']))\n", tmp_path)
    assert "opucz.mc" in names
    assert not set(NOT_LOADED) & set(names)


def test_audit_rule_is_gauss_jacobi_12():
    # the package has one Gauss rule source: the audit's panel rule is
    # opuc.gauss_jacobi(12), the Legendre case, and no copy of it
    from opucz import opuc, zerocount
    nodes, weights = opuc.gauss_jacobi(12)
    assert zerocount._GL_NODES is nodes and zerocount._GL_WEIGHTS is weights
