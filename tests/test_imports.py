"""The library's decisions run without scipy, and no module reaches into another's private names.

numpy is the library's only runtime dependency; scipy serves the tests as an
oracle.  A fresh interpreter runs every decision, the n = 2 two-factor search
included, and must end with no scipy module loaded.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import symmlu

SCRIPT = """
import functools
import sys
import numpy as np
import symmlu
from symmlu import classify, majorana, mixed, states, verify

rng = np.random.default_rng(5)
tetrahedron = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
for psi in (majorana.points_to_state(tetrahedron), states.random_symmetric(6, rng)):
    assert classify.classify_state(psi).sclass.tag == "finite"

octahedron = majorana.points_to_state(np.vstack([np.eye(3), -np.eye(3)]))
turned = states.apply_diag_symmetric(states.random_su2(rng), octahedron)
assert classify.lu_equivalent_pure(octahedron, turned) is not None

rho = states.to_density(states.random_symmetric(3, rng))
g = states.LocalUnitary.uniform(states.random_su2(rng), 3)
assert mixed.lu_equivalent_mixed(rho, states.apply_lu(g, rho)).status == "equivalent"

psi = states.random_symmetric(3, rng)
phi = states.apply_diag_symmetric(states.random_su2(rng), psi)
assert verify.lu_equivalent_pure_bruteforce(psi, phi) is not None

rho = states.random_symmetric_mixed(2, rng, rank=2)
u = states.LocalUnitary((states.random_su2(rng), states.random_su2(rng)))
assert mixed.two_factor_search(rho, states.apply_lu(u, rho)).status == "equivalent"

# tau^(x)5 fills all three spin blocks (5/2, 3/2, 1/2): one block-diagonal D(g), both states' block spectra in one stack
tau = states.random_symmetric_mixed(1, rng, rank=2).mat
power = functools.reduce(np.kron, [tau] * 5)
rho = states.DensityMatrix(5, 0.5 * power + 0.5 * states.random_symmetric_mixed(5, rng, rank=3).mat)
g = states.LocalUnitary.uniform(states.random_su2(rng), 5)
assert mixed.lu_equivalent_mixed(rho, states.apply_lu(g, rho)).status == "equivalent"

print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_the_decisions_load_no_scipy():
    src = str(Path(symmlu.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_module_uses_another_modules_private_names():
    package = Path(symmlu.__file__).resolve().parent
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            # mod._name on a symmlu module, or "from .mod import _name"
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules - {path.stem} and node.attr.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.level and node.module in modules - {path.stem}:
                found += [f"{path.name}:{node.lineno} from .{node.module} import {a.name}" for a in node.names if a.name.startswith("_")]
    assert not found, found
