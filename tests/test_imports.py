"""The library's decisions run without scipy.

scipy is loaded only by the n = 2 two-factor heuristic (search.refine_minimum
imports it inside the function) and by the tests as an oracle.  A fresh
interpreter runs the decisions and must end with no scipy module loaded.
"""
import os
import subprocess
import sys
from pathlib import Path

import symmlu

SCRIPT = """
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

print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_the_decisions_load_no_scipy():
    src = str(Path(symmlu.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
