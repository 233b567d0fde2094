import ast

import numpy as np
import pytest

from gausskey import gaussian
from gausskey.errors import InvalidInput


def random_physical_cm(rng, n, margin=None):
    """Random physical CM: random SPD matrix rescaled so its smallest
    symplectic eigenvalue is 1 + margin."""
    b = rng.standard_normal((2 * n, 2 * n))
    cm = b @ b.T + 0.05 * np.eye(2 * n)
    nu_min = gaussian.symplectic_spectrum(cm).min()
    m = rng.uniform(0.02, 1.0) if margin is None else margin
    return cm / nu_min * (1.0 + m)


def random_symmetric_params(rng, lam_range=(1.0, 4.0), exclusion=0.0):
    """Rejection-sample physical symmetric-family parameters, optionally
    excluding a band around the entanglement boundary."""
    while True:
        lam = rng.uniform(*lam_range)
        cx = rng.uniform(0.0, lam)
        cp = rng.uniform(0.0, cx)
        try:
            p = gaussian.SymmetricStateParams(lam, cx, cp)
        except InvalidInput:
            continue
        if exclusion and abs(lam**2 + cx * cp - 1.0 - lam * (cx + cp)) < exclusion:
            continue
        return p


def package_imports(module):
    """The gausskey modules that ``module``'s source imports, by short name."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gausskey")):
            name = (node.module or "").removeprefix("gausskey").lstrip(".")
            used |= {name} if name else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            used |= {a.name.removeprefix("gausskey.") for a in node.names if a.name.startswith("gausskey")}
    return used


@pytest.fixture(scope="session")
def purified_symmetric_111():
    """Purification of the (1.5, 1, 1) state, shared by several oracle tests."""
    p = gaussian.SymmetricStateParams(1.5, 1.0, 1.0)
    return p, gaussian.purify(gaussian.symmetric_embed(p))
