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


# the position of the message among each call's arguments
_MESSAGE_ARG = {"InvalidInput": 0, "_reals": 1, "_int": 1, "_indices": 1}


def rejection_messages(path):
    """Each message the source at ``path`` passes to ``InvalidInput`` or to the
    readers ``matkit._reals``, ``_int`` and ``_indices``: a string literal, or
    an f-string's leading literal; a message passed on in a variable is not
    one."""
    messages = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        at = _MESSAGE_ARG.get(getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        if at is not None and len(node.args) > at:
            arg = node.args[at]
            arg = arg.values[0] if isinstance(arg, ast.JoinedStr) else arg
            if isinstance(arg, ast.Constant):
                messages.append(arg.value)
    return messages


def assert_rejects(call, message):
    """``call()`` raises ``InvalidInput`` itself, not a subclass, with exactly ``message``."""
    with pytest.raises(InvalidInput) as info:
        call()
    assert info.type is InvalidInput and str(info.value) == message


@pytest.fixture(scope="session")
def purified_symmetric_111():
    """Purification of the (1.5, 1, 1) state, shared by several oracle tests."""
    p = gaussian.SymmetricStateParams(1.5, 1.0, 1.0)
    return p, gaussian.purify(gaussian.symmetric_embed(p))
