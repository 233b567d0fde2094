"""Every read of a caller's real array goes through ``matkit._reals``: input
that numpy does not read as one regular array of finite bools, ints or floats
ends in the reader's own ``InvalidInput``, never a bare numpy error, a
warning or a silent NaN."""

import ast
import pathlib

import numpy as np
import pytest

from conftest import assert_rejects
from gausskey import gaussian as g, matkit, oracle as o, protocol as pr, security as sec

P111 = g.SymmetricStateParams(1.5, 1.0, 1.0)
_AXIS = o.GridAxis(-8.0, 8.0, 41)
_VACUUM1 = o.wavefunction_from_pure(np.eye(2), np.zeros(2), _AXIS)
_VACUUM2 = o.wavefunction_from_pure(np.eye(4), np.zeros(4), _AXIS)
_THERMAL_PURIFIED = g.purify(g.GaussianState(np.diag([2.0, 2.0]), np.zeros(2)))
_Z2 = np.zeros(2)
_CM_MESSAGE = "cm has non-finite entries"
_X0_MESSAGE = "x0 must be one finite nonzero number"

# read: (call taking the value, a valid value, the reader's message)
_READS = {
    "pseudo-inverse": (matkit.pseudo_inverse, np.eye(2), "matrix contains non-finite entries"),
    "sample-mvn": (lambda v: matkit.sample_mvn(v, 2, matkit.Rng(0)), np.eye(2),
                   "cov contains non-finite entries"),
    "binary-entropy": (matkit.binary_entropy, np.array([0.1, 0.5]), "probability must lie in [0, 1]"),
    "entropy-bits": (matkit.entropy_bits, np.array([0.5, 0.5]), "weights contains non-finite entries"),
    "state-cm": (lambda v: g.GaussianState(v, _Z2), np.eye(2), _CM_MESSAGE),
    "is-physical-cm": (g.is_physical, np.eye(2), _CM_MESSAGE),
    "partial-transpose-cm": (lambda v: g.partial_transpose(v, (0,)), np.eye(2), _CM_MESSAGE),
    "symplectic-spectrum-cm": (g.symplectic_spectrum, np.eye(2), _CM_MESSAGE),
    "williamson-cm": (g.williamson, np.eye(2), _CM_MESSAGE),
    "pure-overlap-cm": (lambda v: g.pure_overlap(v, _Z2, _Z2), np.eye(2), _CM_MESSAGE),
    "state-dv": (lambda v: g.GaussianState(np.eye(2), v), _Z2, "dv has non-finite entries"),
    "condition-outcomes": (lambda v: g.condition_on_x(_THERMAL_PURIFIED, (0,), v), np.zeros(1),
                           "outcomes must be finite"),
    "pure-overlap-d1": (lambda v: g.pure_overlap(np.eye(2), v, _Z2), _Z2, "displacements must be finite"),
    "pure-overlap-d2": (lambda v: g.pure_overlap(np.eye(2), _Z2, v), _Z2, "displacements must be finite"),
    "threshold-error-probability": (lambda v: pr.error_probability(P111, v), np.array(1.0), _X0_MESSAGE),
    "threshold-eve-ensemble": (lambda v: sec.eve_ensemble(P111, v).gram, np.array(1.0), _X0_MESSAGE),
    "grid-cm": (lambda v: o.wavefunction_from_pure(v, _Z2, _AXIS), np.eye(2), "CM has non-finite entries"),
    "grid-dv": (lambda v: o.wavefunction_from_pure(np.eye(2), v, _AXIS), _Z2, "DV has non-finite entries"),
    "grid-condition-outcomes": (lambda v: o.grid_condition_on_x(_VACUUM2, [0], v), np.zeros(1),
                                "outcomes are not finite"),
    "grid-spectrum-weights": (lambda v: o.grid_reduced_spectrum(v, [_VACUUM1] * 4), np.full(4, 0.25),
                              "weights must be finite and nonnegative"),
    "grid-sector-x0": (lambda v: o.grid_sector_states(np.eye(6), np.zeros(6), _AXIS, v),
                       np.array(1.2), "x0 is not finite"),
    "rate-thresholds": (lambda v: sec.rate_lower_bound(P111, v), np.array([1.0, 2.0]), _X0_MESSAGE),
    "any-x0-grid": (lambda v: sec.any_x0_secure(P111, v), np.array([1.0, 2.0]), _X0_MESSAGE),
    "frontier-c-grid": (sec.security_frontier, np.array([0.5, 1.0]),
                        "c grid must be 1-D, non-empty, finite, positive and strictly ascending"),
}


def _with_entry(good, value):
    """``good`` with its first entry replaced by ``value``, in a dtype that holds it."""
    bad = good.astype(np.result_type(good, value))
    bad.flat[0] = value
    return bad


_BAD = {
    "ragged": lambda good: [[1.0], [1.0, 2.0]],
    "string": lambda good: "abc",
    "complex": lambda good: _with_entry(good, good.flat[0] + 1j),
    "nan": lambda good: _with_entry(good, np.nan),
    "inf": lambda good: _with_entry(good, np.inf),
    "minus-inf": lambda good: _with_entry(good, -np.inf),
}


@pytest.mark.parametrize("read", list(_READS))
def test_accepts_the_valid_value(read):
    # each row below differs from an accepted call only in the bad value
    call, good, _ = _READS[read]
    call(good)
    call(good.tolist())


@pytest.mark.parametrize("read, bad", [
    pytest.param(read, bad, id=f"{read}-{bad}") for read in _READS for bad in _BAD
])
def test_rejects(read, bad):
    call, good, message = _READS[read]
    assert_rejects(lambda: call(_BAD[bad](good)), message)


def test_no_other_conversion():
    # matkit._reals is the one place where a caller's real array becomes
    # floats: no np.asarray(..., dtype=float) and no per-entry threshold loop
    src = pathlib.Path(matkit.__file__).parent
    for stem in ("matkit", "gaussian", "oracle", "security"):
        for node in ast.walk(ast.parse((src / f"{stem}.py").read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "asarray":
                dtypes = node.args[1:] + [k.value for k in node.keywords if k.arg == "dtype"]
                assert "float" not in [getattr(d, "id", None) for d in dtypes], (stem, node.lineno)
            assert not (isinstance(node, ast.Attribute) and node.attr == "ravel"
                        and getattr(node.value, "id", None) == "np"), (stem, node.lineno)
    assert not hasattr(matkit, "_require_finite")
