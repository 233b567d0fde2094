"""Every read of a caller's array goes through ``matkit._reals``: input that
numpy does not read as one regular array of finite bools, ints or floats
(complex numbers too, where the reader takes them) ends in the reader's own
``InvalidInput``, never a bare numpy error, a warning or a silent NaN.  Every
count, seed, block size and mode or axis index goes through ``matkit._int``:
anything ``operator.index`` refuses, ``2.0`` included, or a value out of the
reader's range ends in the reader's own ``InvalidInput`` too.  And every
message that src can reject an input with is named by some test."""

import ast
import pathlib

import numpy as np
import pytest

from conftest import assert_rejects, rejection_messages
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


# complex read: (call taking the value, a valid value, the reader's message);
# a complex entry is valid here
_COMPLEX_READS = {
    "eigh": (matkit.eigh, np.array([[2.0, 1j], [-1j, 2.0]]), "matrix contains non-finite entries"),
    "wavefunction-amplitudes": (lambda v: o.GridWavefunction(_AXIS, v), _VACUUM1.amplitudes,
                                "amplitudes are not finite"),
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


@pytest.mark.parametrize("read", list(_READS) + list(_COMPLEX_READS))
def test_accepts_the_valid_value(read):
    # each row below differs from an accepted call only in the bad value
    call, good, _ = {**_READS, **_COMPLEX_READS}[read]
    call(good)
    call(good.tolist())


@pytest.mark.parametrize("read, bad", [
    pytest.param(read, bad, id=f"{read}-{bad}") for read in _READS for bad in _BAD
    # a threshold's non-finite values are rows of TestThresholdRule (test_security.py)
    if not (_READS[read][2] == _X0_MESSAGE and bad in ("nan", "inf", "minus-inf"))
] + [
    pytest.param(read, bad, id=f"{read}-{bad}") for read in _COMPLEX_READS for bad in _BAD if bad != "complex"
])
def test_rejects(read, bad):
    call, good, message = {**_READS, **_COMPLEX_READS}[read]
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


_BITS4 = pr.SiftedBits(np.zeros(4, np.uint8), np.zeros(4, np.uint8), 1.0)
_CONFIG = pr.ProtocolConfig(x0=1.0, window=0.1, n_pairs=1000, block_n=2, seed=1)
_COUNTS = "counts must be integers of at least 1"
_BLOCK = "block size must be an integer of at least 1"
_MODES = "modes must be indices in [0, n_modes)"

# integer read: (call taking the value, a valid value, a value out of range,
# the reader's message); a reader of a list of indices has list values
_INT_READS = {
    "rng-seed": (matkit.Rng, 3, 2**64, "seed must be an integer in [0, 2**64)"),
    "rng-stream": (lambda v: matkit.Rng(1, v), 3, 2**60, "stream must be an integer in [0, 2**60)"),
    "substream": (lambda v: matkit.Rng(1).substream(v), 3, 2**20,
                  "substream index must be an integer in [0, 2**20)"),
    "bits": (lambda v: matkit.Rng(1).bits(v), 3, -1, "bit count must be a nonnegative integer"),
    "sample-mvn-count": (lambda v: matkit.sample_mvn(np.eye(2), v, matkit.Rng(0)), 3, -1,
                         "sample count must be a nonnegative integer"),
    "xxpp-indices": (g.xxpp_indices, 2, -1, "n must be a nonnegative integer"),
    "partial-transpose-modes": (lambda v: g.partial_transpose(np.eye(4), v), [1], [2], _MODES),
    "is-nppt-modes": (lambda v: g.is_nppt(np.eye(4), v), [1], [-1], _MODES),
    "condition-modes": (lambda v: g.condition_on_x(_THERMAL_PURIFIED, v, [0.0]), [0], [2],
                        "measured modes must be indices in [0, n_modes)"),
    "grid-condition-axes": (lambda v: o.grid_condition_on_x(_VACUUM2, v, [0.0]), [0], [2],
                            "measured axes must be indices in [0, n_modes)"),
    "grid-axis-points": (lambda v: o.GridAxis(-8.0, 8.0, v), 41, 1, "points per axis must be odd and at least 3"),
    "config-pairs": (lambda v: pr.ProtocolConfig(1.0, 0.1, v, 2, 1), 1000, 0, _COUNTS),
    "config-block": (lambda v: pr.ProtocolConfig(1.0, 0.1, 1000, v, 1), 2, 0, _COUNTS),
    "ad-error-block": (lambda v: pr.ad_error(0.1, v), 2, 0, _BLOCK),
    "ad-error-bound-block": (lambda v: pr.ad_error_bound(0.1, v), 2, 0, _BLOCK),
    "distill-block": (lambda v: pr.simulate_advantage_distillation(_BITS4, v, matkit.Rng(0)), 2, 5,
                      "block size must be an integer in [1, number of sifted bits]"),
    "sift-workers": (lambda v: pr.simulate_sifting(P111, _CONFIG, matkit.Rng(0), workers=v), 1, 0,
                     "workers must be an integer of at least 1"),
}

_BAD_INTS = {"2.5": 2.5, "2.0": 2.0, "float64-1": np.float64(1.0), "string": "abc", "none": None}


def _bad_ints(good, out):
    """The bad values of an integer read: each of ``_BAD_INTS`` (as the one
    entry of a list, for a list reader), the out-of-range value and, for a
    list reader, a bare int."""
    if not isinstance(good, list):
        return {**_BAD_INTS, "out-of-range": out}
    return {**{name: [v] for name, v in _BAD_INTS.items()}, "out-of-range": out, "bare-int": good[0]}


@pytest.mark.parametrize("read", list(_INT_READS))
def test_int_reads_accept_python_and_numpy_integers(read):
    call, good, _, _ = _INT_READS[read]
    if isinstance(good, list):
        for value in (good, [np.int64(good[0])], np.array(good), tuple(good)):
            call(value)
    else:
        for value in (good, np.int64(good), np.uint32(good), np.array(good)):
            call(value)


@pytest.mark.parametrize("read, bad", [
    pytest.param(read, bad, id=f"{read}-{bad}")
    for read, (_, good, out, _) in _INT_READS.items() for bad in _bad_ints(good, out)
])
def test_int_reads_reject(read, bad):
    call, good, out, message = _INT_READS[read]
    assert_rejects(lambda: call(_bad_ints(good, out)[bad]), message)


def test_an_empty_mode_list_flips_no_mode():
    # an empty float array is still no modes, though numpy reads [] as floats
    cm = g.symmetric_embed(P111).cm
    for modes in ([], (), np.array([]), range(0)):
        assert np.array_equal(g.partial_transpose(cm, modes), cm)
    assert not g.is_nppt(np.eye(4), [])


def test_int_reads_return_python_ints():
    rng = matkit.Rng(np.array(7), np.uint16(3))
    assert type(rng.seed) is int and type(rng.stream) is int
    assert (rng.seed, rng.stream) == (7, 3)


def _int_reads_of_parameters(tree):
    """``(line, what)`` of every ``int(...)`` of a function parameter (or of a
    comprehension variable over one, or of ``self.<field>``) and of every
    ``isinstance`` against ``int`` or ``np.integer``."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        params |= {c.target.id for c in ast.walk(fn) if isinstance(c, ast.comprehension)
                   and isinstance(c.target, ast.Name) and getattr(c.iter, "id", None) in params}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args):
                continue
            arg = node.args[0]
            if node.func.id == "int" and (getattr(arg, "id", None) in params or (
                    isinstance(arg, ast.Attribute) and getattr(arg.value, "id", None) == "self")):
                found.append((node.lineno, ast.unparse(node)))
            if node.func.id == "isinstance" and len(node.args) == 2 and any(
                    getattr(n, "id", None) == "int" or getattr(n, "attr", None) == "integer"
                    for n in ast.walk(node.args[1])):
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_other_integer_conversion():
    # matkit._int is the one place where a caller's integer is read, and the
    # two complex readers convert and check nothing themselves
    src = pathlib.Path(matkit.__file__).parent
    trees = {stem: ast.parse((src / f"{stem}.py").read_text())
             for stem in ("matkit", "gaussian", "oracle", "protocol")}
    for stem, tree in trees.items():
        assert _int_reads_of_parameters(tree) == [], stem
    readers = [n for stem, name in (("matkit", "eigh"), ("oracle", "GridWavefunction"))
               for n in ast.walk(trees[stem])
               if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
    assert len(readers) == 2
    for reader in readers:
        calls = {n.func.attr for n in ast.walk(reader)
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
        assert not calls & {"asarray", "isfinite"}, reader.name


def test_every_rejection_message_is_asserted():
    # a rejection that no test names could change its message, or stop
    # happening, unseen
    tests = "".join(path.read_text() for path in pathlib.Path(__file__).parent.glob("*.py"))
    src = sorted(pathlib.Path(matkit.__file__).parent.glob("*.py"))
    found = [(path.stem, m) for path in src for m in rejection_messages(path)]
    assert len(found) > 80
    assert [(stem, m) for stem, m in found if m not in tests] == []
