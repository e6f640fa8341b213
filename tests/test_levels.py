"""The level walk's root finder is scipy's brentq to the bit, and observing,
verifying and `rotheta wave` load no scipy module; verifying loads no
`numpy.random` module and no OpenSSL either: `rotheta verify` passes 9/9
with scipy's import blocked, and with `numpy.random`'s and `hashlib`'s."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import rotheta
from rotheta import levels
from rotheta.atlas import observation_plane, observe_wave_menu
from rotheta.levels import brentq, saddle_level_fn
from rotheta.params import WaveParams
from rotheta.verification import T1_BASE, T3_BASE

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# the walk's tolerances, and scipy's defaults
TOLERANCES = [dict(xtol=1e-14, rtol=1e-15), {}]


def _outcome(solver, f, a, b, **kwargs):
    """The root's bits, or the error's type and message."""
    try:
        return solver(f, a, b, **kwargs).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _assert_same(f, a, b, **kwargs):
    ours = _outcome(brentq, f, a, b, **kwargs)
    assert ours == _outcome(scipy.optimize.brentq, f, a, b, **kwargs)
    return ours


@given(base=st.sampled_from([(T1_BASE, (-0.1, 0.85)), (T3_BASE, (-0.198, 0.2))]),
       u=st.floats(0.0, 1.0), frac=st.floats(0.001, 0.999),
       tol=st.sampled_from(TOLERANCES))
@settings(max_examples=300, deadline=None)
def test_brentq_is_scipys_on_the_walks_level_functions(base, u, frac, tol):
    # a level between two neighbouring stops' levels crosses zero once between them
    params, (lo, hi) = base
    plane = observation_plane(WaveParams(C1=lo + u * (hi - lo), **params))
    line = plane.line
    stops = sorted(plane.stops)
    for (p, hp), (q, hq) in zip(stops, stops[1:]):
        if hp == hq or (line is not None and (p - line) * (q - line) <= 0.0):
            continue
        y2 = saddle_level_fn(plane.fi, p, h=hp + frac * (hq - hp))
        assert isinstance(_assert_same(y2, p, q, **tol), str)
    # and on every bracket the observer's walks refine
    brackets = []

    def compared(f, a, b, **kwargs):
        brackets.append((a, b))
        return float.fromhex(_assert_same(f, a, b, **kwargs))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(levels, "brentq", compared)
        observe_wave_menu(WaveParams(C1=lo + u * (hi - lo), **params))
    assert brackets


_SMOOTH = {
    "sin": lambda r, s: lambda x: math.sin(s * (x - r)),
    "exp": lambda r, s: lambda x: math.expm1(s * (x - r)),
    "cubic": lambda r, s: lambda x: (x - r) * (1.0 + s * s * (x - r) ** 2),
    "atan": lambda r, s: lambda x: math.atan(s * (x - r)) + 1e-3 * (x - r) ** 3,
}


@given(kind=st.sampled_from(sorted(_SMOOTH)), r=st.floats(-1e3, 1e3),
       s=st.floats(0.01, 1.0), left=st.floats(1e-12, 3.0), right=st.floats(1e-12, 3.0),
       tol=st.sampled_from(TOLERANCES), maxiter=st.sampled_from([100, 3]))
@settings(max_examples=1000, deadline=None)
def test_brentq_is_scipys_on_smooth_functions(kind, r, s, left, right, tol, maxiter):
    # a root r inside the bracket; `maxiter` 3 runs out on most of them
    f = _SMOOTH[kind](r, s)
    _assert_same(f, r - left, r + right, maxiter=maxiter, **tol)
    _assert_same(f, r + right, r - left, maxiter=maxiter, **tol)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_brentq_raises_as_scipys(tol):
    same_sign = _assert_same(lambda x: x * x + 1.0, -1.0, 2.0, **tol)
    assert same_sign == ("ValueError", "f(a) and f(b) must have different signs")
    nan_at_end = _assert_same(lambda x: math.sqrt(x) - 1.0 if x >= 0 else math.nan,
                              -1.0, 4.0, **tol)
    assert nan_at_end[0] == "ValueError" and "NaN" in nan_at_end[1]
    # NaN on (0.2, 0.3) around the root: the first secant step lands there
    nan_inside = _assert_same(lambda x: math.nan if 0.2 < x < 0.3 else x - 0.25,
                              -0.5, 1.0, **tol)
    assert nan_inside[0] == "ValueError" and "NaN" in nan_inside[1]
    slow = _assert_same(lambda x: math.atan(x - 0.3), -2.0, 5.0, maxiter=2, **tol)
    assert slow == ("RuntimeError", "Failed to converge after 2 iterations.")


def _setup_snippet():
    """The benchmark's fresh-process set-up: import rotheta, one observation."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETUP_SNIPPET"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no SETUP_SNIPPET in perfbench/run.py")


def _child(script, *args):
    """The stdout of `script`, run in a fresh interpreter with this tree's
    src/ and `args` as its arguments."""
    src = str(Path(rotheta.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, src, *map(str, args)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cold_start_loads_no_scipy():
    # the set-up, the README portrait and a sweep per regime read levels only
    script = _setup_snippet() + """
from rotheta.cli import render_portrait_artifacts
from rotheta.verification import T3_BASE
render_portrait_artifacts(rotheta.WaveParams(T1_BASE["theta"], 0.3, 2.0, -1.0, 3.0))
for base, c1_range in ((T1_BASE, (0.85, -0.1)), (T3_BASE, (0.2, -0.198))):
    rotheta.sweep_singular_line(rotheta.WaveParams(C1=0.0, **base), c1_range, 10)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    assert _child(script).strip() == "[]"


_ON_PATH = """
import sys
sys.path.insert(0, sys.argv[1])
"""


# what a verify run must not load: scipy, and numpy's generator, which
# reaches OpenSSL's libcrypto through `secrets` and `hashlib`
_NOT_LOADED = ("scipy", "numpy.random", "secrets", "hashlib", "_hashlib")


def test_verify_and_wave_load_no_scipy(tmp_path):
    # all nine checks (the conservation lanes integrate with `dop853`, the
    # elliptic ones take K and sn/cn/dn from `elliptic`, the seeded ones draw
    # with `pcg64`) and every closed-form wave at the README's reduced point
    loaded = _child(_ON_PATH + """
from rotheta.cli import main
from rotheta.verification import run_checks
results = run_checks()
assert len(results) == 9 and all(r.passed for r in results), results
assert main(["wave", "--theta", "1/2", "--c1", "0", "--c2", "0.9", "--c3", "-1", "--k", "-0.05",
             "--out", sys.argv[2]]) == 0
names = sys.argv[3].split(",")
print(sorted(m for m in sys.modules if m in names or m.startswith(tuple(n + "." for n in names))))
""", tmp_path / "waves", ",".join(_NOT_LOADED))
    assert loaded.splitlines()[-1] == "[]"
    assert (tmp_path / "waves.csv").exists()


_BLOCKED_VERIFY = _ON_PATH + """
names = sys.argv[2].split(",")
assert not any(m in sys.modules for m in names), names

class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name in names or name.startswith(tuple(n + "." for n in names)):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, Blocked())
from rotheta.verification import run_checks
results = run_checks()
print(sum(r.passed for r in results), len(results))
"""


def test_verify_passes_with_scipy_blocked():
    assert _child(_BLOCKED_VERIFY, "scipy").split() == ["9", "9"]


def test_verify_passes_with_numpy_random_and_openssl_blocked():
    # the seeded checks draw with `pcg64`, numpy's generator ported
    out = _child(_BLOCKED_VERIFY, "numpy.random,secrets,hashlib,_hashlib")
    assert out.split() == ["9", "9"]
