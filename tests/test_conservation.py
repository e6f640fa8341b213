"""The conservation check's answers, pinned trial by trial, the
integrator they come from checked against scipy's own DOP853, and the lane
driver the check runs them with checked against that integrator.

`PINNED_HALF_THETA` holds the 100 theta = 1/2 trials of
`check_conservation` at the default seed 7, as the program reports them:
(h_drift_max, drift_samples, rtol_used, len(traj.t)).  Trials 34 and 55 are
retried at rtol 1e-12; trial 82 has no measurable sample.  The drift values
are those of the float stepper `orbits._FloatDOP853`; they sit at the
rounding of its sums, so any change to its arithmetic moves their last
digits.  A change that moves them, or anything else here (other
coordinates, another retry), must update the pin and say so.  The check
runs its trials through `dop853.integrate_many`, whose every lane must
give what `integrate` gives that trial, bit for bit, in every retry pass,
whether it runs as a numpy lane to its end, goes on to floats for the
tail of the set (`dop853.FLOAT_TAIL`), or runs on floats from its start.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rotheta import dop853, orbits
from rotheta.dop853 import integrate_many
from rotheta.field import build_first_integral
from rotheta.orbits import integrate
from rotheta.params import WaveParams
from rotheta.verification import DEFAULT_SEED, _conservation_draw, _conservation_trials

PINNED_HALF_THETA = [
    (1.185687058764745e-10, 512, 1e-10, 19),
    (2.6780703588328003e-11, 512, 1e-10, 46),
    (2.9469956140909284e-09, 204, 1e-10, 23),
    (2.4325755000893894e-09, 94, 1e-10, 32),
    (1.017788692915802e-09, 385, 1e-10, 60),
    (6.983238343971093e-11, 512, 1e-10, 60),
    (3.402087302271165e-11, 512, 1e-10, 50),
    (8.944982211990741e-10, 384, 1e-10, 66),
    (2.132633901360827e-11, 512, 1e-10, 42),
    (2.5746744413983168e-11, 512, 1e-10, 26),
    (4.0262263576031226e-09, 359, 1e-10, 31),
    (5.809328027321592e-10, 399, 1e-10, 47),
    (1.0709138378672766e-09, 373, 1e-10, 71),
    (8.2698952026126e-11, 512, 1e-10, 25),
    (5.644910136302261e-10, 512, 1e-10, 44),
    (2.9903071795426957e-13, 512, 1e-10, 44),
    (1.1192490352948809e-10, 512, 1e-10, 39),
    (3.008539497436548e-09, 251, 1e-10, 32),
    (3.3384588482947396e-09, 512, 1e-10, 49),
    (5.866682726514995e-09, 113, 1e-10, 26),
    (1.1057485847984433e-13, 512, 1e-10, 34),
    (2.358436581043301e-10, 512, 1e-10, 49),
    (6.927561621050216e-10, 428, 1e-10, 64),
    (1.1731979936766956e-10, 512, 1e-10, 26),
    (5.484460862995878e-09, 512, 1e-10, 45),
    (5.3810815726409035e-11, 512, 1e-10, 43),
    (1.8901853265994267e-11, 512, 1e-10, 19),
    (1.112275652727442e-12, 512, 1e-10, 49),
    (9.366151546757883e-10, 164, 1e-10, 35),
    (1.5359325259155372e-10, 512, 1e-10, 53),
    (1.2103287739342308e-09, 245, 1e-10, 36),
    (6.790036947502972e-10, 307, 1e-10, 27),
    (3.465978385977265e-10, 208, 1e-10, 23),
    (3.108190189048116e-09, 176, 1e-10, 30),
    (2.8461936377006465e-09, 158, 1e-12, 42),
    (3.224848960222234e-10, 512, 1e-10, 23),
    (7.833479142990612e-10, 184, 1e-10, 44),
    (2.3146186343554695e-10, 512, 1e-10, 89),
    (1.356044763524825e-09, 397, 1e-10, 60),
    (3.0991766560464725e-09, 231, 1e-10, 31),
    (3.400959531047862e-10, 512, 1e-10, 38),
    (2.223411814273317e-09, 512, 1e-10, 55),
    (6.776118855057819e-14, 512, 1e-10, 25),
    (6.590434809639466e-10, 311, 1e-10, 65),
    (9.82745662522465e-09, 198, 1e-10, 22),
    (1.7191395078199988e-09, 512, 1e-10, 44),
    (3.5959634894680185e-10, 269, 1e-10, 37),
    (2.33905960206601e-09, 305, 1e-10, 32),
    (1.4822994923504614e-09, 378, 1e-10, 66),
    (8.112795903533524e-09, 272, 1e-10, 36),
    (3.346171532129275e-10, 277, 1e-10, 44),
    (2.896513892819329e-10, 512, 1e-10, 36),
    (1.8281102523684464e-10, 512, 1e-10, 23),
    (2.6731251687610498e-11, 512, 1e-10, 51),
    (4.469444599653996e-09, 181, 1e-10, 29),
    (2.2269359452149935e-10, 512, 1e-12, 95),
    (3.7060121869187993e-10, 512, 1e-10, 34),
    (2.0885592688475486e-13, 512, 1e-10, 97),
    (1.5946111479510048e-10, 512, 1e-10, 32),
    (1.5775872566686582e-12, 512, 1e-10, 31),
    (2.8883158509989364e-10, 512, 1e-10, 38),
    (1.0594052835280873e-09, 204, 1e-10, 33),
    (1.3490912445810427e-11, 512, 1e-10, 18),
    (5.064039447132649e-10, 399, 1e-10, 60),
    (2.066401628459098e-10, 512, 1e-10, 252),
    (1.397317231442932e-12, 512, 1e-10, 50),
    (3.3919229026740794e-09, 246, 1e-10, 43),
    (1.4643356116816814e-09, 379, 1e-10, 76),
    (7.28129847043543e-11, 512, 1e-10, 31),
    (5.055572362517237e-10, 297, 1e-10, 59),
    (1.7593015706118805e-09, 334, 1e-10, 35),
    (8.060690211609949e-10, 512, 1e-10, 60),
    (1.6913004741749407e-11, 512, 1e-10, 48),
    (9.375959748881833e-10, 222, 1e-10, 32),
    (3.241691145164166e-10, 512, 1e-10, 28),
    (4.934999746586681e-13, 512, 1e-10, 38),
    (9.648087299911945e-10, 406, 1e-10, 23),
    (3.403579330415175e-12, 512, 1e-10, 84),
    (1.927678659459146e-12, 512, 1e-10, 103),
    (2.109304954984128e-12, 512, 1e-10, 49),
    (3.627364151687184e-10, 276, 1e-10, 24),
    (3.482354606647123e-10, 512, 1e-10, 29),
    (None, 0, 1e-10, 30),
    (5.656739169723263e-10, 291, 1e-10, 61),
    (6.308574063958655e-10, 254, 1e-10, 33),
    (3.037227932941462e-09, 492, 1e-10, 119),
    (4.310392107517722e-10, 512, 1e-10, 45),
    (1.0413672948636506e-09, 407, 1e-10, 36),
    (5.327310862431713e-10, 121, 1e-10, 26),
    (3.974444594785256e-09, 288, 1e-10, 43),
    (1.9840049814046654e-10, 512, 1e-10, 35),
    (5.033264167621642e-10, 512, 1e-10, 69),
    (8.878963077956142e-10, 332, 1e-10, 71),
    (2.012248640954078e-09, 81, 1e-10, 31),
    (4.905642206182738e-10, 359, 1e-10, 61),
    (2.8989928649772213e-11, 512, 1e-10, 17),
    (2.010333284374605e-10, 409, 1e-10, 41),
    (4.4568634827201396e-11, 512, 1e-10, 32),
    (4.59441363425548e-10, 512, 1e-10, 29),
    (1.888606520352994e-09, 336, 1e-10, 46),
]


def _half_theta_draws():
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(100):   # the theta = 1/4 trials draw first
        _conservation_draw(rng, Fraction(1, 4))
    return [_conservation_draw(rng, Fraction(1, 2)) for _ in range(100)]


def _assert_pinned(got):
    assert got == PINNED_HALF_THETA
    assert [i for i, row in enumerate(got) if row[2] != 1e-10] == [34, 55]
    assert [i for i, row in enumerate(got) if row[0] is None] == [82]
    assert max(r[0] for r in got if r[0] is not None) == pytest.approx(9.827e-9, rel=1e-3)


def test_conservation_trials_are_pinned():
    assert DEFAULT_SEED == 7
    got = []
    for wp, start in _half_theta_draws():
        traj = integrate(wp, start, tau_span=10.0, fi=build_first_integral(wp))
        got.append((traj.h_drift_max, traj.drift_samples, traj.rtol_used, len(traj.t)))
    _assert_pinned(got)


def test_pinned_trials_hold_through_the_lanes():
    wps, starts = zip(*_half_theta_draws())
    lanes = dict(integrate_many(wps, starts, 10.0,
                                fis=[build_first_integral(wp) for wp in wps]))
    assert sorted(lanes) == list(range(100))
    _assert_pinned([(traj.h_drift_max, traj.drift_samples, traj.rtol_used, len(traj.t))
                    for _i, traj in sorted(lanes.items())])


def _rtol_warnings(caught):
    """The rtol-clamp warnings among `caught`, scipy's and `_first_step`'s."""
    return sorted(str(w.message) for w in caught if "`rtol` is too small" in str(w.message))


def _assert_lanes_are_integrate(wps, starts, span, drift_limit=dop853.DRIFT_LIMIT,
                                retries=dop853.RETRIES):
    """Every lane of `integrate_many` against `integrate` on its own trial,
    both escaping at `dop853.ESCAPE_RADIUS` and retrying `retries` times
    over `drift_limit`: the same answers, runs, solver work and rtol-clamp
    warnings, bit for bit.  The lanes run three times, with their float
    tail (`dop853.FLOAT_TAIL`) at 0 (numpy lanes to the end), at its
    default and at the number of trials (every run on floats from its
    start).  Each pass must run, in trial order, the trials not yet
    settled, and every lane step must drop the stopped lanes exactly when
    fewer than half are running.  Returns the reference trajectories, the
    trials that went on to floats right after a rejected attempt at the
    default tail, the lanes' width after their last step at tail 0, and
    the number of rtol-clamp warnings on each side."""
    fis = [build_first_integral(wp) for wp in wps]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        refs = [integrate(wp, start, span, fi=fi, escape_radius=dop853.ESCAPE_RADIUS,
                          drift_limit=drift_limit, max_retries=retries)
                for wp, start, fi in zip(wps, starts, fis)]
    clamped = _rtol_warnings(caught)
    init, finish, default = dop853._Lanes.__init__, dop853._Lanes.finish_on_floats, \
        dop853.FLOAT_TAIL
    step = dop853._Lanes.step
    for tail in (0, default, len(wps)):
        lanes, passes, switched, widths = {}, [], [], []

        def recording_init(self, set_wps, *args):
            pending = sorted(set(range(len(wps))) - lanes.keys())
            assert len(set_wps) == len(pending)
            assert all(a is wps[i] for a, i in zip(set_wps, pending))
            passes.append(pending)
            init(self, set_wps, *args)

        def recording_finish(self, c):
            switched.append((passes[-1][self.trial[c]], bool(self.rejected[c])))
            return finish(self, c)

        def recording_step(self):
            width, running = len(self.running), int(np.count_nonzero(self.running))
            out = step(self)
            widths.append((width, running, len(self.running)))
            return out

        with pytest.MonkeyPatch.context() as m, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m.setattr(dop853, "FLOAT_TAIL", tail)
            m.setattr(dop853, "DRIFT_LIMIT", drift_limit)
            m.setattr(dop853, "RETRIES", retries)
            m.setattr(dop853._Lanes, "__init__", recording_init)
            m.setattr(dop853._Lanes, "finish_on_floats", recording_finish)
            m.setattr(dop853._Lanes, "step", recording_step)
            for i, traj in integrate_many(wps, starts, span, fis=fis):
                lanes[i] = traj
        assert _rtol_warnings(caught) == clamped, tail
        assert sorted(lanes) == list(range(len(wps)))
        assert len(passes) <= retries + 1
        for i, ref in enumerate(refs):
            lane = lanes[i]
            assert (lane.h_drift_max, lane.drift_samples, lane.rtol_used, lane.escaped,
                    lane.status, lane.nfev, lane.h0) == \
                (ref.h_drift_max, ref.drift_samples, ref.rtol_used, ref.escaped,
                 ref.status, ref.nfev, ref.h0), (tail, i)
            assert np.array_equal(lane.t, ref.t), (tail, i)
            assert np.array_equal(lane.states, ref.states), (tail, i)
            tg = np.linspace(ref.t[0], ref.t[-1], 512)
            assert np.array_equal(lane.at(tg), ref.at(tg)), (tail, i)
        for width, running, after in widths:
            assert after == (running if 2 * running < width else width), (tail, widths)
        if tail == 0:
            assert switched == []
            last_width = widths[-1][2]
        if tail >= len(wps):
            # every run, retries included, on floats from its start
            assert [i for i, _rejected in switched] == [i for pending in passes for i in pending]
            assert not any(rejected for _i, rejected in switched)
        if tail == default:
            after_rejection = [i for i, rejected in switched if rejected]
    return refs, after_rejection, last_width, len(clamped)


@pytest.mark.parametrize("seed", [7, 16])
def test_lanes_give_every_trial_what_integrate_gives(seed):
    # seed 7 retries seven trials and each retry ends under the limit; seed
    # 16 retries four, and keeps one retry still over the limit and two
    # first runs that drifted less than their retries.  At the default
    # float tail some trials go on to floats with their next attempt
    # already rejected once, a state the float stepper never starts from
    trials = _conservation_trials(np.random.default_rng(seed))
    _thetas, wps, starts = zip(*trials)
    refs, after_rejection, last_width, _clamped = _assert_lanes_are_integrate(
        wps, starts, 10.0)
    assert after_rejection == {7: [207, 245, 254, 299], 16: [58, 114]}[seed]
    # with no float tail the lanes drop their stopped columns as they go
    assert last_width < len(wps)
    over = [i for i, r in enumerate(refs) if r.h_drift_max is not None and r.h_drift_max > 1e-8]
    retried = [i for i, r in enumerate(refs) if r.rtol_used != 1e-10]
    assert 70 <= sum(r.escaped for r in refs) <= 90
    if seed == 7:
        assert (len(retried), over) == (7, [])
    else:
        assert (retried, over) == ([20, 212], [20, 169, 193])


def test_a_lane_ends_on_a_too_small_step(monkeypatch):
    # with no escape disc the orbit from (3, 1) runs off to infinity before
    # tau = 10, and its steps shrink below the spacing of the floats at t;
    # the lane beside it runs on to the end of the span
    monkeypatch.setattr(dop853, "ESCAPE_RADIUS", math.inf)
    wp = WaveParams(theta=Fraction(1, 4), C1=0.1, C2=0.3, C3=-1.0, K=0.2)
    refs, *_ = _assert_lanes_are_integrate([wp, wp], [(3.0, 1.0), (0.5, 0.2)], 10.0)
    assert [r.status for r in refs] == [orbits.DOP853.TOO_SMALL_STEP, "ok"]


def test_lanes_escape_from_the_circle_and_from_outside_it(monkeypatch):
    # a start exactly on the escape circle escapes at once, the root being
    # the first step's start; a start outside the disc escapes as it
    # re-enters
    monkeypatch.setattr(dop853, "ESCAPE_RADIUS", 5.0)
    wp = WaveParams(theta=Fraction(1, 4), C1=0.1, C2=0.3, C3=-1.0, K=0.2)
    (on, outside), *_ = _assert_lanes_are_integrate([wp, wp], [(3.0, 4.0), (0.0, 5.5)], 10.0)
    assert on.escaped and list(on.t) == [0.0, 0.0]
    assert outside.escaped and len(outside.t) == 3


def _quarter_theta_draws():
    """The first twelve theta = 1/4 trials of the check at seed 7."""
    rng = np.random.default_rng(DEFAULT_SEED)
    return zip(*(_conservation_draw(rng, Fraction(1, 4)) for _ in range(12)))


def test_a_trial_retries_in_the_next_pass():
    # retried over a drift of 3e-10, trials 0, 6, 8 and 10 run a second
    # pass, at rtol 1e-12
    wps, starts = _quarter_theta_draws()
    refs, *_ = _assert_lanes_are_integrate(wps, starts, 10.0, drift_limit=3e-10)
    assert refs[10].rtol_used == 1e-12


def test_a_trial_retries_in_a_third_pass():
    # retried twice over a drift of 3e-12, six trials end at rtol 1e-14,
    # which scipy's constructor and `_first_step` both clamp to 100 EPS
    # with one warning a run; the other six end at 1e-12
    wps, starts = _quarter_theta_draws()
    refs, _rejected, _width, clamped = _assert_lanes_are_integrate(
        wps, starts, 10.0, drift_limit=3e-12, retries=2)
    assert sorted(r.rtol_used for r in refs) == [1e-14] * 6 + [1e-12] * 6
    assert clamped == 6


_lane = st.tuples(
    st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-2.0, -0.2), st.floats(-1.0, 1.0),
    st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))


@given(st.lists(_lane, min_size=1, max_size=8), st.sampled_from([1e-3, 2.5, 10.0]))
@settings(max_examples=25, deadline=None)
def test_small_mixed_lane_sets_are_integrate(lanes, span):
    # starts out to |phi| = 4 escape within the span, and a span of 1e-3
    # is one step; as in the check, no start is next to the singular line
    assume(all(abs(float(theta) * start[0] - C1) >= 0.1
               for theta, C1, _C2, _C3, _K, start in lanes))
    wps = [WaveParams(theta=theta, C1=C1, C2=C2, C3=C3, K=K)
           for theta, C1, C2, C3, K, _start in lanes]
    _assert_lanes_are_integrate(wps, [start for *_c, start in lanes], span)


# a squared error sum: 0, subnormal, finite, inf or nan
_error_sum = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, math.inf, math.nan]),
                       st.floats(0.0, 1e-300), st.floats(0.0, allow_infinity=False))


@st.composite
def _controller_lane(draw):
    """(h_abs, err5, err3, rejected) for `_control`: any step length, or
    one that puts the error norm at 1 or next to it, or between the norms
    at which the factor reaches its bounds (where the power's last bit
    shows)."""
    err5, err3 = draw(_error_sum), draw(_error_sum)
    denom = (err5 + 0.01 * err3) * 2
    lengths = [draw(st.floats(0.0, 100.0))]
    if 0 < err5 < math.inf and 0 < denom < math.inf:
        unit = math.sqrt(denom) / err5   # h_abs * err5 / sqrt(denom) is about 1
        if unit < math.inf:
            lengths += [unit, math.nextafter(unit, 0.0), math.nextafter(unit, math.inf),
                        unit * draw(st.floats(1e-9, 2e5))]
    return draw(st.sampled_from(lengths)), err5, err3, draw(st.booleans())


@given(st.lists(_controller_lane(), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_lane_controller_is_the_float_controller(lanes):
    want = [dop853._control(*lane) for lane in lanes]
    with np.errstate(all="ignore"):   # as in `_Lanes.step`
        accepted, h_next = dop853._control_lanes(*(np.array(c) for c in zip(*lanes)))
    assert accepted.tolist() == [ok for ok, _h in want]
    assert h_next.tobytes() == np.array([h for _ok, h in want]).tobytes()


def test_lane_controller_at_norms_of_one_and_across_the_factors_range():
    # the lengths drawn around `unit` reach an error norm of exactly 1
    # (rejected) and norms a rounding either side of it; 2,000 norms spread
    # log-uniformly between the factor's bounds take the power at values
    # where numpy's power and C's pow part in the last bit, on some hosts
    err5, err3 = 2.0, 3.0
    unit = math.sqrt((err5 + 0.01 * err3) * 2) / err5
    lengths = [unit, math.nextafter(unit, 0.0), math.nextafter(unit, math.inf)]
    norms = sorted(h * err5 / math.sqrt((err5 + 0.01 * err3) * 2) for h in lengths)
    assert norms == [1 - dop853.EPS, 1.0, 1 + dop853.EPS]
    lengths += (unit * np.exp(np.random.default_rng(5).uniform(-20.0, 12.0, 2000))).tolist()
    for rejected in (False, True):
        lanes = [(h, err5, err3, rejected) for h in lengths]
        accepted, h_next = dop853._control_lanes(*(np.array(c) for c in zip(*lanes)))
        assert list(zip(accepted.tolist(), h_next.tolist())) == \
            [dop853._control(*lane) for lane in lanes]


def test_a_lane_drops_a_step_whose_start_is_the_escape_root():
    # solve_ivp drops a run's last step when the terminal event's root is
    # that step's start (its `donot_append` rule), and so does `_cut` on a
    # lane.  The escape disc ends a run on the step where g changes sign,
    # so here an event that vanishes at the last step's start stands in.
    wp = WaveParams(theta=Fraction(1, 4), C1=0.1, C2=0.3, C3=-1.0, K=0.2)
    runs = []
    for _ in range(2):
        lanes = dop853._Lanes([wp], [(0.5, 0.2)], 10.0, dop853.RTOL, dop853.ATOL)
        while len(lanes.steps[0]) < 3:
            assert lanes.step() == []
        runs.append(lanes)
    kept, cut = runs
    last_start = np.frombuffer(cut.steps[0][-2])[0]
    cut.escape = lambda t, _x: t - last_start
    ref, traj = kept._trajectory(0, False, False), cut._trajectory(0, True, False)
    assert traj.escaped and len(ref.t) == 4 and traj.t[-1] == last_start
    assert np.array_equal(traj.t, ref.t[:-1]) and np.array_equal(traj.states, ref.states[:-1])
    _ts, _t_old, h, _y_old, F = traj._segments
    assert len(h) == F.shape[-1] == len(traj.t) - 1
    for got, want in zip(traj._segments, ref._segments):
        assert np.array_equal(got, want[..., :-1])


def _check_solves(monkeypatch, method=None):
    """Every `_solve` Trajectory the 300 seed-7 conservation trials make,
    run as the check runs them.  With `method` given, solve_ivp steps with
    it in place of the package's stepper, on the same events."""
    solve_ivp, solve = orbits.solve_ivp, orbits._solve
    trajs = []

    def stepping_with_method(*args, **kwargs):
        return solve_ivp(*args, **{**kwargs, "method": method})

    def recording_solve(*args, **kwargs):
        out = solve(*args, **kwargs)
        trajs.append(out[0])
        return out

    with monkeypatch.context() as m:
        if method is not None:
            m.setattr(orbits, "solve_ivp", stepping_with_method)
        m.setattr(orbits, "_solve", recording_solve)
        rng = np.random.default_rng(DEFAULT_SEED)
        for theta in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            for _ in range(100):
                wp, start = _conservation_draw(rng, theta)
                integrate(wp, start, tau_span=10.0, fi=build_first_integral(wp))
    return trajs


def test_float_stepper_takes_scipys_steps(monkeypatch):
    # the float stepper is scipy's DOP853 up to the rounding of its sums:
    # the same steps, right-hand-side evaluations and endings on every
    # trial (retries included), and the same dense solution to 1e-8
    got = _check_solves(monkeypatch)
    ref = _check_solves(monkeypatch, method="DOP853")
    assert len(got) == len(ref) == 307
    for traj, ref_traj in zip(got, ref):
        assert (len(traj.t), traj.nfev, traj.escaped, traj.status) == \
            (len(ref_traj.t), ref_traj.nfev, ref_traj.escaped, ref_traj.status)
        if not ref_traj.escaped:
            tg = np.linspace(ref_traj.t[0], ref_traj.t[-1], 512)
            want = ref_traj.at(tg)
            assert np.all(np.abs(traj.at(tg) - want) <= 1e-8 * (1.0 + np.abs(want)))
