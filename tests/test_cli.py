"""End-to-end command-line behavior: exit codes, file artifacts, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rotheta
from rotheta.atlas import observation_plane, observe_wave_menu, sweep_singular_line
from rotheta.cli import _cell, _curve_rows, _fmt, main, render_portrait_artifacts
from rotheta.equilibria import SADDLE, census
from rotheta.params import WaveParams, derive_coriolis, derive_wave_params
from rotheta.svgfig import SvgFigure, _n
from rotheta.verification import T1_BASE, T3_BASE, check_atlas_agreement


D1 = ["--theta", "1/4", "--c1", "0.3", "--c2", "2", "--c3", "-1", "--k", "3"]
T3 = ["--theta", "1/2", "--c1", "0", "--c2", "0.9", "--c3", "-1", "--k", "-0.05"]


def test_params_direct_mode(capsys):
    assert main(["params"] + D1) == 0
    out = capsys.readouterr().out
    assert "theta = 1/4  (m = 1)" in out
    assert "C1 = 0.29999999999999999" in out      # 17 significant digits
    assert "singular line at phi = 1.2" in out
    assert "note:" in out


def test_params_physical_mode(capsys):
    assert main(["params", "--theta", "1/2", "--omega", "0", "--c", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "k = 1\n" in out                       # rotation-free limit
    assert "beta = 0.83333333333333337" in out
    assert "C1 = -0.5" in out
    assert "K = 0.90000000000000002" in out


def test_mode_conflicts_are_usage_errors(capsys):
    assert main(["params", "--theta", "1/4", "--omega", "0.5", "--c1", "1"]) == 2
    assert main(["params", "--theta", "1/4", "--c1", "1", "--c2", "1"]) == 2
    assert main(["params", "--c1", "1", "--c2", "1", "--c3", "1", "--k", "1"]) == 2
    assert main(["params", "--theta", "1/4", "--omega", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err


def test_nonfinite_coefficients_are_rejected(tmp_path, capsys):
    rest = ["--theta", "1/4", "--c2", "2", "--c3", "-1", "--k", "3"]
    assert main(["params", "--c1", "nan"] + rest) == 2
    assert main(["portrait", "--c1", "inf"] + rest + ["--out", str(tmp_path / "p")]) == 2
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert "singular line" not in captured.out
    assert captured.err.count("invalid parameters") == 2


def test_nonpositive_theta_and_underflowing_alpha_are_rejected(tmp_path, capsys):
    direct = ["--c1", "0.3", "--c2", "2", "--c3", "-1", "--k", "3"]
    out = ["--out", str(tmp_path / "p")]
    assert main(["params", "--theta=-1"] + direct) == 2
    assert main(["portrait", "--theta=-1/2"] + direct + out) == 2
    assert main(["portrait", "--theta", "1/4", "--omega", "1e200", "--c", "1"] + out) == 2
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.count("invalid parameters") == 3
    assert "Omega = 1e+200" in err


# lines too far out for floats: rounding in theta phi - C1 (theta = 1/3),
# a probe on the log line (1/2), f's Taylor shift overflowing (1/4), and
# past |C1/theta| = 1.3e154, where the census's scale of f(s) overflows
FAR_LINE_ARGS = [["--theta", "1/3", "--omega", "1.27264802", "--c", "1"],
                 ["--theta", "1/2", "--c1", "1e16", "--c2", "2", "--c3", "-1", "--k", "3"],
                 ["--theta", "1/4", "--c1", "1e80", "--c2", "2", "--c3", "-1", "--k", "3"],
                 ["--theta", "1/4", "--c1", "1e200", "--c2", "2", "--c3", "-1", "--k", "3"]]


@pytest.mark.parametrize("args", FAR_LINE_ARGS, ids=lambda a: " ".join(a[:4]))
def test_far_line_is_invalid_parameters(args, tmp_path, capsys):
    assert main(["params"] + args) == 2
    assert main(["portrait"] + args + ["--out", str(tmp_path / "p")]) == 2
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("invalid parameters: C1 = ") == 2


def test_far_line_sweep_is_invalid_parameters(capsys):
    assert main(["sweep", "--theta", "1/4", "--c1", "0", "--c2", "2", "--c3", "-1", "--k", "3",
                 "--c1-from", "1e200", "--c1-to", "-1e200", "--samples", "3"]) == 2
    assert "invalid parameters: C1 = 1e+200" in capsys.readouterr().err


def test_far_line_that_floats_hold_still_draws(tmp_path):
    args = ["--theta", "1/4", "--c1", "1e40", "--c2", "2", "--c3", "-1", "--k", "3"]
    assert main(["params"] + args) == 0
    assert main(["portrait"] + args + ["--out", str(tmp_path / "p")]) == 0


def test_portrait_writes_deterministic_artifacts(tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["portrait"] + D1 + ["--out", str(out)]) == 0
    svg = (tmp_path / "p.svg").read_bytes()
    csv = (tmp_path / "p.csv").read_bytes()
    assert svg.startswith(b"<svg")
    assert b"viewBox" in svg and b"polyline" in svg
    text = csv.decode()
    assert text.splitlines()[0] == "orbit_id,branch_id,kind,h,phi,y"
    assert ",separatrix," in text
    assert ",equilibrium/Saddle," in text
    assert ",singular-line," in text

    out2 = tmp_path / "q"
    assert main(["portrait"] + D1 + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert (tmp_path / "q.svg").read_bytes() == svg
    assert (tmp_path / "q.csv").read_bytes() == csv


@pytest.mark.parametrize("wp", [WaveParams(C1=0.3, **T1_BASE), WaveParams(C1=0.85, **T1_BASE),
                                WaveParams(Fraction(1, 2), 0.0, 0.9, -1.0, -0.05)],
                         ids=["arches", "loop", "reduced-point"])
def test_portrait_separatrices_are_the_observed_connections(wp):
    # one separatrix per connection the observer counts (arches, then the
    # loops that hit), each drawn from its saddle along the same ray; at the
    # reduced point both loops of the profile plane
    _obs, diag = observe_wave_menu(wp)
    counted = [(d["kind"], d["side"]) for d in diag
               if d["kind"] == "loop" or (d["kind"] == "arch" and d["tag"])]
    assert counted
    _svg, csv_text = render_portrait_artifacts(wp)
    starts = {}
    for row in csv_text.splitlines()[1:]:
        oid, _branch, kind, _h, phi, y = row.split(",")
        if kind == "separatrix":
            starts.setdefault(oid, (float(phi), float(y)))
    saddles = [e for e in census(wp).equilibria if e.kind == SADDLE]
    drawn = []
    for phi, y in starts.values():
        eq = min(saddles, key=lambda e: math.hypot(phi - e.phi, y - e.y))
        assert math.hypot(phi - eq.phi, y - eq.y) < 1e-6
        drawn.append(("arch" if eq.on_singular_line else "loop",
                      "left" if phi < eq.phi else "right"))
    assert drawn == counted


# curves as lists and as np.float64 arrays, with -0.0, a point drawn at
# x = -0.0004 (written 0.000), and values out to 1e-300 and 1e300
_CURVES = [
    ([0.0, -0.0, 1.0, 2.5], [-0.0, 0.25, 1.0, -1.0]),
    (np.array([-0.0, 0.1, 0.7, 3.0]), np.array([0.3, -0.0, -0.2, 1.0])),
    ([-48.0004 / 624 * 4], [0.0]),
    (np.array([1e-300, -1e-300, 1e300, -1e300]), np.array([1e300, 1e-300, -1e-300, 0.0])),
]


@pytest.mark.parametrize("xs, ys", _CURVES)
def test_portrait_curves_are_written_as_point_by_point(xs, ys):
    # the per-point formatting the array forms replace, kept as the reference
    fig = SvgFigure((0.0, 4.0), (-1.5, 1.5))
    fig.polyline(xs, ys, color="#123456", width=1.0)
    pts = " ".join(f"{_n(fig._tx(x))},{_n(fig._ty(y))}" for x, y in zip(xs, ys))
    assert fig.elements[-1] == (f'<polyline points="{pts}" fill="none" stroke="#123456" '
                                f'stroke-width="1.000"/>')
    for h in (0.5, np.float64(-0.0), None, 3):
        assert _curve_rows(2, 1, "level", h, xs, ys) == \
            [f"2,1,level,{_cell(h)},{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys)]


def test_a_point_just_left_of_the_frame_is_written_at_zero():
    fig = SvgFigure((0.0, 4.0), (-1.5, 1.5))
    x = _CURVES[2][0][0]
    assert -0.0005 < fig._tx(x) < 0.0
    fig.polyline([x], [0.0])
    assert fig.elements[-1].startswith('<polyline points="0.000,270.000"')


def test_portrait_with_vacant_level(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["portrait"] + D1 + ["--h", "1e6", "--out", str(out)]) == 0
    capsys.readouterr()
    text = (tmp_path / "v.csv").read_text()
    assert ",level," not in text                  # nothing at that height
    assert ",equilibrium/" in text
    assert ",singular-line," in text


def test_reduced_point_portrait_draws_its_planes_equilibria_and_no_line():
    # the profile plane's equilibria are g's roots and it has no line; its
    # portrait once drew the tau census's degenerate point at (0, 0) and the
    # singular line through it
    wp = WaveParams(C1=0.0, **T3_BASE)
    svg, csv_text = render_portrait_artifacts(wp)
    rows = [row.split(",") for row in csv_text.splitlines()[1:]]
    drawn = [(kind, phi, y) for _o, _b, kind, _h, phi, y in rows
             if kind.startswith("equilibrium/")]
    assert drawn == [(f"equilibrium/{e.kind}", _fmt(e.phi), _fmt(e.y))
                     for e in observation_plane(wp).equilibria]
    assert "equilibrium/Degenerate" not in {kind for kind, _phi, _y in drawn}
    assert not any(kind == "singular-line" for _o, _b, kind, *_rest in rows)
    assert "stroke-dasharray" not in svg
    # off the reduced point the tau plane keeps its line
    svg, csv_text = render_portrait_artifacts(WaveParams(C1=0.5, **T3_BASE))
    assert ",singular-line," in csv_text and "stroke-dasharray" in svg


def test_wave_from_config_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# closed-form regime\n"
        "theta = 1/2\n"
        "c1 = 0\nc2 = 0.9\nc3 = -1\nk = -0.05\n"
        "type = solitary\n"
        "format = csv\n"
        f"out = {tmp_path / 'w'}\n")
    # flag overrides the config's format
    assert main(["wave", "--config", str(cfg), "--format", "jsonl"]) == 0
    out = capsys.readouterr().out
    assert "solitary" in out
    assert "ODE residual" in out and "yes" in out
    path = tmp_path / "w.jsonl"
    assert path.exists() and not (tmp_path / "w.csv").exists()
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert recs and all(r["kind"] == "wave-profile" for r in recs)
    assert recs[0]["wave_kind"].startswith("solitary")
    assert recs[0]["residual"] <= 1e-8
    assert len(recs[0]["xi"]) == len(recs[0]["phi"]) == 401


def test_wave_explicit_level(tmp_path, capsys):
    out = tmp_path / "sn"
    assert main(["wave"] + T3 + ["--h", "0.03", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "sn-periodic-right" in stdout and "sn-periodic-left" in stdout
    lines = (tmp_path / "sn.csv").read_text().splitlines()
    assert lines[0] == "wave_id,kind,h,xi,phi"
    assert len(lines) == 1 + 2 * 401


def test_wave_jsonl_takes_each_residual_once(tmp_path, monkeypatch, capsys):
    # stdout and the JSONL record share one ODE residual per wave
    calls = []
    real = rotheta.cli.ode_residual

    def counted(sol, *args, **kwargs):
        calls.append(sol)
        return real(sol, *args, **kwargs)

    monkeypatch.setattr(rotheta.cli, "ode_residual", counted)
    out = tmp_path / "w"
    assert main(["wave"] + T3 + ["--format", "jsonl", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    recs = [json.loads(line) for line in (tmp_path / "w.jsonl").read_text().splitlines()]
    assert len(calls) == len(recs) == stdout.count("ODE residual") >= 2


def test_wave_level_flag_replaces_the_config_files_levels(tmp_path, capsys):
    # --h on the command line replaces the file's comma list, not appends to it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 1/2\nc1 = 0\nc2 = 0.9\nc3 = -1\nk = -0.05\n"
                   "h = 0.01,0.02\n")
    assert main(["wave", "--config", str(cfg), "--h", "0.03"]) == 0
    from_file = capsys.readouterr().out
    assert main(["wave"] + T3 + ["--h", "0.03"]) == 0
    assert from_file == capsys.readouterr().out
    assert "(h = 0.029999999999999999)" in from_file and "(h = 0.01)" not in from_file
    assert main(["wave", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    assert "(h = 0.01)" in stdout and "(h = 0.02)" in stdout


def test_wave_usage_errors(capsys):
    assert main(["wave"] + D1) == 2               # not the closed-form regime
    assert main(["wave"] + T3 + ["--h", "50"]) == 2   # vacant level
    err = capsys.readouterr().err
    assert "closed-form" in err
    # C3 = 0: P is a cubic; each level once failed inside the factorization
    # check, and wave reported that it found no profile
    assert main(["wave", "--theta", "1/2", "--c1", "0", "--c2", "0.9", "--c3", "0",
                 "--k", "-0.05"]) == 2
    assert "usage error: C3 = 0: the orbit polynomial P is a cubic" in capsys.readouterr().err


@pytest.mark.parametrize("command, params", [("portrait", D1), ("wave", T3)])
@pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
def test_a_level_that_is_not_finite_is_a_usage_error(tmp_path, capsys, command, params, level):
    # once: portrait exited 2 with the root finder's message at nan and drew
    # no curve at inf; wave found no closed-form profile at either
    with pytest.raises(SystemExit) as exc:
        main([command] + params + [f"--h={level}", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"argument --h: invalid finite value: '{level}'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"h = 0.03, {level}\nout = {tmp_path / 'x'}\n")
    assert main([command, "--config", str(cfg)] + params) == 2
    assert f"usage error: bad config value for h: '{level}'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_wave_takes_c1_within_rounding_of_zero(tmp_path, monkeypatch, capsys):
    # |C1| <= 1e-9 is the reduced point: same stdout and CSV as C1 = 0
    rest = ["--theta", "1/2", "--c2", "0.9", "--c3", "-1", "--k", "-0.05",
            "--type", "solitary", "--out", "w"]
    runs = {}
    for c1 in ("0", "1e-12"):
        run_dir = tmp_path / c1
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main(["wave", "--c1", c1] + rest) == 0
        runs[c1] = (capsys.readouterr().out, Path("w.csv").read_bytes())
    assert runs["1e-12"] == runs["0"]
    assert main(["wave", "--c1", "2e-9"] + rest) == 2
    assert "closed-form" in capsys.readouterr().err


def test_wave_finds_the_solitary_pair_at_zero_k(capsys):
    # K = 0: g's root at phi = 0 is the double root of P at h = 0, the
    # level of both homoclinic loops the observer counts there
    args = ["--theta", "1/2", "--c1", "0", "--c2", "0.9", "--c3", "-1", "--k", "0"]
    obs, _diag = observe_wave_menu(WaveParams(Fraction(1, 2), 0.0, 0.9, -1.0, 0.0))
    assert obs.solitary == 2
    assert main(["wave"] + args + ["--type", "solitary"]) == 0
    out = capsys.readouterr().out
    assert "wave 0: solitary-right  (h = 0)" in out
    assert "wave 1: solitary-left  (h = 0)" in out
    assert "wave 2:" not in out


@pytest.mark.parametrize("command, args, flag", [
    ("wave", ["--theta", "1/2", "--c1", "0", "--c2", "0.9", "--c3", "-1"], "--k"),
    ("wave", T3, "--h"),
    ("sweep", D1 + ["--c1-to", "-0.05", "--samples", "3"], "--c1-from"),
])
def test_a_negative_value_with_an_exponent_is_the_flags_value(tmp_path, monkeypatch, capsys,
                                                             command, args, flag):
    # argparse once read the `-1e-3` of `--k -1e-3` as an option and exited 2
    runs = []
    for form in ([flag, "-1e-3"], [f"{flag}=-1e-3"]):
        run_dir = tmp_path / str(len(runs))
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main([command] + args + form + ["--out", "w"]) == 0
        runs.append((capsys.readouterr().out, Path("w.csv").read_bytes()))
    assert runs[0] == runs[1]


def test_sweep_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "s"
    args = ["sweep"] + D1 + ["--c1-from", "0.75", "--c1-to", "0.05",
                             "--samples", "5", "--out", str(out)]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert "agreement: 1.0000 over 5 scored samples (>= 0.95: yes)" in stdout
    lines = (tmp_path / "s.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert len(header) == 15
    assert header[0] == "c1" and header[-1] == "agreement"
    assert len(lines) == 6
    assert all(row.split(",")[-1] == "true" for row in lines[1:])


def test_sweep_requires_range(capsys):
    assert main(["sweep"] + D1 + ["--samples", "5"]) == 2


def test_sweep_and_check_8_list_each_disagreement_as_the_sample_describes_it(
        monkeypatch, capsys):
    # theta = 1/2, Omega = 1.4, c = 1: every sample of this C3 > 0 stretch
    # disagrees with T2's smooth_any claim
    args = ["--theta", "1/2", "--omega", "1.4", "--c", "1",
            "--c1-from", "0.195", "--c1-to", "0.175", "--samples", "5"]
    assert main(["sweep"] + args) == 0
    stdout = capsys.readouterr().out
    rep = sweep_singular_line(derive_wave_params(derive_coriolis(1.4), 1.0, "1/2"),
                              (0.195, 0.175), 5)
    assert rep.disagreements() == rep.samples
    assert stdout.endswith("disagreements:\n"
                           + "".join(f"  {s.describe()}\n" for s in rep.samples))
    assert rep.samples[1].describe() == \
        "C1 = 0.19: T2/D4 [0 < 2C1 < phi1] observed pk=0 pp=0 sol=0 ps=0"
    monkeypatch.setattr(rotheta.verification, "sweep_singular_line", lambda *a: rep)
    ok, det = check_atlas_agreement()
    assert not ok
    assert [d for d in det if d.startswith("  ")] == \
        2 * [f"  disagreement at {s.describe()}" for s in rep.samples]


def _text(v):
    """A JSON value as the CSV writes its cell."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write_both(tmp_path, args):
    """The command's CSV rows (header first) and JSONL records."""
    for fmt in ("csv", "jsonl"):
        assert main(args + ["--format", fmt, "--out", str(tmp_path / "d")]) == 0
    rows = [line.split(",") for line in (tmp_path / "d.csv").read_text().splitlines()]
    recs = [json.loads(line) for line in (tmp_path / "d.jsonl").read_text().splitlines()]
    return rows, recs


@pytest.mark.parametrize("k", ["3", "1e-8"])
def test_sweep_csv_and_jsonl_carry_the_same_samples(tmp_path, capsys, k):
    # at K = 1e-8 every label is boundary: no predicted menu, empty pred_ cells
    args = ["sweep"] + D1[:-1] + [k, "--c1-from", "0.75", "--c1-to", "0.05", "--samples", "5"]
    (header, *rows), recs = _write_both(tmp_path, args)
    capsys.readouterr()
    assert len(rows) == len(recs) == 5
    assert all((r["predicted"] is None) == (k == "1e-8") for r in recs)
    for row, rec in zip(rows, recs):
        assert rec["kind"] == "sweep-sample"
        menus = {"pred_": rec["predicted"], "obs_": rec["observed"]}
        for prefix, menu in menus.items():
            if menu is not None:
                assert [f"{prefix}{n}" for n in menu] == [n for n in header
                                                          if n.startswith(prefix)]
        assert set(rec) == {"kind", "predicted", "observed"} | {
            n for n in header if not n.startswith(tuple(menus))}
        for name, cell in zip(header, row, strict=True):
            prefix = next((p for p in menus if name.startswith(p)), None)
            value = rec[name] if prefix is None else (menus[prefix] or {}).get(name[len(prefix):])
            assert cell == _text(value), name


def test_wave_csv_and_jsonl_carry_the_same_points(tmp_path, capsys):
    (header, *rows), recs = _write_both(tmp_path, ["wave"] + T3)
    capsys.readouterr()
    assert header == ["wave_id", "kind", "h", "xi", "phi"]
    assert len(recs) >= 2
    expected = [[str(r["wave_id"]), r["wave_kind"], _text(r["h"]), _text(u), _text(v)]
                for r in recs for u, v in zip(r["xi"], r["phi"], strict=True)]
    assert rows == expected


def test_verify_subset_is_deterministic(tmp_path, capsys):
    out = tmp_path / "report.txt"
    args = ["verify", "--only", "parameter-identities,elliptic-kernel",
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    stdout = capsys.readouterr().out
    assert "verification ledger (seed 7)" in stdout
    assert "[PASS] parameter-identities" in stdout
    assert "overall: PASS (2/2 checks)" in stdout
    assert main(args) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_verify_rejects_unknown_check(capsys):
    assert main(["verify", "--only", "no-such-check"]) == 2
    assert "unknown checks" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["elliptic-kernel", "equilibrium-census"])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, check):
    # once: elliptic-kernel passed and printed "verification ledger (seed -1)",
    # while equilibrium-census exited 2 from inside numpy's generator
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", check, "--seed", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --seed: invalid non_negative value: '-1'" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    assert main(["verify", "--only", check, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage error: bad config value for seed: '-1'" in err


@pytest.mark.parametrize("command, flags", [
    (["portrait"] + D1, ["--format", "jsonl"]),
    (["verify", "--only", "parameter-identities"], ["--theta", "1/3"]),
    (["params"] + D1, ["--seed", "1"]),
], ids=["portrait-format", "verify-theta", "params-out-seed"])
def test_a_flag_the_command_does_not_read_is_refused(tmp_path, capsys, command, flags):
    # params writes no file, so its --out is refused too
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(tmp_path / "x")] + flags)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


def test_config_file_validation(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("theta = 1/4\nfrobnicate = 1\n")
    assert main(["params", "--config", str(bad)] ) == 2
    assert "unknown config keys: frobnicate" in capsys.readouterr().err

    mangled = tmp_path / "mangled.cfg"
    mangled.write_text("just a line\n")
    assert main(["params", "--config", str(mangled)]) == 2
    assert "not key=value" in capsys.readouterr().err


def test_portrait_has_no_escape_radius(tmp_path, capsys):
    # the separatrix walks end where their levels end; no radius is taken
    with pytest.raises(SystemExit) as exc:
        main(["portrait"] + D1 + ["--escape-radius", "50", "--out", str(tmp_path / "p")])
    assert exc.value.code == 2
    assert "--escape-radius" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, line, message", [
    ("portrait", "format = xml", "bad config value for format: 'xml'"),
    ("wave", "type = bogus", "bad config value for type: 'bogus'"),
    ("sweep", "mode = fast", "unknown config keys: mode"),
    ("sweep", "eq_tol = 1e-9", "unknown config keys: eq_tol"),
    ("sweep", "escape_radius = 50", "unknown config keys: escape_radius"),
    # argparse destinations are not keys: only the flag names are
    ("wave", "fmt = jsonl", "unknown config keys: fmt"),
    ("wave", "wave_type = sn", "unknown config keys: wave_type"),
    ("sweep", "command = x", "unknown config keys: command"),
])
def test_config_file_values_are_checked(tmp_path, capsys, command, line, message):
    # a config value is held to the same choices as the flag it stands for
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 1/2\nc1 = 0\nc2 = 0.9\nc3 = -1\nk = -0.05\n"
                   "c1-from = 0.1\nc1-to = -0.1\nsamples = 3\n"
                   f"out = {tmp_path / 'o'}\n{line}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


# What the setuptools console-script wrapper does.  The entry point's
# "module:attr" value comes in as the first argument and is resolved the way
# an installer resolves it.
_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name="rotheta", value=sys.argv.pop(1),
                  group="console_scripts").load()
sys.argv[0] = "rotheta"
sys.exit(main())
"""


def _declared_entry_point():
    try:
        import tomllib
    except ModuleNotFoundError:                   # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["rotheta"]


def _run_entry_point(args):
    """Run the declared `rotheta` entry point in a fresh interpreter.

    The child imports the same `rotheta` package as this suite, whether that
    is the checkout's `src/` or an installed copy."""
    package_root = str(Path(rotheta.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-c", _WRAPPER, _declared_entry_point()] + args,
        capture_output=True, text=True, timeout=60, env=env)


def test_console_script_smoke():
    res = _run_entry_point(["params"] + D1)
    assert res.returncode == 0
    assert "singular line at phi = 1.2" in res.stdout

    # main's return value must become the process exit status
    res = _run_entry_point(["params", "--theta", "1/4", "--omega", "0.5",
                            "--c1", "1"])
    assert res.returncode == 2
    assert "usage error" in res.stderr


# each exited 1 with a traceback once: g's cubic formula overflowed, and the
# walk of a profile plane with no stop started from the missing line; the
# huge K once overflowed the formula to a NaN root, which the walk met
@pytest.mark.parametrize("args, code, message", [
    (["--theta", "1/4", "--c1", "0.3", "--c2", "2", "--c3=-1e-100", "--k", "3"], 2,
     "invalid parameters: the cubic formula for g's roots overflows at "
     "C2 = 2, C3 = -1e-100, K = 3: |C2/C3| is too large"),
    (["--theta", "1/2", "--c1", "0", "--c2", "1", "--c3", "0", "--k", "1", "--h", "0.5"], 0,
     ""),
    (["--theta", "1/4", "--c1", "0.3", "--c2", "2", "--c3", "-1", "--k", "1e300"], 2,
     "invalid parameters: the cubic formula for g's roots overflows at "
     "C2 = 2, C3 = -1, K = 1e+300: |K/C3| is too large"),
], ids=["overflowing-cubic", "rootless-profile-plane", "overflowing-cubic-q"])
def test_portrait_ends_with_a_documented_exit(tmp_path, args, code, message):
    res = _run_entry_point(["portrait"] + args + ["--out", str(tmp_path / "p")])
    assert res.returncode == code
    assert "Traceback" not in res.stderr and message in res.stderr
    assert (tmp_path / "p.csv").exists() == (code == 0)


@pytest.mark.skipif(shutil.which("rotheta") is None,
                    reason="no installed rotheta console script on PATH")
def test_installed_console_script():
    res = subprocess.run(["rotheta", "params"] + D1,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0
    assert "singular line at phi = 1.2" in res.stdout
