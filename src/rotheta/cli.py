"""Command-line front end: parameter reports, phase portraits, closed-form
wave profiles, singular-line sweeps, and the verification suite.

Each setting is an argparse flag, declared once in the flag groups the
commands pick from.  A `--config` file's `key = value` lines are read through
the same flags (keys with `-` or `_`, `h` a comma list), so a file value is
checked as its flag is; one file may hold the keys of several commands.

Determinism contract: output bytes depend only on the resolved settings
(flags override config-file values, which override defaults) and the seed.
CSV/JSONL numbers carry 17 significant digits; SVG comes from the fixed
viewBox writer in svgfig.  Exit codes: 0 ok, 1 verification/runtime failure,
2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .atlas import (ObservedMenu, WaveMenu, family_levels, level_branches, observation_plane,
                    saddle_connections, sweep_singular_line)
from .closedform import CUBIC_P, closed_form_menu, is_reduced_point, ode_residual, reduced
from .field import SingularLineError, build_first_integral
from .levels import level_branch
from .params import WaveParams, derive_coriolis, derive_wave_params, parse_theta
from .svgfig import SvgFigure, resample
from .verification import CHECKS, DEFAULT_SEED, render_report, run_checks

__all__ = ["main", "render_portrait_artifacts"]


class UsageError(Exception):
    pass


# argparse takes an argument for a negative number, not an option, only
# where it matches its pattern `^-\d+$|^-\d*\.\d+$`, which has no exponent:
# so `--k -1e-3` would read `-1e-3` as an option.  This pattern takes one.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def finite(text: str) -> float:
    """The type of a level value: a float that is finite."""
    if not math.isfinite(v := float(text)):
        raise ValueError(text)
    return v


def non_negative(text: str) -> int:
    """The type of a seed: an int that is not negative, as numpy's
    `default_rng` and its port in `pcg64` take."""
    if (v := int(text)) < 0:
        raise ValueError(text)
    return v


def _flag_groups(**parser_kw) -> dict:
    """The flag groups the commands pick from; each flag is declared here
    once, for the command line and the config file alike."""
    g = {name: argparse.ArgumentParser(add_help=False, **parser_kw)
         for name in ("params", "out", "fmt", "h", "wave", "sweep", "verify")}
    p = g["params"]
    p.add_argument("--theta", help="exact ratio like 1/4, 1/2 or 1")
    p.add_argument("--omega", type=float, help="rotation rate (physical mode, with --c)")
    p.add_argument("--c", type=float, help="wave speed (physical mode, with --omega)")
    p.add_argument("--c1", type=float, help="direct-mode coefficient C1")
    p.add_argument("--c2", type=float, help="direct-mode coefficient C2")
    p.add_argument("--c3", type=float, help="direct-mode coefficient C3")
    p.add_argument("--k", type=float, help="direct-mode coefficient K")
    g["out"].add_argument("--out", help="output path (extensions added per format)")
    g["fmt"].add_argument("--format", dest="fmt", choices=("csv", "jsonl"),
                          help="data file format (default csv)")
    g["h"].add_argument("--h", type=finite, action="append",
                        help="level value (repeatable; default: levels inside each "
                             "family, after the stop levels for wave)")
    g["wave"].add_argument("--type", dest="wave_type", choices=("cn", "sn", "solitary"),
                           help="restrict to one profile family")
    g["sweep"].add_argument("--c1-from", type=float, dest="c1_from",
                            help="first C1 value (right end)")
    g["sweep"].add_argument("--c1-to", type=float, dest="c1_to",
                            help="last C1 value (left end, smaller)")
    g["sweep"].add_argument("--samples", type=int, help="sample count (default 200)")
    g["verify"].add_argument("--seed", type=non_negative, help="seed for randomized suites")
    g["verify"].add_argument("--only", help="comma-separated check names")
    return g


def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser.  A flag that is not given stays out of
    its namespace, so it can be laid over the config file's settings."""
    ap = argparse.ArgumentParser(
        prog="rotheta",
        description="traveling-wave analysis of the rotation-modified "
                    "theta-family of shallow-water equations")
    sub = ap.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    config.add_argument("--config", metavar="FILE",
                        help="key=value lines; flags override file values")
    groups = _flag_groups(argument_default=argparse.SUPPRESS)
    for name, (help_text, picked, _handler) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[config] + [groups[g] for g in picked],
                                 help=help_text)
        command._negative_number_matcher = _NEGATIVE_NUMBER
    return ap


def _read_config(path) -> argparse.Namespace:
    """Every setting, from the defaults and the config file at `path`: each
    line `key = value` is read as `--key=value` by a parser that declares
    every command's flags."""
    argv = []
    for raw in Path(path).read_text().splitlines() if path else ():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line is not key=value: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        vals = [v.strip() for v in val.split(",") if v.strip()] if key == "h" else [val]
        argv += [f"--{key.replace('_', '-')}={v}" for v in vals]
    union = argparse.ArgumentParser(parents=list(_flag_groups().values()), add_help=False,
                                    allow_abbrev=False, exit_on_error=False)
    union.set_defaults(fmt="csv", samples=200, seed=DEFAULT_SEED)
    try:
        ns, unknown = union.parse_known_args(argv)
    except argparse.ArgumentError as exc:
        # argparse says "invalid choice: 'xml' (...)" or "invalid float value: 'x'"
        raise UsageError(f"bad config value for {exc.argument_name.lstrip('-')}: "
                         f"{exc.message.partition(': ')[2] or exc.message}")
    if unknown:
        keys = {a.split("=", 1)[0][2:].replace("-", "_") for a in unknown}
        raise UsageError(f"unknown config keys: {', '.join(sorted(keys))}")
    return ns


def _resolve_params(cfg: argparse.Namespace):
    """(CoriolisParams or None, WaveParams) from physical or direct mode."""
    physical = [cfg.omega is not None, cfg.c is not None]
    direct = [v is not None for v in (cfg.c1, cfg.c2, cfg.c3, cfg.k)]
    if any(physical) and any(direct):
        raise UsageError("physical mode (--omega/--c) and direct mode "
                         "(--c1 --c2 --c3 --k) are mutually exclusive")
    if cfg.theta is None:
        raise UsageError("--theta is required")
    if any(physical):
        if not all(physical):
            raise UsageError("physical mode needs both --omega and --c")
        cor = derive_coriolis(cfg.omega)
        return cor, derive_wave_params(cor, cfg.c, cfg.theta)
    if any(direct):
        if not all(direct):
            raise UsageError("direct mode needs all of --c1 --c2 --c3 --k")
        return None, WaveParams(theta=parse_theta(cfg.theta),
                                C1=cfg.c1, C2=cfg.c2, C3=cfg.c3, K=cfg.k)
    raise UsageError("give either --omega/--c or --c1 --c2 --c3 --k")


# ---------------------------------------------------------------------------
# serialization helpers


def _json_token(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}" if math.isfinite(v) else "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json_token(x) for x in v) + "]"
    # a dict, the one other type a record holds
    return "{" + ",".join(f"{json.dumps(k)}:{_json_token(x)}"
                          for k, x in v.items()) + "}"


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    return str(v)


def _write_data(cfg: argparse.Namespace, records, header, rows):
    """Write the `--out` data file, if asked for, as `--format` says: JSONL,
    a line per record, or CSV, the `header` then a line per row of cells.
    Only the chosen iterable is read, so the other can be a lazy generator."""
    if not cfg.out:
        return
    path = Path(cfg.out).with_suffix(f".{cfg.fmt}")
    if cfg.fmt == "jsonl":
        lines = [_json_token(r) for r in records]
    else:
        lines = [",".join(header)] + [",".join(_cell(c) for c in row) for row in rows]
    _write_text(path, "".join(line + "\n" for line in lines))
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# params


def cmd_params(cfg: argparse.Namespace) -> int:
    cor, wp = _resolve_params(cfg)
    lines = []
    if cor is not None:
        lines.append("coriolis:")
        for name in ("omega_rot", "k", "alpha", "beta0", "beta",
                     "omega1", "omega2"):
            lines.append(f"  {name} = {_fmt(getattr(cor, name))}")
    lines.append("wave:")
    lines.append(f"  theta = {wp.theta}  (m = {wp.m})")
    for name in ("C1", "C2", "C3", "K"):
        lines.append(f"  {name} = {_fmt(getattr(wp, name))}")
    lines.append(f"  singular line at phi = {_fmt(wp.singular_line)}")
    fi = build_first_integral(wp)
    lines.append(f"note: {fi.validity_note}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# portrait


def _clip_runs(xs, ys, xlim, ylim):
    """Split a curve into runs of at least two points inside the window
    (for drawing; the CSV keeps the full curve)."""
    inside = ((xs >= xlim[0]) & (xs <= xlim[1])
              & (ys >= ylim[0]) & (ys <= ylim[1]))
    # runs of consecutive points inside, as [start, stop) pairs
    edges = np.flatnonzero(np.diff(np.concatenate(([0], inside.astype(np.int8), [0]))))
    return [(xs[a:b], ys[a:b]) for a, b in zip(edges[::2], edges[1::2]) if b - a >= 2]


def render_portrait_artifacts(wp: WaveParams, levels=None):
    """(svg_text, csv_text) of the phase portrait in the observer's plane
    (`observation_plane`).

    Level curves of the plane's first integral at the requested (default:
    family) levels, separatrices from the saddle connections, and the
    plane's own line and glyph-coded equilibria: the profile plane of the
    reduced point has g's roots and no line.  Fully deterministic.
    """
    plane = observation_plane(wp)
    fi, line = plane.fi, plane.line
    hs = sorted(set(levels or family_levels(plane, (0.25, 0.5, 0.75))))
    # the line, or phi = 0 in a plane without one, stays in the window
    phis = [e.phi for e in plane.equilibria] + [0.0 if line is None else line]
    pad = 1.0 + 0.5 * (max(phis) - min(phis))
    window = (min(phis) - pad, max(phis) + pad)

    curves = []  # (orbit_id, branch_id, kind, h, xs, ys)
    oid = 0
    for h in hs:
        bid = 0
        for br in level_branches(plane, h, window):
            if br.closed:
                xs = np.concatenate([br.phi, br.phi[::-1]])
                ys = np.concatenate([br.y, -br.y[::-1]])
                curves.append((oid, bid, "level", h, *resample(xs, ys)))
                bid += 1
            else:
                # not resampled: a run climbing to the line takes all the arc length
                for sign in (1.0, -1.0):
                    curves.append((oid, bid, "level", h, br.phi, sign * br.y))
                    bid += 1
        if bid:
            oid += 1

    for conn in saddle_connections(plane):
        if conn.hit:
            curves.append((oid, 0, "separatrix", conn.h,
                           *resample(*_separatrix_curve(conn))))
            oid += 1

    # vertical extent: bounded structures only (escaping level branches are
    # clipped at drawing time, the CSV keeps them whole)
    y_ext = [abs(e.y) for e in plane.equilibria]
    y_ext += [float(np.max(np.abs(ys))) for o, b, kind, h, xs, ys in curves
              if kind == "separatrix"]
    y_ext += [float(np.max(np.abs(ys))) for o, b, kind, h, xs, ys in curves
              if kind == "level" and xs[0] == xs[-1]]
    ymax = 1.25 * max(y_ext, default=1.0) + 0.25
    xlim, ylim = window, (-ymax, ymax)

    title = (f"theta = {wp.theta}   C1 = {float(wp.C1):.6g}   "
             f"C2 = {float(wp.C2):.6g}   C3 = {float(wp.C3):.6g}   "
             f"K = {float(wp.K):.6g}")
    fig = SvgFigure(xlim, ylim, title=title)
    for _o, _b, kind, _h, xs, ys in curves:
        color, width = (("#d07a2a", 1.6) if kind == "separatrix"
                        else ("#2a6fb4", 1.0))
        for cx, cy in _clip_runs(xs, ys, xlim, ylim):
            fig.polyline(cx, cy, color=color, width=width)
    if line is not None and xlim[0] < line < xlim[1]:
        fig.vline(line)
    for eq in plane.equilibria:
        if ylim[0] <= eq.y <= ylim[1]:
            fig.marker(eq.phi, eq.y, eq.kind)
    svg = fig.render()

    rows = ["orbit_id,branch_id,kind,h,phi,y"]
    for curve in curves:
        rows += _curve_rows(*curve)
    for i, eq in enumerate(plane.equilibria):
        h = _level_of(fi, eq.phi, eq.y)
        rows.append(f"{oid + i},0,equilibrium/{eq.kind},{_cell(h)},"
                    f"{_fmt(eq.phi)},{_fmt(eq.y)}")
    if line is not None:
        base = oid + len(plane.equilibria)
        rows += [f"{base},{j},singular-line,,{_fmt(line)},{_fmt(y)}" for j, y in enumerate(ylim)]
    return svg, "\n".join(rows) + "\n"


def _curve_rows(o, b, kind, h, xs, ys):
    """A portrait curve's CSV rows: the curve's cells, then each point's phi
    and y as `_fmt` writes them, from floats taken for the whole curve at
    once."""
    prefix = f"{o},{b},{kind},{_cell(h)},"
    return [f"{prefix}{x:.17g},{y:.17g}" for x, y in
            zip(np.asarray(xs, dtype=float).tolist(), np.asarray(ys, dtype=float).tolist())]


def _separatrix_curve(conn):
    """The connection's level branch from 1e-8 (1 + |phi0|) off its saddle (so
    its side reads off it) out to the turning point, then along its mirror."""
    phi0 = conn.saddle.phi
    start = phi0 + np.sign(conn.phi_end - phi0) * 1e-8 * (1.0 + abs(phi0))
    br = level_branch(conn.y2, start, conn.phi_end, True)
    return np.concatenate([br.phi, br.phi[::-1]]), np.concatenate([br.y, -br.y[::-1]])


def _level_of(fi, phi, y):
    try:
        return float(fi.eval(phi, y))
    except SingularLineError:
        return None


def cmd_portrait(cfg: argparse.Namespace) -> int:
    _cor, wp = _resolve_params(cfg)
    svg, csv_text = render_portrait_artifacts(wp, levels=cfg.h)
    base = Path(cfg.out) if cfg.out else Path("portrait")
    svg_path, csv_path = base.with_suffix(".svg"), base.with_suffix(".csv")
    _write_text(svg_path, svg)
    _write_text(csv_path, csv_text)
    print(f"wrote {svg_path} and {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# wave


def cmd_wave(cfg: argparse.Namespace) -> int:
    _cor, wp = _resolve_params(cfg)
    if not is_reduced_point(wp):
        raise UsageError("closed-form profiles require theta = 1/2 with |C1| <= 1e-9; "
                         "use `portrait` for other regimes")
    wp = reduced(wp)
    if float(wp.C3) == 0.0:
        raise UsageError(CUBIC_P)
    if cfg.h:
        candidates = list(cfg.h)
        stop_at_first = False
    else:
        plane = observation_plane(wp)   # stop levels first: solitary double roots
        candidates = sorted({h for _phi, h in plane.stops}) + family_levels(plane, (0.5,))
        stop_at_first = cfg.wave_type is not None

    waves = []
    for h in candidates:
        try:
            menu = closed_form_menu(wp, h)
        except (ValueError, ArithmeticError):
            continue
        hits = [s for s in menu
                if cfg.wave_type is None or s.kind.startswith(cfg.wave_type)]
        waves.extend(hits)
        if hits and stop_at_first:
            break
    if not waves:
        raise UsageError("no closed-form profile found for the requested "
                         "type/levels")

    lines = []
    profiles = []  # (wave_id, sol, ODE residual, xi, phi)
    for i, sol in enumerate(waves):
        res = ode_residual(sol)
        lines.append(f"wave {i}: {sol.kind}  (h = {_fmt(sol.h)})")
        lines.append(f"  phi range [{_fmt(sol.phi_range[0])}, "
                     f"{_fmt(sol.phi_range[1])}]  omega = {_fmt(sol.omega)}")
        if sol.period is not None:
            lines.append(f"  m = {_fmt(sol.modulus_m)}  "
                         f"period = {_fmt(sol.period)}")
            half = 0.5 * sol.period
        else:
            half = 10.0 / sol.omega
            tail = float(sol(half))
            dbl = sol.roots[1]
            lines.append(f"  homoclinic: phi(+-inf) -> {_fmt(dbl)}  "
                         f"(at xi = {_fmt(half)}: off by {abs(tail - dbl):.3e})")
        lines.append(f"  ODE residual {res:.3e} (<= 1e-8: "
                     f"{'yes' if res <= 1e-8 else 'NO'})")
        lines.append(f"  {sol.detail}")
        xi = np.linspace(-half, half, 401)
        profiles.append((i, sol, res, xi, sol(xi)))
    print("\n".join(lines))

    _write_data(cfg,
                ({"kind": "wave-profile", "wave_id": i, "wave_kind": sol.kind, "h": sol.h,
                  "modulus_m": sol.modulus_m, "omega": sol.omega, "period": sol.period,
                  "residual": res, "xi": xi, "phi": phi}
                 for i, sol, res, xi, phi in profiles),
                ("wave_id", "kind", "h", "xi", "phi"),
                ((i, sol.kind, sol.h, u, v)
                 for i, sol, _res, xi, phi in profiles for u, v in zip(xi, phi)))
    return 0


# ---------------------------------------------------------------------------
# sweep


# the sweep's predicted and observed columns, in the menus' field order
_PREDICTED = tuple(f.name for f in fields(WaveMenu) if f.name != "note")
_OBSERVED = tuple(f.name for f in fields(ObservedMenu))


def cmd_sweep(cfg: argparse.Namespace) -> int:
    _cor, base_wp = _resolve_params(cfg)
    if cfg.c1_from is None or cfg.c1_to is None:
        raise UsageError("sweep needs --c1-from and --c1-to")
    rep = sweep_singular_line(base_wp, (cfg.c1_from, cfg.c1_to), cfg.samples)

    scored = sum(1 for s in rep.samples if s.agreement is not None)
    frac = rep.agreement_fraction
    print(f"sweep: {len(rep.samples)} samples, C1 from {_fmt(cfg.c1_from)} "
          f"to {_fmt(cfg.c1_to)}")
    print(f"boundary-excluded: {rep.n_boundary}")
    print(f"agreement: {frac:.4f} over {scored} scored samples "
          f"(>= 0.95: {'yes' if frac >= 0.95 else 'NO'})")
    bad = rep.disagreements()
    if bad:
        print("disagreements:")
        for s in bad:
            print("  " + s.describe())

    _write_data(cfg,
                ({"kind": "sweep-sample", "c1": s.c1, "theorem": s.label.theorem,
                  "domain": s.label.domain, "line_position": s.label.singular_line_position,
                  "boundary": s.boundary,
                  "predicted": None if s.predicted is None else {
                      n: getattr(s.predicted, n) for n in _PREDICTED},
                  "observed": {n: getattr(s.observed, n) for n in _OBSERVED},
                  "agreement": s.agreement}
                 for s in rep.samples),
                ("c1", "theorem", "domain", "line_position", "boundary",
                 *(f"pred_{n}" for n in _PREDICTED), *(f"obs_{n}" for n in _OBSERVED),
                 "agreement"),
                # a boundary label predicts no menu: its pred_ cells are empty
                ((s.c1, s.label.theorem, s.label.domain, s.label.singular_line_position,
                  s.boundary, *(getattr(s.predicted, n, None) for n in _PREDICTED),
                  *(getattr(s.observed, n) for n in _OBSERVED), s.agreement)
                 for s in rep.samples))
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: argparse.Namespace) -> int:
    names = {x.strip() for x in (cfg.only or "").split(",") if x.strip()} or None
    if names:
        unknown = names - {name for name, _fn, _b in CHECKS}
        if unknown:
            raise UsageError(f"unknown checks: {', '.join(sorted(unknown))}; "
                             f"known: {', '.join(n for n, _f, _b in CHECKS)}")
    results = run_checks(seed=cfg.seed, names=names)
    report = render_report(results, cfg.seed)
    sys.stdout.write(report)
    for r in results:  # timings are non-deterministic -> stderr only
        print(f"  {r.name}: {r.elapsed:.2f}s of {r.budget:.0f}s budget",
              file=sys.stderr)
    if cfg.out:
        _write_text(Path(cfg.out), report)
    return 0 if all(r.ok for r in results) else 1


# command: (help, the flag groups it reads besides --config, handler)
_COMMANDS = {
    "params": ("echo derived parameters and the first-integral validity note",
               ("params",), cmd_params),
    "portrait": ("phase portrait as SVG + curve CSV", ("params", "out", "h"), cmd_portrait),
    "wave": ("closed-form wave profiles with residuals",
             ("params", "out", "fmt", "h", "wave"), cmd_wave),
    "sweep": ("move the singular line: classify and observe a C1 range",
              ("params", "out", "fmt", "sweep"), cmd_sweep),
    "verify": ("run the named verification checks", ("out", "verify"), cmd_verify),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _read_config(getattr(args, "config", None))
        vars(cfg).update(vars(args))        # flags override file values
        return _COMMANDS[cfg.command][2](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
