"""Command-line front end: parameter reports, phase portraits, closed-form
wave profiles, singular-line sweeps, and the verification suite.

Determinism contract: output bytes depend only on the resolved configuration
(flags override config-file values, which override defaults) and the seed.
CSV/JSONL numbers carry 17 significant digits; SVG comes from the fixed
viewBox writer in svgfig.  Exit codes: 0 ok, 1 verification/runtime failure,
2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .atlas import (family_levels, level_branches, observation_plane, saddle_connections,
                    sweep_singular_line)
from .closedform import closed_form_menu, is_reduced_point, ode_residual, reduced
from .equilibria import census
from .field import SingularLineError, build_first_integral
from .orbits import level_branch
from .params import WaveParams, derive_coriolis, derive_wave_params, parse_theta
from .svgfig import SvgFigure, resample
from .verification import CHECKS, DEFAULT_SEED, render_report, run_checks

__all__ = ["RunConfig", "main", "render_portrait_artifacts"]


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    omega: float | None = None
    c: float | None = None
    theta: str | None = None
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    k: float | None = None
    h: tuple | None = None
    out: str | None = None
    fmt: str = "csv"
    wave_type: str | None = None
    c1_from: float | None = None
    c1_to: float | None = None
    samples: int = 200
    seed: int = DEFAULT_SEED
    only: tuple = ()


def _fmt(v) -> str:
    return f"{float(v):.17g}"


# allowed values of the choice-valued settings, for flags and config files
_CHOICES = {"fmt": ("csv", "jsonl"), "wave_type": ("cn", "sn", "solitary")}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rotheta",
        description="traveling-wave analysis of the rotation-modified "
                    "theta-family of shallow-water equations")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="FILE",
                       help="key=value lines; flags override file values")
        p.add_argument("--theta", help="exact ratio like 1/4, 1/2 or 1")
        p.add_argument("--omega", type=float,
                       help="rotation rate (physical mode, with --c)")
        p.add_argument("--c", type=float,
                       help="wave speed (physical mode, with --omega)")
        p.add_argument("--c1", type=float, help="direct-mode coefficient C1")
        p.add_argument("--c2", type=float, help="direct-mode coefficient C2")
        p.add_argument("--c3", type=float, help="direct-mode coefficient C3")
        p.add_argument("--k", type=float, help="direct-mode coefficient K")
        p.add_argument("--out", help="output path (extensions added per format)")
        p.add_argument("--format", dest="fmt", choices=_CHOICES["fmt"],
                       help="data file format (default csv)")
        p.add_argument("--seed", type=int, help="seed for randomized suites")

    p = sub.add_parser("params", help="echo derived parameters and the "
                                      "first-integral validity note")
    add_common(p)

    p = sub.add_parser("portrait", help="phase portrait as SVG + curve CSV")
    add_common(p)
    p.add_argument("--h", type=float, action="append",
                   help="level value (repeatable; default: levels inside each family)")

    p = sub.add_parser("wave", help="closed-form wave profiles with residuals")
    add_common(p)
    p.add_argument("--h", type=float, action="append",
                   help="level value (repeatable; default: stop and family levels)")
    p.add_argument("--type", dest="wave_type", choices=_CHOICES["wave_type"],
                   help="restrict to one profile family")

    p = sub.add_parser("sweep", help="move the singular line: classify and "
                                     "observe a C1 range")
    add_common(p)
    p.add_argument("--c1-from", type=float, dest="c1_from",
                   help="first C1 value (right end)")
    p.add_argument("--c1-to", type=float, dest="c1_to",
                   help="last C1 value (left end, smaller)")
    p.add_argument("--samples", type=int, help="sample count (default 200)")

    p = sub.add_parser("verify", help="run the named verification checks")
    add_common(p)
    p.add_argument("--only", help="comma-separated check names")
    return ap


_KEY_ALIASES = {"format": "fmt", "type": "wave_type"}
_FILE_KEYS = {v: k for k, v in _KEY_ALIASES.items()}


def _read_config_file(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line is not key=value: {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        out[_KEY_ALIASES.get(key, key)] = val.strip()
    return out


_FILE_COERCE = {
    "omega": float, "c": float, "c1": float, "c2": float, "c3": float,
    "k": float, "c1_from": float, "c1_to": float,
    "samples": int, "seed": int,
    "h": lambda s: tuple(float(x) for x in s.split(",") if x.strip()),
    "only": lambda s: tuple(x.strip() for x in s.split(",") if x.strip()),
}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = _read_config_file(args.config)

    cfg = RunConfig(command=args.command)
    for name in vars(cfg):
        if name == "command":
            continue
        flag = getattr(args, name, None)
        if name == "h" and flag is not None:
            flag = tuple(flag)
        if name == "only" and flag is not None:
            flag = tuple(x.strip() for x in flag.split(",") if x.strip())
        if flag is not None:
            setattr(cfg, name, flag)
        elif name in file_cfg:
            key = _FILE_KEYS.get(name, name)
            choices = _CHOICES.get(name)
            if choices is not None and file_cfg[name] not in choices:
                raise UsageError(f"bad config value for {key}: {file_cfg[name]!r} "
                                 f"(choose from {', '.join(choices)})")
            coerce = _FILE_COERCE.get(name, str)
            try:
                setattr(cfg, name, coerce(file_cfg[name]))
            except ValueError as exc:
                raise UsageError(f"bad config value for {key}: {exc}")
    unknown = set(file_cfg) - set(vars(cfg))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return cfg


def _resolve_params(cfg: RunConfig):
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
    if isinstance(v, Fraction):
        return json.dumps(str(v))
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json_token(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_json_token(x)}"
                              for k, x in v.items()) + "}"
    return json.dumps(str(v))


def _jsonl_line(record: dict) -> str:
    return _json_token(record) + "\n"


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


# ---------------------------------------------------------------------------
# params


def cmd_params(cfg: RunConfig) -> int:
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
    """Split a curve into runs of points inside the window (for drawing;
    the CSV keeps the full curve)."""
    inside = ((xs >= xlim[0]) & (xs <= xlim[1])
              & (ys >= ylim[0]) & (ys <= ylim[1]))
    runs = []
    start = None
    for i, ok in enumerate(inside):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(xs)))
    return [(xs[a:b], ys[a:b]) for a, b in runs if b - a >= 2]


def render_portrait_artifacts(wp: WaveParams, levels=None):
    """(svg_text, csv_text) of the phase portrait in the observer's plane
    (`observation_plane`).

    Level curves of the plane's first integral at the requested (default:
    family) levels, separatrices from the saddle connections, the
    singular line, and glyph-coded equilibria.  Fully deterministic.
    """
    cen = census(wp)
    plane = observation_plane(wp, cen)
    fi = plane.fi
    hs = sorted(set(levels or family_levels(plane, (0.25, 0.5, 0.75))))
    phis = [e.phi for e in cen.equilibria] + [float(wp.singular_line)]
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
                curves.append((oid, bid, "level", h, *resample(xs, ys, 400)))
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
                           *resample(*_separatrix_curve(conn), 400)))
            oid += 1

    # vertical extent: bounded structures only (escaping level branches are
    # clipped at drawing time, the CSV keeps them whole)
    y_ext = [abs(e.y) for e in cen.equilibria]
    y_ext += [float(np.max(np.abs(ys))) for o, b, kind, h, xs, ys in curves
              if kind == "separatrix"]
    y_ext += [float(np.max(np.abs(ys))) for o, b, kind, h, xs, ys in curves
              if kind == "level" and xs[0] == xs[-1]]
    ymax = 1.25 * max(y_ext, default=1.0) + 0.25
    xlim, ylim = window, (-ymax, ymax)

    s = float(wp.singular_line)
    title = (f"theta = {wp.theta}   C1 = {float(wp.C1):.6g}   "
             f"C2 = {float(wp.C2):.6g}   C3 = {float(wp.C3):.6g}   "
             f"K = {float(wp.K):.6g}")
    fig = SvgFigure(xlim, ylim, title=title)
    for _o, _b, kind, _h, xs, ys in curves:
        color, width = (("#d07a2a", 1.6) if kind == "separatrix"
                        else ("#2a6fb4", 1.0))
        for cx, cy in _clip_runs(xs, ys, xlim, ylim):
            fig.polyline(cx, cy, color=color, width=width)
    if xlim[0] < s < xlim[1]:
        fig.vline(s)
    for eq in cen.equilibria:
        if ylim[0] <= eq.y <= ylim[1]:
            fig.marker(eq.phi, eq.y, eq.kind)
    svg = fig.render()

    rows = ["orbit_id,branch_id,kind,h,phi,y"]
    for o, b, kind, h, xs, ys in curves:
        for x, y in zip(xs, ys):
            rows.append(f"{o},{b},{kind},{_cell(h)},{_fmt(x)},{_fmt(y)}")
    for i, eq in enumerate(cen.equilibria):
        h = _level_of(fi, eq.phi, eq.y)
        rows.append(f"{oid + i},0,equilibrium/{eq.kind},{_cell(h)},"
                    f"{_fmt(eq.phi)},{_fmt(eq.y)}")
    base = oid + len(cen.equilibria)
    for j, y in enumerate(ylim):
        rows.append(f"{base},{j},singular-line,,{_fmt(s)},{_fmt(y)}")
    return svg, "\n".join(rows) + "\n"


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


def cmd_portrait(cfg: RunConfig) -> int:
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


def cmd_wave(cfg: RunConfig) -> int:
    _cor, wp = _resolve_params(cfg)
    if not is_reduced_point(wp):
        raise UsageError("closed-form profiles require theta = 1/2 with |C1| <= 1e-9; "
                         "use `portrait` for other regimes")
    wp = reduced(wp)
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

    if cfg.out:
        base = Path(cfg.out)
        if cfg.fmt == "jsonl":
            recs = []
            for i, sol, res, xi, phi in profiles:
                recs.append(_jsonl_line({
                    "kind": "wave-profile", "wave_id": i,
                    "wave_kind": sol.kind, "h": sol.h,
                    "modulus_m": sol.modulus_m, "omega": sol.omega,
                    "period": sol.period, "residual": res,
                    "xi": xi, "phi": phi,
                }))
            _write_text(base.with_suffix(".jsonl"), "".join(recs))
            print(f"wrote {base.with_suffix('.jsonl')}")
        else:
            rows = ["wave_id,kind,h,xi,phi"]
            for i, sol, _res, xi, phi in profiles:
                for u, v in zip(xi, phi):
                    rows.append(f"{i},{sol.kind},{_fmt(sol.h)},{_fmt(u)},{_fmt(v)}")
            _write_text(base.with_suffix(".csv"), "\n".join(rows) + "\n")
            print(f"wrote {base.with_suffix('.csv')}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _menu_cells(menu) -> list:
    if menu is None:
        return [None] * 5
    return [menu.peakon, menu.periodic_peakon, menu.solitary,
            menu.periodic_smooth, menu.smooth_any]


def cmd_sweep(cfg: RunConfig) -> int:
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
            o = s.observed
            print(f"  C1 = {_fmt(s.c1)}: {s.label.theorem}/{s.label.domain} "
                  f"[{s.label.singular_line_position}] observed "
                  f"pk={o.peakon} pp={o.periodic_peakon} "
                  f"sol={o.solitary} ps={o.periodic_smooth}")

    if cfg.out:
        base = Path(cfg.out)
        if cfg.fmt == "jsonl":
            recs = []
            for s in rep.samples:
                o = s.observed
                recs.append(_jsonl_line({
                    "kind": "sweep-sample", "c1": s.c1,
                    "theorem": s.label.theorem, "domain": s.label.domain,
                    "line_position": s.label.singular_line_position,
                    "boundary": s.boundary,
                    "predicted": None if s.predicted is None else {
                        "peakon": s.predicted.peakon,
                        "periodic_peakon": s.predicted.periodic_peakon,
                        "solitary": s.predicted.solitary,
                        "periodic_smooth": s.predicted.periodic_smooth,
                        "smooth_any": s.predicted.smooth_any,
                    },
                    "observed": None if o is None else {
                        "peakon": o.peakon,
                        "periodic_peakon": o.periodic_peakon,
                        "solitary": o.solitary,
                        "periodic_smooth": o.periodic_smooth,
                    },
                    "agreement": s.agreement,
                }))
            _write_text(base.with_suffix(".jsonl"), "".join(recs))
            print(f"wrote {base.with_suffix('.jsonl')}")
        else:
            rows = ["c1,theorem,domain,line_position,boundary,"
                    "pred_peakon,pred_periodic_peakon,pred_solitary,"
                    "pred_periodic_smooth,pred_smooth_any,"
                    "obs_peakon,obs_periodic_peakon,obs_solitary,"
                    "obs_periodic_smooth,agreement"]
            for s in rep.samples:
                o = s.observed
                cells = [_fmt(s.c1), s.label.theorem, s.label.domain,
                         s.label.singular_line_position, s.boundary]
                cells += _menu_cells(s.predicted)
                cells += ([None] * 4 if o is None else
                          [o.peakon, o.periodic_peakon, o.solitary,
                           o.periodic_smooth])
                cells.append(s.agreement)
                rows.append(",".join(_cell(c) for c in cells))
            _write_text(base.with_suffix(".csv"), "\n".join(rows) + "\n")
            print(f"wrote {base.with_suffix('.csv')}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: RunConfig) -> int:
    names = set(cfg.only) if cfg.only else None
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


_DISPATCH = {
    "params": cmd_params,
    "portrait": cmd_portrait,
    "wave": cmd_wave,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _DISPATCH[cfg.command](cfg)
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
