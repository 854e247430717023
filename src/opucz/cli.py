"""Command-line front door.

Subcommands: basis, kernel, intensity, simulate, convergence,
variance-limit.  Long-form flags only.  Exit codes: 0 success, 2 usage
error, 1 computation error.  Numeric stdout uses 12 significant digits.
Flags may also come from a JSON config file via --config (explicit flags
win); every artifact-writing run echoes its fully resolved config into the
summary JSON so the file can be fed straight back to --config.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import ComputationError, UsageError
from .intensity import rho1_limit, rho1_n, rho2_limit, rho2_n
from .kernel import kernel_cd, kernel_direct
from .mc import coeff_model, convergence_study, run_ensemble
from .opuc import _parse_scalar, alpha_family, regularity_report
from .varlim import var_limit_closed, var_limit_quadrature, var_limit_series
from .zerocount import Region


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_c(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}j"


def parse_region(text: str) -> Region:
    """`annulus:<s>:<t>` or `sector:<r>:<alpha>:<beta>` (angles accept pi)."""
    parts = str(text).strip().split(":")
    if parts[0] == "annulus" and len(parts) == 3:
        return Region.annulus(_parse_scalar(parts[1], "annulus inner radius"),
                              _parse_scalar(parts[2], "annulus outer radius"))
    if parts[0] == "sector" and len(parts) == 4:
        return Region.sector(_parse_scalar(parts[1], "sector radial window"),
                             _parse_scalar(parts[2], "sector start angle"),
                             _parse_scalar(parts[3], "sector end angle"))
    raise UsageError(
        f"--region: {text!r} is not annulus:<s>:<t> or "
        "sector:<r>:<alpha>:<beta>")


def _parse_complex(text, flag: str) -> complex:
    if isinstance(text, (int, float, complex)):
        return complex(text)
    try:
        return complex(str(text).replace(" ", ""))
    except ValueError:
        raise UsageError(f"--{flag}: not a complex number: {text!r}") from None


def _integer(value, flag: str) -> int:
    """An integer flag value; from a config file also an integral float or a
    decimal string.  Anything else is a usage error naming --flag."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"--{flag}: not an integer: {value!r}")


def _real(value, flag: str) -> float:
    """A real flag value, or a usage error naming --flag."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"--{flag}: not a number: {value!r}") from None


def _need(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise UsageError(f"missing required flag --{key.replace('_', '-')}")
    return cfg[key]


def _threads(cfg: dict) -> int:
    env = os.environ.get("OPUCZ_THREADS")
    if env is not None:
        try:
            k = int(env)
        except ValueError:
            raise UsageError(f"OPUCZ_THREADS: not an integer: {env!r}") from None
    elif cfg.get("threads") is not None:
        k = _integer(cfg["threads"], "threads")
    else:
        k = os.cpu_count() or 1
    if k < 1:
        raise UsageError("thread count must be >= 1")
    return k


def _write_bytes(path: str, text: str) -> None:
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "basis": {"alphas": None, "n": None, "report": False},
    "kernel": {"alphas": None, "n": None, "z": None, "w": None, "route": "cd"},
    "intensity": {"alphas": None, "n": None, "z": None, "w": None,
                  "limit": False},
    "simulate": {"alphas": None, "n": None, "model": "gaussian",
                 "region": None, "trials": None, "seed": 0, "out": None,
                 "threads": None},
    "convergence": {"alphas": None, "model": "gaussian", "region": None,
                    "ns": None, "trials": None, "seed": 0, "out": None,
                    "threads": None},
    "variance-limit": {"s": None, "t": None, "method": "closed",
                       "tol": 1e-12, "target": 1e-8},
}


def _run_basis(cfg: dict) -> int:
    fam = alpha_family(str(_need(cfg, "alphas")))
    n = _integer(_need(cfg, "n"), "n")
    basis = fam.build(n)
    if cfg.get("report"):
        rep = regularity_report(basis)
        print("k,epsilon_k,nevai_proxy")
        for k in range(1, n + 1):
            print(f"{k},{_fmt(rep.epsilons[k - 1])},"
                  f"{_fmt(rep.nevai_proxy[k - 1])}")
    else:
        print(f"order {n}")
        print(f"kappa {_fmt(basis.kappas[-1])}")
    return 0


def _run_kernel(cfg: dict) -> int:
    fam = alpha_family(str(_need(cfg, "alphas")))
    n = _integer(_need(cfg, "n"), "n")
    z = _parse_complex(_need(cfg, "z"), "z")
    w = _parse_complex(_need(cfg, "w"), "w")
    route = str(cfg.get("route", "cd"))
    if route not in ("direct", "cd"):
        raise UsageError(f"--route: {route!r} is not direct or cd")
    basis = fam.build(n + 1)
    fn = kernel_direct if route == "direct" else kernel_cd
    k = fn(basis, z, w, n=n)
    print(f"K {_fmt_c(k.K)}")
    print(f"K01 {_fmt_c(k.K01)}")
    print(f"K11 {_fmt_c(k.K11)}")
    return 0


def _run_intensity(cfg: dict) -> int:
    z = _parse_complex(_need(cfg, "z"), "z")
    w = cfg.get("w")
    if cfg.get("limit"):
        if w is None:
            out = rho1_limit(z)
        else:
            out = rho2_limit(z, _parse_complex(w, "w"))
    else:
        fam = alpha_family(str(_need(cfg, "alphas")))
        n = _integer(_need(cfg, "n"), "n")
        basis = fam.build(n + 1)
        if w is None:
            out = rho1_n(basis, z, n=n)
        else:
            out = rho2_n(basis, z, _parse_complex(w, "w"), n=n)
    print(_fmt(out.value))
    return 0


def _counts_csv(stats) -> str:
    lines = ["trial,count"]
    for t, c in zip(stats.trial_indices, stats.counts):
        lines.append(f"{t},{c}")
    return "\n".join(lines) + "\n"


def _run_simulate(cfg: dict) -> int:
    t0 = time.perf_counter()
    alphas = str(_need(cfg, "alphas"))
    n = _integer(_need(cfg, "n"), "n")
    model_name = str(cfg.get("model", "gaussian"))
    region_text = str(_need(cfg, "region"))
    trials = _integer(_need(cfg, "trials"), "trials")
    seed = _integer(cfg.get("seed", 0), "seed")
    out = str(_need(cfg, "out"))
    workers = _threads(cfg)

    basis = alpha_family(alphas).build(n)
    stats = run_ensemble(basis, coeff_model(model_name),
                         parse_region(region_text), trials, seed,
                         workers=workers)
    elapsed = time.perf_counter() - t0

    resolved = {"alphas": alphas, "n": n, "model": model_name,
                "region": region_text, "trials": trials, "seed": seed,
                "out": out, "threads": workers}
    summary = {
        "command": "simulate", "config": resolved, "n": n, "trials": trials,
        "seed": seed, "region": region_text, "mean": stats.mean,
        "variance": stats.variance, "se_mean": stats.se_mean,
        "se_var": stats.se_var, "excluded": stats.excluded,
        "elapsed_seconds": elapsed,
    }
    _write_bytes(f"{out}.counts.csv", _counts_csv(stats))
    _write_bytes(f"{out}.summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"mean {_fmt(stats.mean)} variance {_fmt(stats.variance)} "
          f"se_mean {_fmt(stats.se_mean)} se_var {_fmt(stats.se_var)} "
          f"excluded {stats.excluded}")
    return 0


_SVG_COLORS = {"mean_abs_dev": "#1f77b4", "envelope_sqrtlogn": "#d62728",
               "envelope_eps14": "#2ca02c"}


def _convergence_svg(rows) -> str:
    """Self-contained 800x600 line chart: deviation and envelopes vs n."""
    width, height = 800, 600
    left, right, top, bottom = 80, 770, 40, 540
    ns = [r.n for r in rows]
    series = {name: [getattr(r, name) for r in rows] for name in _SVG_COLORS}
    ymax = max(max(v) for v in series.values()) * 1.1 or 1.0
    x0, x1 = min(ns), max(ns)
    span = (x1 - x0) or 1

    def px(n):
        return left + (n - x0) / span * (right - left)

    def py(v):
        return bottom - v / ymax * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        'stroke="black"/>',
        f'<text x="{(left + right) // 2}" y="{bottom + 40}" '
        'text-anchor="middle" font-size="16">degree n</text>',
        f'<text x="20" y="{(top + bottom) // 2}" font-size="16" '
        f'transform="rotate(-90 20 {(top + bottom) // 2})" '
        'text-anchor="middle">count deviation</text>',
    ]
    for n in ns:
        parts.append(f'<text x="{px(n):.1f}" y="{bottom + 20}" '
                     f'text-anchor="middle" font-size="12">{n}</text>')
    for frac in (0.0, 0.5, 1.0):
        v = ymax * frac
        parts.append(f'<text x="{left - 8}" y="{py(v) + 4:.1f}" '
                     f'text-anchor="end" font-size="12">{v:.3g}</text>')
    for i, (name, vals) in enumerate(series.items()):
        pts = " ".join(f"{px(n):.2f},{py(v):.2f}" for n, v in zip(ns, vals))
        color = _SVG_COLORS[name]
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        ly = top + 20 + 20 * i
        parts.append(f'<line x1="{right - 180}" y1="{ly}" x2="{right - 150}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{right - 142}" y="{ly + 4}" '
                     f'font-size="13">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _run_convergence(cfg: dict) -> int:
    t0 = time.perf_counter()
    alphas = str(_need(cfg, "alphas"))
    model_name = str(cfg.get("model", "gaussian"))
    region_text = str(_need(cfg, "region"))
    raw_ns = _need(cfg, "ns")
    if isinstance(raw_ns, str):
        raw_ns = [tok for tok in raw_ns.split(",") if tok.strip()]
    elif not isinstance(raw_ns, list):
        raw_ns = [raw_ns]
    ns = [_integer(v, "ns") for v in raw_ns]
    trials = _integer(_need(cfg, "trials"), "trials")
    seed = _integer(cfg.get("seed", 0), "seed")
    out = str(_need(cfg, "out"))
    workers = _threads(cfg)

    rows = convergence_study(alpha_family(alphas), coeff_model(model_name),
                             parse_region(region_text), ns, trials, seed,
                             workers=workers)
    elapsed = time.perf_counter() - t0

    header = "n,mean_abs_dev,var_over_n2,envelope_sqrtlogn,envelope_eps14"
    csv_lines = [header]
    for r in rows:
        csv_lines.append(
            f"{r.n},{_fmt(r.mean_abs_dev)},{_fmt(r.var_over_n2)},"
            f"{_fmt(r.envelope_sqrtlogn)},{_fmt(r.envelope_eps14)}")
    _write_bytes(f"{out}.csv", "\n".join(csv_lines) + "\n")
    _write_bytes(f"{out}.svg", _convergence_svg(rows))

    resolved = {"alphas": alphas, "model": model_name, "region": region_text,
                "ns": ns, "trials": trials, "seed": seed, "out": out,
                "threads": workers}
    summary = {
        "command": "convergence", "config": resolved, "trials": trials,
        "seed": seed, "region": region_text,
        "rows": [{"n": r.n, "mean_abs_dev": r.mean_abs_dev,
                  "var_over_n2": r.var_over_n2,
                  "envelope_sqrtlogn": r.envelope_sqrtlogn,
                  "envelope_eps14": r.envelope_eps14} for r in rows],
        "elapsed_seconds": elapsed,
    }
    _write_bytes(f"{out}.summary.json", json.dumps(summary, indent=2) + "\n")
    for line in csv_lines:
        print(line)
    return 0


def _run_variance_limit(cfg: dict) -> int:
    s = _real(_need(cfg, "s"), "s")
    t = _real(_need(cfg, "t"), "t")
    method = str(cfg.get("method", "closed"))
    if method == "closed":
        res = var_limit_closed(s, t)
    elif method == "series":
        tol = _real(cfg.get("tol", 1e-12), "tol")
        res = var_limit_series(s, t, tol=tol)
    elif method == "quadrature":
        target = _real(cfg.get("target", 1e-8), "target")
        res = var_limit_quadrature(s, t, target=target)
    else:
        raise UsageError(
            f"--method: {method!r} is not closed, series, or quadrature")
    print(_fmt(res.value))
    return 0


_RUNNERS = {
    "basis": _run_basis,
    "kernel": _run_kernel,
    "intensity": _run_intensity,
    "simulate": _run_simulate,
    "convergence": _run_convergence,
    "variance-limit": _run_variance_limit,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opucz",
        description="Zero statistics of random polynomial ensembles on "
                    "the unit circle")
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    p = sub.add_parser("basis", help="build a basis and report diagnostics")
    p.add_argument("--alphas", default=S)
    p.add_argument("--n", type=int, default=S)
    p.add_argument("--report", action="store_true", default=S)
    p.add_argument("--config", default=S)

    p = sub.add_parser("kernel", help="evaluate the reproducing kernel")
    p.add_argument("--alphas", default=S)
    p.add_argument("--n", type=int, default=S)
    p.add_argument("--z", default=S)
    p.add_argument("--w", default=S)
    p.add_argument("--route", default=S, choices=("direct", "cd"))
    p.add_argument("--config", default=S)

    p = sub.add_parser("intensity", help="one- or two-point zero intensity")
    p.add_argument("--alphas", default=S)
    p.add_argument("--n", type=int, default=S)
    p.add_argument("--z", default=S)
    p.add_argument("--w", default=S)
    p.add_argument("--limit", action="store_true", default=S)
    p.add_argument("--config", default=S)

    p = sub.add_parser("simulate", help="Monte Carlo zero-count ensemble")
    p.add_argument("--alphas", default=S)
    p.add_argument("--n", type=int, default=S)
    p.add_argument("--model", default=S)
    p.add_argument("--region", default=S)
    p.add_argument("--trials", type=int, default=S)
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--out", default=S)
    p.add_argument("--threads", type=int, default=S)
    p.add_argument("--config", default=S)

    p = sub.add_parser("convergence", help="deviation-vs-degree study")
    p.add_argument("--alphas", default=S)
    p.add_argument("--model", default=S)
    p.add_argument("--region", default=S)
    p.add_argument("--ns", default=S)
    p.add_argument("--trials", type=int, default=S)
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--out", default=S)
    p.add_argument("--threads", type=int, default=S)
    p.add_argument("--config", default=S)

    p = sub.add_parser("variance-limit", help="limiting count variance")
    p.add_argument("--s", type=float, default=S)
    p.add_argument("--t", type=float, default=S)
    p.add_argument("--method", default=S,
                   choices=("closed", "series", "quadrature"))
    p.add_argument("--tol", type=float, default=S)
    p.add_argument("--target", type=float, default=S)
    p.add_argument("--config", default=S)

    return parser


def _load_config(path: str, allowed) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise UsageError(f"--config: cannot read {path!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"--config: invalid JSON in {path!r}: {e}") from None
    if isinstance(data, dict) and isinstance(data.get("config"), dict):
        data = data["config"]  # accept a whole summary file
    if not isinstance(data, dict):
        raise UsageError(f"--config: {path!r} does not hold an object")
    return {k: v for k, v in data.items() if k in allowed}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    given = {k: v for k, v in vars(ns).items() if k != "command"}
    command = ns.command
    defaults = _DEFAULTS[command]
    try:
        conf_path = given.pop("config", None)
        file_cfg = _load_config(conf_path, set(defaults)) if conf_path else {}
        merged = {**defaults, **file_cfg, **given}
        return _RUNNERS[command](merged)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ComputationError as e:
        print(f"computation error ({type(e).__name__}): {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
