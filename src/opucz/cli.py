"""Command-line front door.

Subcommands: basis, kernel, intensity, simulate, convergence,
variance-limit.  Long-form flags only.  Exit codes: 0 success, 2 usage
error, 1 computation error.  Numeric stdout uses 12 significant digits.

One table, `_COMMANDS`, gives each subcommand its runner, help text and an
ordered map {flag: (converter, default or _REQUIRED)}.  It alone builds the
parser, picks the keys of a JSON --config file, merges that file under the
explicit flags, and converts the merged values in one pass into the typed
dict the runner reads.  Every artifact-writing run echoes that dict as the
`config` of its summary JSON, so the file can be fed back to --config.

Each subcommand loads only the modules it runs.  This module imports the
ensemble code (mc, opuc, zerocount) at the top, since simulate and
convergence need it and the helpers they fork inherit it; kernel,
intensity and varlim are imported inside the runners that call them, so an
ensemble run and its helpers never load them.  The --route and --method
choices are plain names that those runners look up.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time

from .errors import ComputationError, UsageError
from .mc import coeff_model, convergence_study, run_ensemble
from .opuc import alpha_family, parse_scalar, regularity_report
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
        return Region.annulus(parse_scalar(parts[1], "annulus inner radius"),
                              parse_scalar(parts[2], "annulus outer radius"))
    if parts[0] == "sector" and len(parts) == 4:
        return Region.sector(parse_scalar(parts[1], "sector radial window"),
                             parse_scalar(parts[2], "sector start angle"),
                             parse_scalar(parts[3], "sector end angle"))
    raise UsageError(
        f"--region: {text!r} is not annulus:<s>:<t> or "
        "sector:<r>:<alpha>:<beta>")


def _integer(value) -> int:
    """An integer; from a config file also an integral float or a decimal
    string."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"not an integer: {value!r}")


def _real(value) -> float:
    """A finite real number; a JSON boolean is not one."""
    if not isinstance(value, bool):
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(x):
                return x
    raise ValueError(f"not a finite number: {value!r}")


def _complex(value) -> complex:
    """A finite complex number: a JSON number, or text such as 0.2 + 0.1j."""
    if not isinstance(value, bool):
        if not isinstance(value, (int, float)):
            value = str(value).replace(" ", "")
        try:
            z = complex(value)
        except (ValueError, OverflowError):
            pass
        else:
            if cmath.isfinite(z):
                return z
    raise ValueError(f"not a finite complex number: {value!r}")


def _switch(value) -> bool:
    """An on/off flag: given bare on the command line, or a JSON boolean."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"not a JSON boolean: {value!r}")


def _choice(*options: str):
    """A converter that accepts one of the names `options`."""
    def convert(value):
        if str(value) not in options:
            raise ValueError(f"{value!r} is not one of {', '.join(options)}")
        return str(value)
    convert.metavar = "{" + ",".join(options) + "}"
    return convert


def _degrees(value) -> list:
    """Comma-separated degrees, or a JSON list of them."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    elif not isinstance(value, list):
        value = [value]
    return [_integer(v) for v in value]


def _seed(value) -> int:
    """An integer in [0, 2^64), the range of a Philox key."""
    if 0 <= (k := _integer(value)) < 2 ** 64:
        return k
    raise ValueError(f"not in [0, 2^64): {k}")


def _out(value) -> str:
    """An artifact path prefix in a writable directory, checked before any
    trial runs."""
    folder = os.path.dirname(str(value)) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise ValueError(f"{value!r}: {folder!r} is not a writable directory")
    return str(value)


def _threads(value) -> int:
    """The worker count; the OPUCZ_THREADS environment variable wins."""
    env = os.environ.get("OPUCZ_THREADS")
    try:
        k = _integer(value if env is None else env)
        if k < 1:
            raise ValueError(f"thread count must be >= 1, got {k}")
    except ValueError as e:
        if env is None:
            raise
        raise UsageError(f"OPUCZ_THREADS: {e}") from None
    return k


def _run_basis(cfg: dict) -> int:
    n = cfg["n"]
    basis = alpha_family(cfg["alphas"]).build(n)
    if cfg["report"]:
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
    from . import kernel
    route = {"direct": kernel.kernel_direct, "cd": kernel.kernel_cd}
    n = cfg["n"]  # the closed form reads phi_{n+1}, the direct sums phi_n
    basis = alpha_family(cfg["alphas"]).build(n + 1 if cfg["route"] == "cd" else n)
    k = route[cfg["route"]](basis, cfg["z"], cfg["w"], n=n)
    for name in ("K", "K01", "K11"):
        print(f"{name} {_fmt_c(getattr(k, name))}")
    return 0


def _run_intensity(cfg: dict) -> int:
    from .intensity import rho1_limit, rho1_n, rho2_limit, rho2_n
    z, w, n = cfg["z"], cfg["w"], cfg["n"]
    if cfg["limit"]:
        out = rho1_limit(z) if w is None else rho2_limit(z, w)
    else:
        for flag in ("alphas", "n"):  # the finite-degree intensity needs both
            if cfg[flag] is None:
                raise UsageError(f"missing required flag --{flag}")
        basis = alpha_family(cfg["alphas"]).build(n)
        out = rho1_n(basis, z, n=n) if w is None else rho2_n(basis, z, w, n=n)
    print(_fmt(out.value))
    return 0


def _write_run(cfg: dict, command: str, t0: float, stats, files: dict,
               **results) -> None:
    """Write `<out><suffix>` for each of `files`, then `<out>.summary.json`
    (command, typed config, n/trials/seed/region, results, and under
    `timing` the seconds since t0 and how the run's EnsembleStats `stats`
    was solved: the processes that ran, their start method, and the blocks
    each claimed and its peak resident set size in MB, this process
    first)."""
    echoed = {k: cfg[k] for k in ("n", "trials", "seed", "region") if k in cfg}
    timing = {"elapsed_seconds": time.perf_counter() - t0,
              "processes": stats.processes,
              "start_method": stats.start_method,
              "blocks_claimed": list(stats.blocks_claimed),
              "peak_rss_mb": list(stats.peak_rss_mb)}
    summary = {"command": command, "config": cfg, **echoed, **results,
               "timing": timing}
    files[".summary.json"] = json.dumps(summary, indent=2) + "\n"
    for suffix, text in files.items():
        with open(cfg["out"] + suffix, "wb") as fh:
            fh.write(text.encode("utf-8"))


def _run_simulate(cfg: dict) -> int:
    t0 = time.perf_counter()
    stats = run_ensemble(alpha_family(cfg["alphas"]).build(cfg["n"]),
                         coeff_model(cfg["model"]), parse_region(cfg["region"]),
                         cfg["trials"], cfg["seed"], workers=cfg["threads"])
    counts = ["trial,count"] + [f"{t},{c}" for t, c in
                                zip(stats.trial_indices, stats.counts)]
    _write_run(cfg, "simulate", t0, stats,
               {".counts.csv": "\n".join(counts) + "\n"},
               mean=stats.mean, variance=stats.variance,
               se_mean=stats.se_mean, se_var=stats.se_var,
               excluded=stats.excluded,
               excluded_trials=list(stats.excluded_trials),
               exclusion_reasons=list(stats.exclusion_reasons),
               audited=stats.audited, audit_flagged=stats.audit_flagged,
               worst_residual=stats.worst_residual)
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


_CONVERGENCE_COLUMNS = ("n", "mean_abs_dev", "var_over_n2",
                        "envelope_sqrtlogn", "envelope_eps14")


def _run_convergence(cfg: dict) -> int:
    t0 = time.perf_counter()
    # read as a module global at call time, so a wrapper set on this module
    # sees the call
    rows = convergence_study(alpha_family(cfg["alphas"]),
                             coeff_model(cfg["model"]),
                             parse_region(cfg["region"]), cfg["ns"],
                             cfg["trials"], cfg["seed"], workers=cfg["threads"])
    csv_lines = [",".join(_CONVERGENCE_COLUMNS)] + [
        ",".join([str(r.n)] + [_fmt(getattr(r, c))
                               for c in _CONVERGENCE_COLUMNS[1:]])
        for r in rows]
    _write_run(cfg, "convergence", t0, rows[0].stats,
               {".csv": "\n".join(csv_lines) + "\n",
                ".svg": _convergence_svg(rows)},
               rows=[{c: getattr(r, c) for c in _CONVERGENCE_COLUMNS}
                     for r in rows])
    for line in csv_lines:
        print(line)
    return 0


def _run_variance_limit(cfg: dict) -> int:
    from . import varlim
    s, t, method = cfg["s"], cfg["t"], cfg["method"]
    if method == "closed":
        out = varlim.var_limit_closed(s, t)
    elif method == "series":
        out = varlim.var_limit_series(s, t, tol=cfg["tol"])
    else:
        out = varlim.var_limit_quadrature(s, t, target=cfg["target"])
    print(_fmt(out.value))
    return 0


_REQUIRED = object()  # the default of a flag that must be given

# simulate takes all but ns, convergence all but n
_ENSEMBLE = {"alphas": (str, _REQUIRED), "n": (_integer, _REQUIRED),
             "model": (str, "gaussian"), "region": (str, _REQUIRED),
             "ns": (_degrees, _REQUIRED), "trials": (_integer, _REQUIRED),
             "seed": (_seed, 0), "out": (_out, _REQUIRED),
             "threads": (_threads, os.cpu_count() or 1)}

_COMMANDS = {
    "basis": (_run_basis, "build a basis and report diagnostics", {
        "alphas": (str, _REQUIRED), "n": (_integer, _REQUIRED),
        "report": (_switch, False)}),
    "kernel": (_run_kernel, "evaluate the reproducing kernel", {
        "alphas": (str, _REQUIRED), "n": (_integer, _REQUIRED),
        "z": (_complex, _REQUIRED), "w": (_complex, _REQUIRED),
        "route": (_choice("direct", "cd"), "cd")}),
    "intensity": (_run_intensity, "one- or two-point zero intensity", {
        "alphas": (str, None), "n": (_integer, None),
        "z": (_complex, _REQUIRED), "w": (_complex, None),
        "limit": (_switch, False)}),
    "simulate": (_run_simulate, "Monte Carlo zero-count ensemble", {
        k: v for k, v in _ENSEMBLE.items() if k != "ns"}),
    "convergence": (_run_convergence, "deviation-vs-degree study", {
        k: v for k, v in _ENSEMBLE.items() if k != "n"}),
    "variance-limit": (_run_variance_limit,
                       "limiting count variance, complex Gaussian eta", {
        "s": (_real, _REQUIRED), "t": (_real, _REQUIRED),
        "method": (_choice("closed", "series", "quadrature"), "closed"),
        "tol": (_real, 1e-12), "target": (_real, 1e-8)}),
}


def _build_parser() -> argparse.ArgumentParser:
    """Every flag is a string, except a switch, which is `store_true`; flags
    not given are left out, so a config file can supply them."""
    parser = argparse.ArgumentParser(
        prog="opucz",
        description="Zero statistics of random polynomial ensembles on "
                    "the unit circle")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, (convert, _) in flags.items():
            kind = ({"action": "store_true"} if convert is _switch else
                    {"metavar": getattr(convert, "metavar", None)})
            p.add_argument(f"--{flag}", default=argparse.SUPPRESS, **kind)
        p.add_argument("--config", default=argparse.SUPPRESS)
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


def _convert(flags: dict, given: dict) -> dict:
    """The typed value of every flag, in table order.  An absent or null
    value takes the default; a converter's ValueError, or a missing required
    flag, is a usage error naming the flag."""
    typed = {}
    for flag, (convert, default) in flags.items():
        value = given.get(flag)
        if value is None:
            value = default
        if value is _REQUIRED:
            raise UsageError(f"missing required flag --{flag}")
        try:
            typed[flag] = None if value is None else convert(value)
        except ValueError as e:
            raise UsageError(f"--{flag}: {e}") from None
    return typed


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        given = vars(_build_parser().parse_args(argv))
    except SystemExit as e:
        return int(e.code or 0)
    run, _, flags = _COMMANDS[given.pop("command")]
    try:
        conf_path = given.pop("config", None)
        file_cfg = _load_config(conf_path, flags) if conf_path else {}
        return run(_convert(flags, {**file_cfg, **given}))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ComputationError as e:
        print(f"computation error ({type(e).__name__}): {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
