"""Command-line front end.

Subcommands: ber-curve, power-vs-dt, table1, constellation, loopback-check.
Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace

import numpy as np

from . import colorimetry, config as cfgmod, harness
from .errors import (
    CskError,
    InvalidConfig,
    InvalidParameter,
    InvalidTarget,
    UnsupportedOrder,
)


class UsageError(Exception):
    pass


def _add_link_flags(p: argparse.ArgumentParser) -> None:
    d = harness.ExperimentConfig  # the defaults shown in the help
    p.add_argument("--scheme", choices=[colorimetry.TLED, colorimetry.QLED],
                   help=f"CSK scheme (default {d.scheme})")
    p.add_argument("--order", type=int, help=f"modulation order M (default {d.order})")
    p.add_argument("--dt", type=float,
                   help=f"normalised delay spread D_rms/T_b (default {d.dt:g})")
    p.add_argument("--fde", choices=["on", "off"],
                   help="frequency-domain equalisation "
                        f"(default {'on' if d.fde else 'off'})")
    p.add_argument("--n", type=int, help=f"FDE block length N (default {d.n})")
    p.add_argument("--cp", type=int, help=f"cyclic prefix length L (default {d.cp})")
    p.add_argument("--rs", dest="symbol_rate", metavar="RS", type=float,
                   help=f"symbol rate in symbols/s (default {d.symbol_rate / 1e6:g}e6)")
    p.add_argument("--target-ber", type=float,
                   help=f"target BER (default {d.target_ber:g})")
    p.add_argument("--seed", type=int, help=f"master RNG seed (default {d.seed})")
    p.add_argument("--config", help="YAML configuration file; flags override it")
    p.add_argument("--out", help="output CSV path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    d = harness.ExperimentConfig
    parser = argparse.ArgumentParser(
        prog="cskfde",
        description="TLED/QLED colour-shift-keying link simulation with "
                    "cyclic-prefix block transmission and zero-forcing FDE "
                    f"over diffuse optical channels (defaults: N={d.n}, "
                    f"L={d.cp}, Rs={d.symbol_rate / 1e6:g}e6 symbols/s).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ber-curve", help="measure BER over an SNR grid")
    _add_link_flags(p)
    p.add_argument("--snr", type=float, action="append",
                   help="single SNR_o point in dB (repeatable)")
    p.add_argument("--snr-range", help="grid as lo:hi:step in dB, e.g. 10:20:1")

    p = sub.add_parser("power-vs-dt",
                       help="bisected power requirements over a Dt sweep")
    _add_link_flags(p)
    p.add_argument("--dt-list", help="comma-separated Dt values "
                                     "(default 0.01,0.05,0.1,0.2,0.5,1.0)")
    p.add_argument("--json", help="also write a JSON summary to this path")

    p = sub.add_parser("table1", help="power requirements for chosen entries")
    _add_link_flags(p)
    p.add_argument("--entries", required=True,
                   help="comma-separated scheme:order:dt:fde items, "
                        "e.g. qled:4:1.0:fde,tled:16:0.1:none")
    p.add_argument("--json", help="also write a JSON summary to this path")

    p = sub.add_parser("constellation", help="export a constellation as CSV")
    _add_link_flags(p)

    p = sub.add_parser("loopback-check",
                       help="noiseless end-to-end loopback bit check")
    _add_link_flags(p)
    p.add_argument("--bits", type=int, default=1_000_000,
                   help="number of bits to stream (default 1e6)")
    return parser


def _experiment_config(args):
    """The run's ExperimentConfig and the file mapping; set flags win."""
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = cfgmod.load_config(fh)
    fde = None if args.fde is None else args.fde == "on"
    return cfgmod.merge(file_cfg, {**vars(args), "fde": fde}), file_cfg


def _link(file_cfg, cfg):
    """The ``constellation`` and ``g_matrix`` arguments for ``cfg``'s link from
    the file's sections; an absent section is the builder's or the
    simulator's default."""
    scheme = cfg.scheme
    return {"constellation": colorimetry.build_constellation(
                scheme, cfg.order, cfgmod.sources_from_config(file_cfg, scheme),
                cfgmod.tled_tables_from_config(file_cfg)),
            "g_matrix": cfgmod.g_matrix_from_config(file_cfg, scheme)}


def _out(path):
    """``path`` opened for writing, or the current sys.stdout, left open."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _write_requirements(args, requirements) -> int:
    with _out(args.out) as fh:
        harness.write_requirements_csv(fh, requirements)
    if args.json:
        with _out(args.json) as fh:
            harness.write_requirements_json(fh, requirements)
    return 0


def _cmd_ber_curve(args) -> int:
    cfg, file_cfg = _experiment_config(args)
    grid = []
    if args.snr:
        if not np.isfinite(args.snr).all():
            raise UsageError("--snr needs finite values")
        grid.extend(args.snr)
    if args.snr_range:
        try:
            lo, hi, step = (float(v) for v in args.snr_range.split(":"))
        except ValueError:
            raise UsageError("--snr-range must be lo:hi:step")
        if not (np.isfinite([lo, hi, step]).all() and step > 0):
            raise UsageError("--snr-range needs finite lo and hi and a step > 0")
        grid.extend(np.arange(lo, hi + 1e-9, step).tolist())
    if not grid:
        raise UsageError("ber-curve needs --snr or --snr-range")
    curve = harness.run_ber_curve(cfg, sorted(grid), **_link(file_cfg, cfg))
    with _out(args.out) as fh:
        harness.write_curve_csv(fh, curve)
    return 0


def _parse_entries(text):
    """(scheme, order, dt, fde) per item; ExperimentConfig converts the rest."""
    entries = []
    for item in text.split(","):
        parts = item.strip().split(":")
        if len(parts) != 4 or parts[3] not in ("fde", "none"):
            raise UsageError(f"bad entry {item!r}; want scheme:order:dt:fde "
                             "with fde 'fde' or 'none'")
        entries.append((*parts[:3], parts[3] == "fde"))
    return entries


def _cmd_table1(args) -> int:
    cfg, file_cfg = _experiment_config(args)
    entry_cfgs = [replace(cfg, scheme=scheme, order=order, dt=dt, fde=fde)
                  for scheme, order, dt, fde in _parse_entries(args.entries)]
    requirements = [harness.find_power_requirement(c, **_link(file_cfg, c))
                    for c in entry_cfgs]
    return _write_requirements(args, requirements)


def _cmd_power_vs_dt(args) -> int:
    cfg, file_cfg = _experiment_config(args)
    if args.dt_list:
        try:
            dts = [float(v) for v in args.dt_list.split(",")]
        except ValueError:
            raise UsageError("--dt-list must be comma-separated numbers")
    else:
        dts = [0.01, 0.05, 0.1, 0.2, 0.5, 1.0]
    requirements = harness.sweep_dt(cfg, dts, **_link(file_cfg, cfg))
    return _write_requirements(args, requirements)


def _cmd_constellation(args) -> int:
    cfg, file_cfg = _experiment_config(args)
    constellation = _link(file_cfg, cfg)["constellation"]
    with _out(args.out) as fh:
        constellation.to_csv(fh)
    return 0


def _cmd_loopback_check(args) -> int:
    cfg, file_cfg = _experiment_config(args)
    sim = harness.LinkSimulator(cfg, **_link(file_cfg, cfg))
    errors, bits, _ = sim.run(0.0, args.bits, cfg.seed)
    print(f"loopback {cfg.scheme}-{cfg.order} dt={cfg.dt:g} "
          f"fde={'on' if cfg.fde else 'off'}: {errors} bit errors / {bits} bits")
    return 0 if errors == 0 else 1


_COMMANDS = {
    "ber-curve": _cmd_ber_curve,
    "power-vs-dt": _cmd_power_vs_dt,
    "table1": _cmd_table1,
    "constellation": _cmd_constellation,
    "loopback-check": _cmd_loopback_check,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except CskError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (UnsupportedOrder, InvalidTarget,
                                     InvalidConfig, InvalidParameter)) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
