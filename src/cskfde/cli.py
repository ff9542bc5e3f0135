"""Command-line front end.

Subcommands: ber-curve, power-vs-dt, table1, constellation, loopback-check.
Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
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
    p.add_argument("--scheme", choices=[colorimetry.TLED, colorimetry.QLED],
                   help="CSK scheme (default qled)")
    p.add_argument("--order", type=int, help="modulation order M")
    p.add_argument("--dt", type=float, help="normalised delay spread D_rms/T_b")
    p.add_argument("--fde", choices=["on", "off"],
                   help="frequency-domain equalisation (default on)")
    p.add_argument("--n", type=int, help="FDE block length N (default 64)")
    p.add_argument("--cp", type=int, help="cyclic prefix length L (default 8)")
    p.add_argument("--rs", type=float, help="symbol rate in symbols/s (default 24e6)")
    p.add_argument("--target-ber", type=float, help="target BER (default 1e-6)")
    p.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    p.add_argument("--config", help="YAML configuration file; flags override it")
    p.add_argument("--out", help="output CSV path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cskfde",
        description="TLED/QLED colour-shift-keying link simulation with "
                    "cyclic-prefix block transmission and zero-forcing FDE "
                    "over diffuse optical channels (defaults: N=64, L=8, "
                    "Rs=24e6 symbols/s).")
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
    file_cfg = cfgmod.load_config(args.config) if args.config else {}
    merged = cfgmod.merge(file_cfg, {
        "scheme": args.scheme,
        "order": args.order,
        "dt": args.dt,
        "fde": None if args.fde is None else args.fde == "on",
        "n": args.n,
        "cp": args.cp,
        "symbol_rate": args.rs,
        "target_ber": args.target_ber,
        "seed": args.seed,
    })
    scheme = merged.get("scheme", colorimetry.QLED)
    order = int(merged.get("order", 4))
    cfg = harness.ExperimentConfig(
        scheme=scheme,
        order=order,
        dt=float(merged.get("dt", 0.0)),
        fde=bool(merged.get("fde", True)),
        n=int(merged["n"]),
        cp=int(merged["cp"]),
        symbol_rate=float(merged["symbol_rate"]),
        target_ber=float(merged["target_ber"]),
        min_bit_errors=int(merged["min_bit_errors"]),
        max_bits=int(merged["max_bits"]),
        seed=int(merged["seed"]),
        n_taps=int(merged["n_taps"]),
    )
    return cfg, file_cfg


def _link(file_cfg, scheme, order):
    """(constellation, G) for one scheme and order, from the file or defaults."""
    return (cfgmod.build_constellation_from_config(file_cfg, scheme, order),
            cfgmod.g_matrix_from_config(file_cfg, scheme))


def _write_or_stdout(path, writer):
    writer(path if path else sys.stdout)


def _cmd_ber_curve(args) -> int:
    cfg, file_cfg = _experiment_config(args)
    grid = []
    if args.snr:
        grid.extend(args.snr)
    if args.snr_range:
        try:
            lo, hi, step = (float(v) for v in args.snr_range.split(":"))
        except ValueError:
            raise UsageError("--snr-range must be lo:hi:step")
        grid.extend(np.arange(lo, hi + 1e-9, step).tolist())
    if not grid:
        raise UsageError("ber-curve needs --snr or --snr-range")
    constellation, g = _link(file_cfg, cfg.scheme, cfg.order)
    curve = harness.run_ber_curve(cfg, sorted(grid), constellation=constellation,
                                  g_matrix=g)
    _write_or_stdout(args.out, lambda p: harness.write_curve_csv(p, curve))
    return 0


def _parse_entries(text):
    entries = []
    for item in text.split(","):
        parts = item.strip().split(":")
        if len(parts) != 4:
            raise UsageError(f"bad entry {item!r}; want scheme:order:dt:fde")
        scheme, order, dt, fde = parts
        if scheme not in (colorimetry.TLED, colorimetry.QLED):
            raise UsageError(f"unknown scheme {scheme!r}")
        if fde not in ("fde", "none"):
            raise UsageError(f"fde field must be 'fde' or 'none', got {fde!r}")
        try:
            entries.append((scheme, int(order), float(dt), fde == "fde"))
        except ValueError:
            raise UsageError(f"bad entry {item!r}")
    return entries


def _cmd_table1(args) -> int:
    cfg, file_cfg = _experiment_config(args)
    requirements = []
    for scheme, order, dt, fde in _parse_entries(args.entries):
        entry_cfg = replace(cfg, scheme=scheme, order=order, dt=dt, fde=fde)
        constellation, g = _link(file_cfg, scheme, order)
        requirements.append(harness.find_power_requirement(
            entry_cfg, constellation=constellation, g_matrix=g))
    _write_or_stdout(args.out,
                     lambda p: harness.write_requirements_csv(p, requirements))
    if args.json:
        harness.write_requirements_json(args.json, requirements)
    return 0


def _cmd_power_vs_dt(args) -> int:
    cfg, file_cfg = _experiment_config(args)
    if args.dt_list:
        try:
            dts = [float(v) for v in args.dt_list.split(",")]
        except ValueError:
            raise UsageError("--dt-list must be comma-separated numbers")
    else:
        dts = [0.01, 0.05, 0.1, 0.2, 0.5, 1.0]
    constellation, g = _link(file_cfg, cfg.scheme, cfg.order)
    requirements = harness.sweep_dt(cfg, dts, constellation=constellation,
                                    g_matrix=g)
    _write_or_stdout(args.out,
                     lambda p: harness.write_requirements_csv(p, requirements))
    if args.json:
        harness.write_requirements_json(args.json, requirements)
    return 0


def _cmd_constellation(args) -> int:
    cfg, file_cfg = _experiment_config(args)
    constellation = cfgmod.build_constellation_from_config(
        file_cfg, cfg.scheme, cfg.order)
    _write_or_stdout(args.out, constellation.to_csv)
    return 0


def _cmd_loopback_check(args) -> int:
    cfg, file_cfg = _experiment_config(args)
    sim = harness.LinkSimulator(cfg, *_link(file_cfg, cfg.scheme, cfg.order))
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
