"""Command-line front end: simulate, serve, sync, report, sizing, mission.

Exit codes: 0 success, 1 usage, 2 configuration, 3 simulation,
4 transport, 5 data/parse.  The ASID_LOG environment variable sets the
log level (debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import math
import os
import sys
from pathlib import Path

from . import airframe, config, firmware, flightsim, groundstation, mission, pipeline, \
    synclink, wxindices

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_TRANSPORT = 4
EXIT_DATA = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _configure_logging() -> None:
    level_name = os.environ.get("ASID_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str | None) -> config.RunConfig:
    return config.load(path) if path else config.default_run_config()


@contextlib.contextmanager
def _option_values(command: str, args, *options: str):
    """Refuse a non-finite named option of ``args``, and turn a ValueError the block
    raises on the values into a ConfigError naming ``command``: a bad option value
    is a configuration error, as in a ``simulate --config`` document."""
    try:
        for option in options:
            if not math.isfinite(getattr(args, option)):
                raise ValueError(f"--{option.replace('_', '-')} must be finite")
        yield
    except ValueError as exc:
        raise config.ConfigError(f"{command}: {exc}") from exc


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg, environment=dataclasses.replace(cfg.environment, rng_seed=args.seed))
    result = pipeline.simulate(cfg, args.out)
    print(f"wrote SD image to {args.out}: {result.ground_rows} ground rows, "
          f"{result.air_rows} air rows, server started: {result.server_started}")
    print(f"flight: {result.trajectory.duration:.1f} s, "
          f"peak {result.trajectory.max_altitude:.2f} m, "
          f"drift {result.trajectory.landing_offset:.1f} m")
    return EXIT_OK


def _cmd_serve(args) -> int:
    sd_dir = Path(args.sdcard)
    if not sd_dir.is_dir():
        raise config.ConfigError(f"{args.sdcard} is not a directory")
    sd = firmware.SdCardImage.from_dir(sd_dir)

    def on_ground_served() -> None:
        # the device deletes both logs after serving ground.csv
        for name in (firmware.AIR_LOG, firmware.GROUND_LOG):
            (sd_dir / name).unlink(missing_ok=True)

    server = synclink.LogServer(sd, host=args.host, port=args.port,
                                on_ground_served=on_ground_served)
    print(f"serving {args.sdcard} on {server.host}:{server.port} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return EXIT_OK


def _cmd_sync(args) -> int:
    result = synclink.sync(args.host, args.port, args.out)
    print(f"synced air.csv ({len(result.air)} bytes) and "
          f"ground.csv ({len(result.ground)} bytes) to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    air_path = in_dir / firmware.AIR_LOG
    ground_path = in_dir / firmware.GROUND_LOG
    if not ground_path.is_file():
        raise wxindices.ProfileError(f"missing {ground_path}")
    air = air_path.read_bytes() if air_path.is_file() else b""
    report, written = groundstation.write_report(air, ground_path.read_bytes(), args.out)
    print(f"wrote {len(written)} report files to {args.out}")
    print(groundstation.render_text_report(report), end="")
    return EXIT_OK


def _cmd_sizing(args) -> int:
    cfg = _load_config(args.config).airframe
    tw = airframe.thrust_to_weight(cfg)
    ceiling = airframe.service_ceiling(cfg)
    vmax = airframe.max_progressive_speed(cfg)
    winds = [airframe.beaufort_to_kmh(bft) for bft in range(9, 13)]
    with _option_values("sizing", args, "margin", "design_altitude", "avg_current",
                        "flight_minutes", "drift_duration"):
        if args.margin <= 0.0:
            raise ValueError("--margin must be positive")
        target = cfg.total_mass * args.margin
        required = airframe.required_static_thrust(target, args.design_altitude)
        endurance = airframe.endurance(cfg.battery, args.avg_current)
        flights = airframe.expected_flights(cfg.mtbf_hours, args.flight_minutes)
        drifts = [airframe.wind_drift(wind, vmax, args.drift_duration) for wind in winds]
    print(f"Thrust/weight (sea level)     : {tw:.2f}")
    print(f"Service ceiling               : {ceiling:.0f} m ({ceiling / 0.3048:.0f} ft)")
    print(f"Required static thrust        : {required:.0f} g total "
          f"({required / cfg.n_motors:.0f} g per motor) for "
          f"{target:.0f} g at {args.design_altitude:.0f} m")
    print(f"Max progressive speed         : {vmax:.1f} km/h")
    print(f"Battery max load              : {airframe.battery_max_load(cfg.battery):.0f} A")
    print(f"Endurance at {args.avg_current:.0f} A           : {endurance:.0f} s")
    print(f"Expected flights ({args.flight_minutes:.0f} min each): {flights}")
    print(f"Drift over {args.drift_duration:.0f} s flight:")
    for bft, wind, drift in zip(range(9, 13), winds, drifts):
        print(f"  Bft {bft:2d} ({wind:5.1f} km/h)        : {drift:.0f} m")
    return EXIT_OK


def _cmd_mission_gen(args) -> int:
    with _option_values("mission gen", args):  # MissionParams checks the values
        headings = tuple(float(h) for h in args.headings.split(",")) if args.headings else \
            mission.DEFAULT_HEADINGS
        plan = mission.generate_sounding_profile(mission.MissionParams(
            target_alt=args.target, start_alt=args.start, step=args.step,
            headings=headings, capture_dwell=args.dwell))
    text = mission.serialize(plan)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(plan.commands)} commands to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_mission_validate(args) -> int:
    with _option_values("mission validate", args, "ceiling"):
        if args.ceiling < 0.0:
            raise ValueError("--ceiling must be non-negative")
    try:
        plan = mission.parse(Path(args.file).read_text(encoding="utf-8"))
    except OSError as exc:
        raise wxindices.ProfileError(f"cannot read mission file: {exc}") from exc
    violations = mission.validate(plan, ceiling=args.ceiling)
    if violations:
        for violation in violations:
            print(f"violation: {violation}")
        return EXIT_DATA
    print(f"mission ok: {len(plan.commands)} commands, "
          f"max altitude {plan.max_altitude:g} m")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="asid", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the full flight + logger pipeline")
    p.add_argument("--config", help="JSON run configuration (defaults apply if omitted)")
    p.add_argument("--out", required=True, help="output directory for the SD image")
    p.add_argument("--seed", type=int, help="override the environment RNG seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("serve", help="serve an SD image directory over HTTP")
    p.add_argument("--sdcard", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("sync", help="fetch air.csv then ground.csv from a server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sync)

    p = sub.add_parser("report", help="build the weather report from synced logs")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("sizing", help="print the airframe performance summary")
    p.add_argument("--config")
    p.add_argument("--margin", type=float, default=1.5,
                   help="thrust/weight target at the design altitude")
    p.add_argument("--design-altitude", type=float, default=6096.0)
    p.add_argument("--avg-current", type=float, default=20.0)
    p.add_argument("--flight-minutes", type=float, default=10.0)
    p.add_argument("--drift-duration", type=float, default=180.0)
    p.set_defaults(func=_cmd_sizing)

    p = sub.add_parser("mission", help="generate or validate mission files")
    mission_sub = p.add_subparsers(dest="mission_command", required=True)
    g = mission_sub.add_parser("gen", help="generate a sounding profile")
    g.add_argument("--target", type=float, required=True)
    g.add_argument("--start", type=float, default=mission.MissionParams.start_alt)
    g.add_argument("--step", type=float, default=mission.MissionParams.step)
    g.add_argument("--headings", help="comma-separated headings in degrees")
    g.add_argument("--dwell", type=float, default=mission.MissionParams.capture_dwell)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_mission_gen)
    v = mission_sub.add_parser("validate", help="validate a mission file")
    v.add_argument("--file", required=True)
    v.add_argument("--ceiling", type=float, default=6096.0)
    v.set_defaults(func=_cmd_mission_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except config.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (mission.MissionValidationError, flightsim.BatteryExhaustedError,
            airframe.NoCeilingError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (synclink.TransportError, ConnectionError) as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (synclink.ProtocolError, wxindices.LogParseError, wxindices.ProfileError,
            mission.MissionParseError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RuntimeError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
