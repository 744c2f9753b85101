"""Command-line front end: scan, simulate, attack.

Settings come from three layers, later ones winning: built-in defaults,
a flat key=value config file (--config PATH, '#' starts a comment), and
per-key command-line overrides (--key value). Unknown keys are hard
errors in both the file and the command line.

Exit codes: 0 success, 1 configuration or usage error, 2 the simulated
run aborted on its QBER estimate.
"""

from __future__ import annotations

import argparse
import math
import sys

from .attacks import leakage_report
from .channel import transmittance
from .core import ParameterError, ProtocolConfig, SystemParams
from .keyrate import gain, qber
from .mcsim import run_protocol
from .optimize import scan_distances

CSV_HEADER = "L_km,e_d,mu_opt,gain,qber,rate,plob,repeaterless,dps_baseline"
ATTACK_HEADER = "mu,beta,internal_split,internal_general,external"


class ConfigError(ValueError):
    """Bad config file, bad value, or unknown key."""


# key -> (coercion kind, default); insertion order is the canonical
# serialization order for format_config. The channel and run defaults
# are those of SystemParams and ProtocolConfig.
_SYSTEM, _RUN = SystemParams(), ProtocolConfig()
_SCHEMA: dict[str, tuple[str, object]] = {
    "eta_d": ("float", _SYSTEM.detector_efficiency),
    "p_d": ("float", _SYSTEM.dark_count_rate),
    "alpha": ("float", _SYSTEM.attenuation),
    "f": ("float", _SYSTEM.ec_efficiency),
    "e_d_list": ("float_list", [0.02, 0.04, 0.052]),
    "mu": ("float", _RUN.intensity),
    "mu_list": ("float_list", [0.05, 0.1, 0.2]),
    "n_pairs": ("int", _RUN.n_pairs),
    "distance": ("float", _RUN.distance),
    "l_min": ("float", 0.0),
    "l_max": ("float", 700.0),
    "l_step": ("float", 10.0),
    "seed": ("int", _RUN.rng_seed),
    "test_fraction": ("float", _RUN.test_fraction),
    "qber_abort_threshold": ("float", 0.11),
    "grid_size": ("int", 64),
    "refine_iters": ("int", 60),
    "threads": ("int", 1),  # validated, no effect (see scan_distances)
    "output": ("str", None),
}


def default_settings() -> dict:
    """A fresh settings dict; its lists are copies, safe to edit."""
    return {key: list(default) if isinstance(default, list) else default
            for key, (_, default) in _SCHEMA.items()}


def _coerce(key: str, raw: str):
    kind = _SCHEMA[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "float_list":
            values = [float(tok) for tok in raw.split(",") if tok.strip()]
            if not values:
                if key == "e_d_list":
                    raise ConfigError("at least one e_d required")
                raise ValueError("empty list")
            return values
        return raw if raw else None
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key=value lines into coerced settings (no defaults applied)."""
    settings: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        settings[key] = _coerce(key, raw)
    return settings


def parse_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=path)


def format_config(settings: dict) -> str:
    """Serialize settings so that parsing the text reproduces them exactly."""
    lines = []
    for key in _SCHEMA:
        if key not in settings:
            continue
        value = settings[key]
        if value is None:
            continue
        if isinstance(value, list):
            rendered = ",".join(repr(v) for v in value)
        else:
            rendered = repr(value)
        lines.append(f"{key}={rendered}")
    return "\n".join(lines) + "\n"


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = default_settings()
    if args.config:
        settings.update(parse_config_file(args.config))
    for key in _SCHEMA:
        raw = getattr(args, key)
        if raw is not None:
            settings[key] = _coerce(key, raw)
    return settings


def _system_params(settings: dict) -> SystemParams:
    return SystemParams(
        detector_efficiency=settings["eta_d"],
        dark_count_rate=settings["p_d"],
        attenuation=settings["alpha"],
        ec_efficiency=settings["f"],
        misalignment=settings["e_d_list"][0],
    )


def _sci(value: float) -> str:
    return f"{value:.9e}"


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header: str, rows, output: str | None) -> None:
    _emit([header] + [",".join(_sci(v) for v in row) for row in rows],
          output)


def cmd_scan(settings: dict) -> int:
    """Write the rate-vs-distance CSV, rows sorted by e_d then distance."""
    params = _system_params(settings)
    step = settings["l_step"]
    if not 0.0 < step < math.inf:
        raise ParameterError(f"l_step={step!r} must be > 0 and finite")
    span = settings["l_max"] - settings["l_min"]
    if math.isfinite(span) and span / step == math.inf:
        raise ParameterError(f"l_step={step!r} is too small: "
                             "(l_max - l_min) / l_step overflows")
    result = scan_distances(
        settings["l_min"], settings["l_max"], step,
        params, settings["e_d_list"],
        grid_size=settings["grid_size"],
        refine_iters=settings["refine_iters"],
        threads=settings["threads"])
    _emit_csv(CSV_HEADER, (
        (pt.distance, e_d, pt.mu_opt, pt.gain, pt.qber, pt.rate,
         pt.plob, pt.repeaterless, pt.dps_baseline)
        for e_d in sorted(result) for pt in result[e_d]),
        settings["output"])
    return 0


def _zscore(empirical: float, expected: float, n: int) -> float:
    variance = expected * (1.0 - expected) / n if n > 0 else 0.0
    if variance <= 0.0:
        if empirical == expected:
            return 0.0
        return math.copysign(math.inf, empirical - expected)
    return (empirical - expected) / math.sqrt(variance)


def cmd_simulate(settings: dict) -> int:
    """Run one seeded simulation and compare it to the analytic model."""
    system = _system_params(settings)
    config = ProtocolConfig(
        intensity=settings["mu"],
        n_pairs=settings["n_pairs"],
        distance=settings["distance"],
        rng_seed=settings["seed"],
        test_fraction=settings["test_fraction"])
    report = run_protocol(system, config, settings["qber_abort_threshold"])
    eta = transmittance(config.distance, system)
    analytic_gain = gain(config.intensity, eta, system.dark_count_rate)
    analytic_qber = qber(config.intensity, eta, system.dark_count_rate,
                         system.misalignment)
    interior = 2 * config.n_pairs - 2
    lines = [
        f"# simulation seed={config.rng_seed} "
        f"L={config.distance} km mu={config.intensity}",
        f"n_pairs={report.n_pairs}",
        f"interior_slots={interior}",
        f"detected_slots={report.detected_slots}",
        f"empirical_gain={_sci(report.empirical_gain)}",
        f"analytic_gain={_sci(analytic_gain)}",
        f"gain_z={_sci(_zscore(report.empirical_gain, analytic_gain, interior))}",
        f"empirical_qber={_sci(report.empirical_qber)}",
        f"analytic_qber={_sci(analytic_qber)}",
        f"qber_z={_sci(_zscore(report.empirical_qber, analytic_qber, report.test_slots_consumed))}",
        f"test_slots_consumed={report.test_slots_consumed}",
        f"sifted_remaining={len(report.sifted)}",
        f"abort={'true' if report.abort else 'false'}",
    ]
    _emit(lines, settings["output"])
    return 2 if report.abort else 0


def cmd_attack(settings: dict) -> int:
    """Leakage table across the configured intensities at one distance."""
    params = _system_params(settings)
    rows = []
    for mu in settings["mu_list"]:
        rep = leakage_report(mu, settings["distance"], params)
        rows.append((mu, rep.beta, rep.internal_split_leakage,
                     rep.internal_general_leakage, rep.external_leakage))
    _emit_csv(ATTACK_HEADER, rows, settings["output"])
    return 0


_COMMANDS = {"scan": cmd_scan, "simulate": cmd_simulate,
             "attack": cmd_attack}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tfqss",
        description="Twin-field differential-phase-shift QSS tools",
        epilog="commands:\n" + "".join(
            f"  {name:<10}{handler.__doc__}\n"
            for name, handler in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value settings file")
    for key in _SCHEMA:
        parser.add_argument(f"--{key}", help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](_merge_settings(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
