"""Batch verification driver.

Runs one or all suites, prints a pass/fail line per check, and writes
machine-readable reports.  Fixed seed and configuration give byte-identical
output files across runs; the process exit status is 0 exactly when every
check passed.  A suite that raises a numerical fault (see
`suites.SUITE_FAULTS`) becomes one failed record, the other suites still run
and the report is still written; bad configuration, refused before any suite
runs, and an unwritable report exit with status 2 and an `error:` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .report import emit_csv, emit_json, emit_profile_csv, report_payload
from .suites import SUITE_NAMES, SuiteConfig, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkforms",
        description="Run numerical verification suites and emit reports.")
    parser.add_argument("--suite", default=None,
                        choices=list(SUITE_NAMES) + ["all"],
                        help="which suite to run (default all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed for sampled checks (default 7)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory for reports (default: no files)")
    parser.add_argument("--format", choices=["json", "csv"], default=None,
                        help="report format (profiles are always CSV)")
    parser.add_argument("--tol-scale", type=float, default=None,
                        help="multiply all tolerances by this factor (default 1)")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file; command-line flags override it")
    parser.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    return parser


_CONFIG_TYPES = {"suite": str, "seed": int, "tol_scale": (int, float), "out": str, "format": str}
_CONFIG_DEFAULTS = {"suite": "all", "seed": 7, "tol_scale": 1.0, "out": None, "format": "json"}


def load_config(args: argparse.Namespace) -> tuple[str, SuiteConfig, Path | None, str]:
    """Merge flag over config file over default; a bad file or value raises ValueError."""
    file_cfg: dict = {}
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc.strerror}") from exc
        if not isinstance(file_cfg, dict) or not file_cfg.keys() <= _CONFIG_TYPES.keys():
            raise ValueError(f"config {args.config} must be a JSON object with keys "
                             f"among {sorted(_CONFIG_TYPES)}")
        for key, value in file_cfg.items():   # JSON true and false load as bool, an int
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key]):
                raise ValueError(f"config {args.config}: {key} has the wrong JSON type: {value!r}")
    flags = {key: value for key, value in vars(args).items()
             if key in _CONFIG_DEFAULTS and value is not None}
    cfg = {**_CONFIG_DEFAULTS, **file_cfg, **flags}
    out = None if cfg["out"] is None else Path(cfg["out"])
    fmt = cfg["format"]
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, not {fmt!r}")
    if out is not None and out.exists() and not out.is_dir():
        raise ValueError(f"output path {out} exists and is not a directory")
    return cfg["suite"], SuiteConfig(seed=cfg["seed"], tol_scale=cfg["tol_scale"]), out, fmt


def _write_outputs(out: Path, fmt: str, payload: dict, records, details: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    emit_json(payload, out / "report.json")
    if fmt == "csv":
        emit_csv(records, out / "report.csv")
    # plot-ready profile tables, one file per table
    def walk(prefix: str, node):
        if isinstance(node, dict):
            if node and all(isinstance(v, list) for v in node.values()):
                lengths = {len(v) for v in node.values()}
                if len(lengths) == 1 and lengths.pop() > 1 and prefix.endswith("profile"):
                    emit_profile_csv(node, out / f"{prefix}.csv")
                    return
            for key, sub in node.items():
                walk(f"{prefix}_{key}" if prefix else str(key), sub)

    walk("", details)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        suite, config, out, fmt = load_config(args)
        records, details = run_suite(suite, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for r in records:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.suite}/{r.check}: measured {r.measured:.6e} "
                  f"{'<=' if r.mode == 'le' else '=='} {r.expected:.6e}")
    passed = all(r.passed for r in records)
    payload = report_payload(records, suite=suite, seed=config.seed,
                             tol_scale=config.tol_scale, details=details)
    if out is not None:
        try:
            _write_outputs(out, fmt, payload, records, details)
        except OSError as exc:
            print(f"error: cannot write reports to {out}: {exc}", file=sys.stderr)
            return 2
    print(f"{suite}: {len(records)} checks, "
          f"{sum(1 for r in records if not r.passed)} failed")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
