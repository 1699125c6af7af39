"""Command-line front end.

Four subcommands, each reading one scenario file and writing CSV
artifacts into an output directory:

* ``contract``  build every subregion's menu (coverage, rewards,
  misreport matrix, hypothetical profits)
* ``match``     run the assignment (assignment, calibration log,
  stability certificate)
* ``verify``    certify analytic outputs against the brute-force oracles
* ``sweep``     re-run the pipeline across one numeric parameter

Exit codes: 0 success, 1 invalid input (a scenario that cannot be read,
parsed or validated, a bad option, or an output directory that cannot be
made), 2 verification failure, 3 unresolved calibration tie.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import OptionError, ScenarioError, UnresolvedTieError
from .pipeline import run_contract, run_match, run_sweep, run_verify, sweep_values
from .scenario import load_scenario, read_document

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_UNRESOLVED_TIE = 3


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits 1, the code of any bad option."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uavmarket",
        description="Contract design and stable assignment simulator for UAV task markets.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def with_io(sub: argparse.ArgumentParser) -> argparse.ArgumentParser:
        sub.add_argument("--scenario", required=True, help="scenario file (.scn JSON)")
        sub.add_argument("--out", required=True, help="output directory for CSV files")
        return sub

    with_io(commands.add_parser("contract", help="build contract menus"))
    with_io(commands.add_parser("match", help="run the UAV-subregion assignment"))
    verify = with_io(commands.add_parser("verify", help="run brute-force verification"))
    verify.add_argument("--grid-points", type=int, default=10001,
                        help="grid resolution of the coverage oracle")
    verify.add_argument("--seed", type=int, default=None,
                        help="seed for the randomized sweep (default: scenario seed)")
    sweep = with_io(commands.add_parser("sweep", help="sweep one numeric parameter"))
    sweep.add_argument("--param", required=True,
                       help="dotted path, e.g. economy.sigma or subregions.0.center.0")
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ScenarioError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    except UnresolvedTieError as exc:
        print(exc, file=sys.stderr)
        return EXIT_UNRESOLVED_TIE


def _dispatch(args: argparse.Namespace) -> int:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise OptionError("--out", f"cannot create directory {out}: {reason}") from exc

    if args.command == "sweep":
        raw = read_document(args.scenario)
        values = sweep_values(args.start, args.stop, args.steps)
        rows = run_sweep(raw, args.param, values, out / "sweep.csv")
        print(f"sweep: {len(values)} value(s) of {args.param}, {len(rows)} rows -> {out / 'sweep.csv'}")
        return EXIT_OK

    scenario = load_scenario(args.scenario)

    if args.command == "contract":
        report = run_contract(scenario, out)
        for sub_id, schedule in report.schedules.items():
            audit = schedule.audit
            print(
                f"contract[{sub_id}]: {len(schedule.ladder)} item(s), "
                f"ir_ok={audit.ir_ok} ic_ok={audit.ic_ok} monotone_ok={audit.monotone_ok}"
            )
        return EXIT_OK

    if args.command == "match":
        report = run_match(scenario, out)
        for uav in scenario.uavs:
            sub_id = report.match.assignment.get(uav.id, "UNMATCHED")
            print(f"match: {uav.id} -> {sub_id}")
        print(
            f"match: owner profit {report.owner_profit:.6g}, "
            f"{len(report.blocking_pairs)} blocking pair(s), "
            f"{len(report.match.calibration_log)} calibration event(s)"
        )
        return EXIT_OK

    report = run_verify(scenario, args.grid_points, seed=args.seed, out_dir=out)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name} (magnitude {check.magnitude:.3g}) {check.detail}")
    print(f"verify: seed {report.seed}, {'all checks passed' if report.ok else 'FAILURES present'}")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
