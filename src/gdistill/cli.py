"""Command-line front end.

Subcommands: validate, pipeline, random, fuzz, standard-form, symmetrize,
concentrate.  State files are JSON (see statefile module).  All randomized
commands are deterministic for fixed flags: identical invocations produce
identical bytes on stdout.  Every verdict uses the fixed rounding band
max(TOL_VERDICT = 1e-9, dim * machine eps * max|gamma|), worked out from the
state.  When the environment variable GDISTILL_TOL is set, to
any value, every command exits 1 and names it on stderr instead of running
with a tolerance the user did not ask for.  The library decides every
refusal of an input: a ValueError it raises (a bad state file, a one-sided
partition, a partition other than 1x1 for standard-form or symmetrize,
--r-max out of range, a negative seed) is printed as one stderr line and
exits 1.

Exit codes:
    0  success (validate: physical; pipeline: DISTILLABLE)
    1  file/schema/flag/config parse error or other refused input; GDISTILL_TOL set
    2  validate: unphysical state; fuzz: invariant violations found
    3  pipeline: NOT_DISTILLABLE
    4  pipeline: INCONCLUSIVE_BOUNDARY
    5  pipeline or single-stage command: stage failure (stage named on stderr)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .distill import (VERDICT_BOUNDARY, VERDICT_DISTILLABLE,
                      VERDICT_NOT_DISTILLABLE, distill_pipeline, symmetrize,
                      witness_and_concentrate)
from .errors import DistillError, PreconditionError
from .fuzz import FuzzConfig, run_fuzz
from .random_states import KINDS, random_state
from .statefile import (concentration_to_dict, dumps, load_state, npt_to_dict,
                        physicality_to_dict, pipeline_report_to_dict,
                        standard_form_to_dict, state_to_dict,
                        symmetrization_to_dict, witness_to_dict)
from .states import TOL_VERDICT, is_npt, require_npt, validate_physical
from .two_mode import MAX_PROBE_R, standard_form_transform

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNPHYSICAL = 2
EXIT_VIOLATIONS = 2
EXIT_NOT_DISTILLABLE = 3
EXIT_BOUNDARY = 4
EXIT_STAGE_FAILURE = 5

_VERDICT_EXIT = {
    VERDICT_DISTILLABLE: EXIT_OK,
    VERDICT_NOT_DISTILLABLE: EXIT_NOT_DISTILLABLE,
    VERDICT_BOUNDARY: EXIT_BOUNDARY,
}


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def cmd_validate(args) -> int:
    gamma = load_state(args.path)[0].gamma
    # is_npt first, so that its refusal of a one-sided partition precedes any
    # verdict; its PreconditionError means unphysical, decided exactly as
    # validate_physical decides it
    try:
        npt = npt_to_dict(is_npt(gamma))
    except PreconditionError:
        npt = {"npt": None}
    verdict = validate_physical(gamma)
    print(dumps({**physicality_to_dict(verdict), **npt}))
    return EXIT_OK if verdict.physical else EXIT_UNPHYSICAL


def cmd_pipeline(args) -> int:
    state, _ = load_state(args.path)
    report = distill_pipeline(state.gamma, r_max=args.r_max)
    if args.json:
        print(dumps(pipeline_report_to_dict(report)))
    else:
        print(f"verdict: {report.verdict}")
        print(f"npt margin: {report.npt.raw_margin:.6e}")
        if report.verdict == VERDICT_DISTILLABLE:
            p = report.final_params
            print(f"final symmetric params: n={p.n_a:.6f} "
                  f"k_x={p.k_x:.6f} k_p={p.k_p:.6f}")
            print(f"rc value at r={report.rc.r:g}: {report.rc.value:.6e} "
                  f"(asymptotic {report.rc.asymptotic_value:.6e})")
    return _VERDICT_EXIT[report.verdict]


def cmd_random(args) -> int:
    state, meta = random_state(args.kind, args.modes_a, args.modes_b, args.seed)
    print(dumps(state_to_dict(state, metadata=meta)))
    return EXIT_OK


def cmd_fuzz(args) -> int:
    if args.config is None:
        config = FuzzConfig()
    else:
        try:
            with open(args.config) as fh:
                config = FuzzConfig.from_dict(json.load(fh))
        except OSError as exc:
            return _fail(f"cannot read {args.config}: {exc}", EXIT_PARSE)
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            return _fail(f"bad fuzz config: {exc}", EXIT_PARSE)
    summary = run_fuzz(config)
    elapsed = summary.pop("elapsed_seconds")
    print(dumps(summary))
    print(f"fuzz: {config.trials} trials per invariant, "
          f"{summary['total_violations']} violations, {elapsed:.1f}s",
          file=sys.stderr)
    return EXIT_OK if summary["total_violations"] == 0 else EXIT_VIOLATIONS


def cmd_standard_form(args) -> int:
    state, _ = load_state(args.path)
    sf = standard_form_transform(state.gamma)
    if args.json:
        print(dumps(standard_form_to_dict(sf)))
    else:
        params = sf.params
        print(f"n_a={params.n_a:.9f} n_b={params.n_b:.9f} "
              f"k_x={params.k_x:.9f} k_p={params.k_p:.9f}")
    return EXIT_OK


def cmd_symmetrize(args) -> int:
    state, _ = load_state(args.path)
    report = symmetrize(state.gamma)
    if args.json:
        print(dumps(symmetrization_to_dict(report)))
    else:
        p = report.output_params
        print(f"theta={report.theta:.9f} scale_factor={report.scale_factor:.9f} "
              f"swapped={report.swapped_sides}")
        print(f"output params: n={p.n_a:.9f} k_x={p.k_x:.9f} k_p={p.k_p:.9f}")
    return EXIT_OK


def cmd_concentrate(args) -> int:
    state, _ = load_state(args.path)
    require_npt(state.gamma, "concentration")
    witness, conc = witness_and_concentrate(state.gamma)
    if args.json:
        print(dumps({"witness": witness_to_dict(witness), **concentration_to_dict(conc),
                     "npt_margin_1x1": conc.npt_margin}))
    else:
        print(f"reduced 1x1 npt margin: {conc.npt_margin:.6e}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse that exits EXIT_PARSE on a usage error: its own code, 2, is
    EXIT_UNPHYSICAL and EXIT_VIOLATIONS here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gdistill",
        description="Distillability analysis of bipartite Gaussian states "
                    "at the correlation-matrix level.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a state file for physicality and NPT")
    p.add_argument("path", help="state file (JSON)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pipeline", help="full distillability pipeline")
    p.add_argument("path", help="state file (JSON)")
    p.add_argument("--json", action="store_true", help="print the full report as JSON")
    p.add_argument("--r-max", type=int, default=8,
                   help=f"probe squeezing sweep limit, 1..{MAX_PROBE_R}")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("random", help="generate a random state file on stdout")
    p.add_argument("--modes-a", type=int, default=1)
    p.add_argument("--modes-b", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=KINDS, default="entangled")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("fuzz", help="run the invariant campaign")
    p.add_argument("config", nargs="?", default=None,
                   help="JSON object with integer keys seed and trials (default 0, 1000)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("standard-form", help="standard form of a 1x1 state")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_standard_form)

    p = sub.add_parser("symmetrize", help="symmetrize a 1x1 NPT state")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("concentrate", help="concentrate an NPT state to one mode pair")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_concentrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "GDISTILL_TOL" in os.environ:
        return _fail(f"GDISTILL_TOL is not supported: verdicts use the rounding band "
                     f"max({TOL_VERDICT:g}, dim * eps * max|gamma|), worked out from "
                     f"the state; unset the variable", EXIT_PARSE)
    try:
        return args.func(args)
    except ValueError as exc:  # the library's refusal, StateFileError included
        return _fail(str(exc), EXIT_PARSE)
    except DistillError as exc:
        return _fail(f"stage failure: {exc}", EXIT_STAGE_FAILURE)


if __name__ == "__main__":
    sys.exit(main())
