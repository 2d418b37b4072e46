"""Verification command line.

``main`` loads the graph JSON file and builds its resource once; every
subcommand runs one family of checks on it and returns its report and
verdict, and ``main`` prints the report (table by default, ``--json`` for
the canonical document) and maps the verdict to the exit code.
Exit codes: 0 all assertions passed, 1 an assertion failed (deviation above
tolerance or an expected violation absent), 2 usage or input error.

Reports are deterministic: the same inputs including ``--seed`` produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import acausal, config, game, graphstate, mbqc, procmat


# postselect acceptance must sit within this many binomial sigmas of 2^-(N+n)
ACCEPTANCE_SIGMAS = 5.0
POSTSELECT_TV_LIMIT = 0.02
# an exact sampler's TV grows with the 2^(N+n) cells its accepted runs spread
# over.  At 10^5 shots it passes the limit on chain(4) for only 19 seeds in
# 20.  At 10^6 it passes for 20 seeds in 20 on chain(4) and chain(5) at angle
# 0.3, but fails for 3 in 20 on chain(6) at angle 0, 18 to 19 in 20 on
# chain(6) at 0.3 and 20 in 20 on chain(7) at 0.3: there the limit is below
# the sampler's own noise, and exit 1 means too few shots, not a wrong sampler
POSTSELECT_DEFAULT_SHOTS = 1_000_000
PM_VALIDATE_DEFAULT_TRIALS = 200
MAX_SHOTS = 2**63 - 1
# pm-validate contracts every trial: on 2 cores it runs about 170 000 trials/s
# on chain(4) and 21 000 on chain(6), so this ceiling is some 10 to 80 minutes
# of work.  postselect keeps MAX_SHOTS, since its cost is one multinomial draw
MAX_TRIALS = 10**8

_ANGLES_HELP = (
    "comma-separated radians for the computation vertices in order; "
    "one value broadcasts (default 0)"
)

# subcommand -> (summary, {flag: help}); every subcommand also takes --graph,
# --json and --cap, and argparse refuses any flag not listed for it
_SUBCOMMANDS = {
    "graph-state": (
        "dump graph-state amplitudes and the stabilizer defect",
        {"--tol": "largest stabilizer deviation that passes"},
    ),
    "resource-pm": (
        "build the resource process matrix; report trace and min eigenvalue",
        {"--tol": "tolerance on the trace and the positivity floor"},
    ),
    "verify": (
        "branch independence, normalization, backend agreement, trace and positivity floor",
        {"--angles": _ANGLES_HELP, "--tol": "tolerance on every identity the command checks"},
    ),
    "signal": (
        "total variation between readout marginals for two angle sets",
        {
            "--angles": _ANGLES_HELP,
            "--angles-b": "second angle set; default adds pi at the first vertex",
        },
    ),
    "postselect": (
        "postselected sampler versus the exact distribution",
        {
            "--angles": _ANGLES_HELP,
            "--seed": "sampler seed",
            "--shots": f"sampler shots; 0 (default) selects {POSTSELECT_DEFAULT_SHOTS:,}",
        },
    ),
    "game": (
        "causal-game report for a graph instance",
        {
            "--angles": _ANGLES_HELP,
            "--pattern": "measurement pattern JSON file (default: the chain pattern)",
        },
    ),
    "pm-validate": (
        "total-probability sweep over sampled instrument families",
        {
            "--seed": "seed of the instrument-tuple draws",
            "--shots": "number of sampled instrument tuples, at most "
            f"{MAX_TRIALS:,}; 0 (default) selects {PM_VALIDATE_DEFAULT_TRIALS}",
            "--tol": "largest total-probability deviation that passes",
            "--family": "mbqc asserts normalization; rank1 is exploratory (report only)",
        },
    ),
}

_FLAG_KWARGS = {
    "--pattern": dict(metavar="FILE"),
    "--angles": dict(metavar="CSV"),
    "--angles-b": dict(metavar="CSV"),
    "--seed": dict(metavar="N", type=int, default=config.DEFAULT_SEED),
    "--shots": dict(metavar="N", type=int, default=0),
    "--tol": dict(metavar="R", type=float, default=1e-9),
    "--family": dict(choices=["mbqc", "rank1"], default="mbqc"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call; parsing does not mutate it, so
    every later ``main`` call of the process reuses it."""
    parser = argparse.ArgumentParser(
        prog="acausal-mbqc",
        description=(
            "Build and verify acausal graph-computation process matrices. "
            f"The register cap defaults to {config.DEFAULT_QUBIT_CAP} and can be "
            f"overridden by --cap or the {config.CAP_ENV_VAR} env var (flag wins)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--graph", metavar="FILE", required=True, help="graph JSON file")
        for flag, help_text in flags.items():
            p.add_argument(flag, help=help_text, **_FLAG_KWARGS[flag])
        p.add_argument("--json", action="store_true", help="emit the JSON document")
        p.add_argument("--cap", metavar="N", type=int, help="qubit cap on state vectors")
    return parser


def _validate_numeric_flags(ns: argparse.Namespace) -> None:
    """Reject out-of-range numeric flags of the command before any work,
    resolve its register cap, and replace its angle CSVs with the parsed
    lists."""
    if getattr(ns, "shots", 0) < 0:
        raise ValueError(
            f"--shots must be >= 0 (0 selects the command's default), got {ns.shots}"
        )
    if ns.command == "pm-validate" and ns.shots > MAX_TRIALS:
        raise ValueError(
            f"--shots of pm-validate must be <= MAX_TRIALS = {MAX_TRIALS}, got {ns.shots}"
        )
    if getattr(ns, "shots", 0) > MAX_SHOTS:
        # numpy samples counts as int64
        raise ValueError(f"--shots must be <= 2^63 - 1 = {MAX_SHOTS}, got {ns.shots}")
    if getattr(ns, "seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {ns.seed}")
    if ns.cap is not None and ns.cap < 1:
        raise ValueError(f"--cap must be >= 1, got {ns.cap}")
    # the flag wins; without it the environment variable is read and checked here
    ns.cap = config.qubit_cap(ns.cap)
    if hasattr(ns, "tol") and not (math.isfinite(ns.tol) and ns.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {ns.tol!r}")
    for attr, flag in (("angles", "--angles"), ("angles_b", "--angles-b")):
        if hasattr(ns, attr):
            setattr(ns, attr, _parse_csv(getattr(ns, attr), flag))


def _parse_csv(text: str | None, flag: str) -> list[float] | None:
    if text is None:
        return None
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag}: bad angle list {text!r}: {exc}") from exc
    if not values:
        raise ValueError(f"{flag}: bad angle list {text!r}: no values")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{flag}: angles must be finite, got {text!r}")
    return values


def _angles_arg(values: list[float] | None, g) -> dict[str, float]:
    if values is None:
        return mbqc.as_angle_map(g, 0.0)
    return mbqc.as_angle_map(g, values[0] if len(values) == 1 else values)


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r} in report")
        return value
    if obj is None or isinstance(obj, str):
        return obj
    raise ValueError(f"cannot serialize {type(obj).__name__} in report")


def _emit(report: dict, as_json: bool) -> None:
    report = _sanitize(report)
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        for line in _table_lines(report, ""):
            sys.stdout.write(line + "\n")


def _table_lines(obj, prefix: str) -> list[str]:
    lines = []
    for key in sorted(obj):
        value = obj[key]
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_table_lines(value, label + "."))
        elif isinstance(value, list):
            lines.append(f"{label} = {json.dumps(value)}")
        else:
            lines.append(f"{label} = {'null' if value is None else value}")
    return lines


def _trace_and_floor_ok(report: dict, g, tol: float) -> bool:
    """W's reported trace is 2^(N+n) and its positivity floor is >= 0, both
    within ``tol``."""
    expected = float(2 ** (g.n_computation + g.n_output))
    return report["min_eigenvalue"] >= -tol and abs(report["trace"] - expected) <= tol


# ---------------------------------------------------------------------------
# subcommands: each reads the resource main built and returns (report, ok)

def _cmd_graph_state(ns: argparse.Namespace, r: acausal.ResourcePM) -> tuple[dict, bool]:
    g, state = r.base_graph, r.plain
    defect = graphstate.stabilizer_check(state, g)
    report = {
        "vertices": list(graphstate.ket_order(g)),
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
        "stabilizer_max_deviation": defect,
    }
    return report, defect <= ns.tol


def _cmd_resource_pm(ns: argparse.Namespace, r: acausal.ResourcePM) -> tuple[dict, bool]:
    report = {
        "trace": r.w.trace(),
        "min_eigenvalue": r.w.min_eigenvalue(),
        "num_qubits": r.w.num_qubits,
        "layout": r.layout(),
    }
    return report, _trace_and_floor_ok(report, r.base_graph, ns.tol)


def _cmd_verify(ns: argparse.Namespace, r: acausal.ResourcePM) -> tuple[dict, bool]:
    g = r.base_graph
    ang = _angles_arg(ns.angles, g)
    # the checks read the literal W: on the folded table every branch m
    # contracts the same rows, so branch independence would hold by construction
    probs = acausal.outcome_probabilities(r, ang, literal=True)
    report = {
        "branch_independence_max_dev": acausal.branch_independence_report(probs),
        "normalization_dev": acausal.normalization_report(probs),
        "min_eigenvalue": r.w.min_eigenvalue(),
        "trace": r.w.trace(),
        # the positive branch, contracted on the plain graph state: it fits wherever W does
        "backend_agreement_max_dev": acausal.backend_agreement(r, ang, probs),
    }
    ok = (
        report["branch_independence_max_dev"] <= ns.tol
        and report["normalization_dev"] <= ns.tol
        and report["backend_agreement_max_dev"] <= ns.tol
        and _trace_and_floor_ok(report, g, ns.tol)
    )
    return report, ok


def _cmd_signal(ns: argparse.Namespace, r: acausal.ResourcePM) -> tuple[dict, bool]:
    g = r.base_graph
    ang = _angles_arg(ns.angles, g)
    if ns.angles_b is not None:
        ang_b = _angles_arg(ns.angles_b, g)
    else:
        ang_b = dict(ang)
        ang_b[g.computation[0]] += math.pi
    # both angle sets are trials of one contraction
    probs, probs_b = acausal.outcome_probabilities(r, [ang, ang_b])
    return {"signaling_tv": acausal.signaling_tv(probs, probs_b)}, True


def _cmd_postselect(ns: argparse.Namespace, r: acausal.ResourcePM) -> tuple[dict, bool]:
    ang = _angles_arg(ns.angles, r.base_graph)
    shots = ns.shots if ns.shots > 0 else POSTSELECT_DEFAULT_SHOTS
    sample = acausal.postselected_sampler(r, ang, shots, ns.seed)
    probs = acausal.outcome_probabilities(r, ang)
    block = acausal.postselection_report(sample, probs)
    p = block["expected"]
    sigma = math.sqrt(p * (1.0 - p) / shots)
    ok = (
        abs(block["acceptance"] - p) <= ACCEPTANCE_SIGMAS * sigma
        and block["tv"] is not None
        and block["tv"] <= POSTSELECT_TV_LIMIT
    )
    return {"postselect": block}, ok


def _cmd_game(ns: argparse.Namespace, r: acausal.ResourcePM) -> tuple[dict, bool]:
    # without --angles a given pattern plays its own angles
    ang = None if ns.angles is None else _angles_arg(ns.angles, r.base_graph)
    pattern = mbqc.load_pattern(ns.pattern) if ns.pattern else None
    report = game.game_report(game.game_instance(r, ang, pattern))
    return report, report["violated"]


def _cmd_pm_validate(ns: argparse.Namespace, r: acausal.ResourcePM) -> tuple[dict, bool]:
    trials = ns.shots if ns.shots > 0 else PM_VALIDATE_DEFAULT_TRIALS
    if ns.family == "mbqc":
        family = procmat.mbqc_instrument_family(r.n_computation, r.n_output)
    else:
        family = procmat.rank_one_instrument_family(r.n_computation + r.n_output)
    rng = np.random.default_rng(ns.seed)
    rep = procmat.pm_validate(r.w, family, trials, ns.tol, rng)
    # rank1 is exploratory: its violations are report content
    return {"family": ns.family, **dataclasses.asdict(rep)}, rep.passed or ns.family == "rank1"


_COMMANDS = {
    "graph-state": _cmd_graph_state,
    "resource-pm": _cmd_resource_pm,
    "verify": _cmd_verify,
    "signal": _cmd_signal,
    "postselect": _cmd_postselect,
    "game": _cmd_game,
    "pm-validate": _cmd_pm_validate,
}

# GraphError, PatternError, ProcmatError, GameError and QlinError are ValueErrors
_INPUT_ERRORS = (ValueError, config.RegisterCapError, OSError, MemoryError)


def main(argv=None) -> int:
    """Run one subcommand.  Refusals come in the order flags, graph file,
    cap, then the command's own angles or pattern, and a refused run prints
    no report."""
    try:
        ns = build_parser().parse_args(argv)
        _validate_numeric_flags(ns)
        r = acausal.build_resource_pm(graphstate.load_graph(ns.graph), ns.cap)
        report, ok = _COMMANDS[ns.command](ns, r)
        _emit(report, ns.json)
        return 0 if ok else 1
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
