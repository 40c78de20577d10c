"""End-to-end benchmark of the Datalog decision system.

    python3 perfbench/run.py --workload eval_scale --seed 1 --seconds 30 \
        --trace 0

Workloads (parameters and the reasons for them are in ``spec.json``):

``eval_scale``   the three 10^5-fact ``tag:scale`` evaluation scenarios,
                 each through ``Session.run_scenario`` on a fresh Session;
``decide_cold``  every decision scenario outside ``tag:stress`` and
                 ``tag:scale``, each on a fresh Session (cold automata);
``service_mix``  a ``repro serve`` daemon under an open-loop mix of
                 Zipf-repeated scenarios, unique evals and unique decides.

Every answer is checked against ground truth built outside the code
under test (registry expectations, BFS oracles, construction labels).
With ``--trace 0`` the last stdout line carries the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer
metrics, measured by wrapping each layer's public functions from this
directory (see ``spans.py``).  Per-layer seconds and counts are per
operation; a layer a workload does not run (or cannot observe from
outside, such as worker-side layers behind the service) reads 0.

Exit status: 0 when every operation was answered correctly, 1 when
any failed (the result line still prints, with ``"correct": false``),
2 when the checkout lacks the program or the contract.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import CONTRACT, SRC, load_contract, load_spec, result_line

sys.path.insert(0, str(SRC))

WORKLOADS = ("eval_scale", "decide_cold", "service_mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the self-test's small inputs (spec.json "
                             "'smoke' section)")
    return parser.parse_args(argv)


def workload_config(name: str, smoke: bool) -> dict:
    spec = load_spec()
    config = dict(spec["workloads"][name]["config"])
    if smoke:
        config.update(spec["smoke"].get(name, {}))
    return config


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, plant: dict = None) -> dict:
    """Run one workload; *plant* overrides ground truth (the self-test
    plants a wrong verdict through it)."""
    config = workload_config(name, smoke)
    if name == "service_mix":
        import service
        return service.run(config, seed, seconds, trace, plant)
    import inproc
    return inproc.run(config, seed, seconds, trace, plant)


def select_metrics(values: dict, declared, trace: bool) -> dict:
    """The declared metrics of this mode.  Per-layer metrics a workload
    does not touch read 0; an undeclared name is a benchmark bug."""
    names = {entry["name"] for entry in declared}
    unknown = set(values) - names
    if unknown:
        raise KeyError(f"undeclared metrics: {sorted(unknown)}")
    if trace:
        return {name: values.get(name, 0.0) for name in names}
    return values


def report(outcome: dict, contract: dict, trace: bool):
    """The result line of a workload outcome, and the exit status."""
    declared = contract["per_layer" if trace else "end_to_end"]
    values = select_metrics(outcome["values"], declared, trace)
    line = result_line(outcome["failed"] == 0, outcome["attempted"],
                       outcome["failed"], values, declared)
    return line, 0 if outcome["failed"] == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # The program is built from this checkout's sources only.
    if not (SRC / "repro" / "__init__.py").is_file() or not CONTRACT.is_file():
        print(f"perfbench: no program under {SRC} or no {CONTRACT.name}",
              file=sys.stderr)
        return 2
    contract = load_contract()
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.smoke)
    line, status = report(outcome, contract, bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          + json.dumps(outcome["summary"], sort_keys=True))
    print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
