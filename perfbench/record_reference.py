"""Record reference outputs for the default seed into reference.json.

Usage: python3 perfbench/record_reference.py

Runs the first passes of every workload untimed and stores, for each
selection, its label, k_hat and step values. Re-record only when a
change is meant to alter outputs, and say why in that change.
"""

import json

import benchenv

# enough passes to cover a run of several times today's speed
PASSES = {"lesmis-grid": 32, "svps-n1200": 48, "sim-panel": 6}


def main() -> None:
    benchenv.pin_threads()
    benchenv.import_commscale()
    from checks import REFERENCE_PATH, self_check
    from harness import run_pass
    from run import DEFAULT_SEED
    from workloads import WORKLOADS, to_spec

    doc = {}
    for name, workload in WORKLOADS.items():
        state = workload.setup(DEFAULT_SEED)
        passes = []
        for rep in range(PASSES[name]):
            tasks = workload.tasks(DEFAULT_SEED, rep, workload.networks(DEFAULT_SEED, rep, state))
            records, _ = run_pass(tasks, rep)
            for rec in records:
                reason = rec.error or self_check(rec.task, rec.out)
                if reason is not None:
                    raise RuntimeError(f"{name} pass {rep} {rec.task.label}: {reason}")
            passes.append([{"label": rec.task.label, **rec.out} for rec in records])
            print(f"{name} pass {rep} recorded", flush=True)
        doc[name] = {"seed": DEFAULT_SEED, "spec": to_spec(workload), "passes": passes}
    REFERENCE_PATH.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
