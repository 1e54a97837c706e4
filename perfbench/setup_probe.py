"""Time one fresh-process set-up and print the seconds.

Set-up is `import commscale` plus building the workload's pass-0
inputs. Usage: setup_probe.py WORKLOAD_SPEC_JSON SEED. Thread settings
come from the environment the benchmark run passes down.
"""

from time import perf_counter

START = perf_counter()


def main() -> None:
    import json
    import sys

    import benchenv

    benchenv.import_commscale()
    import workloads

    workload = workloads.from_spec(json.loads(sys.argv[1]))
    seed = int(sys.argv[2])
    workload.networks(seed, 0, workload.setup(seed))
    print(perf_counter() - START)


if __name__ == "__main__":
    main()
