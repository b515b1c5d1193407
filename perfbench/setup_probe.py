"""What a user waits for before the first iteration, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src dir> <config file>

Imports prunadag from <src dir>, parses the config and builds the
problem instance of every seed. The caller times the whole process.
"""

import sys


def main(src: str, config: str) -> int:
    sys.path.insert(0, src)
    from prunadag import harness

    cfg = harness.load_config(config)
    for i in range(cfg.seeds):
        harness.build_problem(cfg, i)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
