"""Set-up cost of one guidance-lab command, as a process of its own.

Usage: python3 perfbench/setup_probe.py CONFIG_YAML

Does what every CLI command does before its first call into ``samplers``
or ``theory``: import the CLI module, load the config, build the mixture
and the time grid, and certify the condition's surface class.  The
benchmark times this process from spawn to exit.
"""

import sys

import guidance_lab.cli as cli


def main(path: str) -> None:
    config = cli.load_config(path)
    gmm = config.gmm()
    config.time_grid()
    if gmm.n_components > 1:
        cli.surface_certificate(gmm, config.condition())


if __name__ == "__main__":
    main(sys.argv[1])
