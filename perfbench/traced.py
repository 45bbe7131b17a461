"""Run the ``pigeon`` CLI with layer tracing installed.

Usage: ``python traced.py SNAPSHOT_PREFIX -- <pigeon arguments>``

Equivalent to ``python -m repro.cli <pigeon arguments>`` except that
:func:`spans.install` wraps the layers first and each SIGUSR1 writes the
accumulated spans to ``SNAPSHOT_PREFIX.<n>.json``.
"""

import sys

import spans


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: traced.py SNAPSHOT_PREFIX -- <pigeon arguments>")
    prefix, cli_args = argv[0], argv[2:]
    import repro.cli

    tracer = spans.install(spans.Tracer())
    spans.serve_snapshots(tracer, prefix)
    return repro.cli.main(cli_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
