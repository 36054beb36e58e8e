"""Run one `chebcast` command with the CLI-layer functions traced.

Usage: python3 perfbench/traced_cli.py SPANS.json COMMAND [ARGS...]

Runs chebcast.cli.main(COMMAND ARGS...) inside a `cli.COMMAND` span and
writes every span to SPANS.json when the command returns. chebcast must be
importable (the benchmark puts the checkout's src/ on PYTHONPATH).
"""

import sys

import chebcast.cli

from tracing import CLI_TARGETS, Tracer, installed


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1]
    tracer = Tracer()
    with installed(tracer, CLI_TARGETS):
        with tracer.span(f"cli.{command}"):
            code = chebcast.cli.main(argv[1:])
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
