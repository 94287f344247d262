"""Traced ``repro-service``: install span wrappers, then run the real CLI.

Usage: ``python serve_traced.py <spans.json> serve --store ... [flags]``.
Everything after the spans path goes to :func:`repro.service.cli.main`
unchanged. Spans stay in memory and are written to ``<spans.json>``
when the service returns after its SIGTERM drain.
"""

from __future__ import annotations

import sys


def main(argv: "list[str]") -> int:
    """Run the service with the server-side layers wrapped."""
    import spans
    from repro.service import cli

    spans_path, cli_args = argv[0], argv[1:]
    recorder = spans.Recorder()
    spans.install_server(spans.Patches(recorder))
    code = cli.main(cli_args)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
