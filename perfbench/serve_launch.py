"""Start ``repro serve`` through its CLI entry point, optionally traced.

    python3 perfbench/serve_launch.py [--spans FILE] -- serve --port 0 ...

With ``--spans`` the benchmark's timing shims are installed before the
server starts, and the span digest is written to FILE once the server
has drained (after SIGTERM).
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = pathlib.Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.cli import main as repro_main

    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
    code = repro_main(argv)
    if recorder is not None:
        spans_path.write_text(json.dumps(recorder.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
