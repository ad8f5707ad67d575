"""Run one ceapsk CLI command in this process with timing spans installed.

    python3 perfbench/launch.py {engines|layers} TIMING_JSON -- CLI ARGS...

``engines`` wraps only the three Monte Carlo engines, which is enough to
split set-up from engine time; ``layers`` wraps every public function of
the layer modules plus the CLI steps.  The package is imported from the
``src`` directory next to this one, never from an installed copy.  On exit
the spans, the import interval, the engine's union-bound column and any
wrapper left behind are written to TIMING_JSON, and the process exits
with the CLI's own code.
"""

import json
import sys
import time
from pathlib import Path

import tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    mode, timing_path, sep, *cli_args = argv
    if mode not in ("engines", "layers") or sep != "--":
        raise SystemExit(__doc__)
    sys.path.insert(0, str(SRC))
    import_start = time.monotonic_ns()
    import ceapsk.cli
    import_end = time.monotonic_ns()
    if Path(ceapsk.__file__).resolve().parent != SRC / "ceapsk":
        raise SystemExit(f"imported ceapsk from {ceapsk.__file__}, not {SRC}")
    targets = (tracer.layer_targets(ceapsk) if mode == "layers"
               else tracer.engine_targets(ceapsk))
    bound = []

    def keep_bound(name, result):
        if name in tracer.ENGINES and getattr(result, "union_bound", None) is not None:
            bound[:] = result.union_bound.tolist()

    tr = tracer.Tracer(on_return=keep_bound)
    with tr.installed(targets, tracer.ceapsk_modules()):
        code = ceapsk.cli.main(cli_args)
    Path(timing_path).write_text(json.dumps({
        "import_ns": [import_start, import_end],
        "spans": tr.spans,
        "union_bound": bound,
        "leftover_wrappers": tracer.leftover_wrappers(tracer.ceapsk_modules()),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
