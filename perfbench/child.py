"""One cold jetspace CLI call in a fresh interpreter.

Run from the checkout root as `python3 perfbench/child.py`, with a JSON
spec on stdin.  jetspace is imported first, so the moment it is ready
(time.monotonic, comparable with the parent's clock) marks the end of
set-up.  The spec is {"probe": true} to stop there, or
{"argv": [...], "trace": null | "<span file>", "label": "..."} to time
jetspace.cli.main(argv) with its stdout and stderr captured.  One JSON
line on stdout reports the result.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import jetspace.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main():
    spec = json.loads(sys.stdin.read())
    result = {"ready": READY}
    if spec.get("probe"):
        print(json.dumps(result))
        return
    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    error = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = jetspace.cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = 1
        error = traceback.format_exc(limit=-3)
    result["main_s"] = time.perf_counter() - started
    result["code"] = code
    result["stdout"] = out.getvalue()
    result["error"] = error
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["counters"], result["costliest"] = tracer.summarize()
        tracer.write(spec["trace"], spec["label"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
