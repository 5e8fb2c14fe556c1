"""Child process of the benchmark; ``run.py`` starts it, one at a time.

    worker.py session verify-warm|props
        Set up, print {"ready": true}, then answer one JSON line per JSON
        request line on stdin until stdin closes.  A request carries the
        operation's input ("ids" for verify-warm, "seed" for props) and
        optionally "trace": true, which installs the layer wrappers for that
        operation only.
    worker.py cold [--trace] ID...
        One ``stablelimit run --format json --scenario ID...`` in this
        process, timed around ``cli.main``.
    worker.py scenario ID
        One scenario alone in this fresh process, timed around
        ``run_scenario``.

Every reply is one JSON line on stdout; "s" is the operation's seconds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import layers  # noqa: E402  (after the path to src/ is set)


def _reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Session:
    """Timed operations of one warm workload, with optional tracing."""

    def __init__(self, workload):
        import stablelimit.cli  # noqa: F401  (the import is set-up work)
        from stablelimit import scenarios
        self.workload = workload
        if workload == "verify-warm":
            scenarios.run_many(None)          # fills every lru_cache
        else:
            import props
            self.props = props
            self.rings = props.make_rings()

    def op(self, request):
        # The props inputs are built before any wrapper is installed, so
        # that the layer counts cover only the timed batch.
        if self.workload == "verify-warm":
            work = functools.partial(self._verify, request["ids"])
        else:
            batch = self.props.make_batch(self.rings,
                                          random.Random(request["seed"]))
            work = functools.partial(self._props, batch)
        tracer = layers.Tracer() if request.get("trace") else None
        if tracer:
            tracer.install()
            before = tracer.snapshot()
        reply = work()
        if tracer:
            tracer.uninstall()
            reply["layers"] = layers.delta(tracer.snapshot(), before)
            reply["missing"] = tracer.missing
        return reply

    def _verify(self, ids):
        import stablelimit
        from stablelimit import report, scenarios
        start = time.perf_counter()
        payload = report.render_json(scenarios.run_many(ids),
                                     stablelimit.__version__)
        return {"s": time.perf_counter() - start, "report": payload}

    def _props(self, batch):
        start = time.perf_counter()
        checked, failed = self.props.run_batch(batch)
        return {"s": time.perf_counter() - start,
                "checked": checked, "failed": failed}


def cold(ids, trace):
    from stablelimit import cli
    tracer = None
    if trace:
        tracer = layers.Tracer()
        tracer.install()
    argv = ["run", "--format", "json"]
    for sid in ids:
        argv += ["--scenario", sid]
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    reply = {"s": time.perf_counter() - start, "code": code,
             "report": out.getvalue()}
    if tracer:
        reply["layers"] = tracer.snapshot()
        reply["missing"] = tracer.missing
    return reply


def scenario(sid):
    from stablelimit import scenarios
    start = time.perf_counter()
    rep = scenarios.run_scenario(sid)
    return {"s": time.perf_counter() - start, "record": rep.to_dict()}


def main(argv):
    mode, args = argv[0], argv[1:]
    trace = "--trace" in args
    args = [a for a in args if a != "--trace"]
    if mode == "session":
        session = Session(args[0])
        _reply({"ready": True})
        for line in sys.stdin:
            _reply(session.op(json.loads(line)))
    elif mode == "cold":
        _reply(cold(args, trace))
    elif mode == "scenario":
        _reply(scenario(args[0]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
