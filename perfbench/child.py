"""One round of a benchmark workload, in a fresh interpreter.

Reads a job {"workload", "trace", "inputs"} as JSON on stdin and writes one
JSON line: the monotonic time at which set-up finished, the seconds spent
in the timed region, one output per operation and, for a traced round,
the recorded spans.  A fresh interpreter per round means every lru_cache
in toric_exc starts empty, as it does for a user, so no round is served
from a cache that an earlier round filled.

Only the operations are timed.  Between them, about once a second of
work and at both ends of the round, the host's speed is probed
(probe.py); the probes are not in the timed region.

Operations that raise are reported as {"error": ...} and the round goes on.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import probe  # noqa: E402  (after the path set-up above)
import spans  # noqa: E402

PROBE_EVERY_S = 1.0


def _module(short):
    # Looked up after spans.install, so traced rounds call the wrappers.
    return importlib.import_module(f"toric_exc.{short}")


def _contexts():
    picard = _module("picard")
    return {r.name: (r, picard.build_pic_context(r.fan, r.pic_basis)) for r in _module("catalog").load_catalog()}


class Clock:
    """Seconds spent in the operations, and host probes taken between them."""

    def __init__(self):
        self.timed_s = 0.0
        self.probes = []
        self._probed = 0.0

    def probe(self):
        self.probes.append(probe.sample())
        self._probed = time.perf_counter()

    def run(self, op, item):
        if time.perf_counter() - self._probed >= PROBE_EVERY_S:
            self.probe()
        t0 = time.perf_counter()
        try:
            return op(item)
        except Exception as exc:  # one failed operation must not end the round
            return {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            self.timed_s += time.perf_counter() - t0


def run_prove(inputs, contexts, clock):
    def op(argv):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = _module("cli").main(argv)
        return {"code": code, "doc": buffer.getvalue()}

    return [clock.run(op, ["--format", "json", "prove-main-theorem"])]


def run_oracle_sweep(inputs, contexts, clock):
    picard, coh = _module("picard"), _module("cohomology")

    def op(item):
        name, cls = item
        ctx = contexts[name][1]
        divisor = picard.class_to_divisor(ctx, cls)
        table = coh.cohomology_table(ctx, divisor, escalate=True)
        return {"dims": list(table.dims), "radius": table.box_radius_used,
                "acyclic": coh.is_acyclic(ctx, divisor, escalate=True),
                "sections": coh.has_nonzero_global_sections(ctx, divisor, escalate=True)}

    return [clock.run(op, item) for item in inputs["classes"]]


def run_thomsen(inputs, contexts, clock):
    frobenius = _module("frobenius")

    def op(request):
        name, divisor, p = request
        record, ctx = contexts[name]
        dec = frobenius.decompose(record.fan, ctx, divisor, p)
        return {"summands": [[list(c), mult] for c, mult in dec.summands],
                "divisor_class": list(dec.divisor_class)}

    return [clock.run(op, request) for request in inputs["requests"]]


def run_blowup_fans(inputs, contexts, clock):
    catalog, fan_mod, picard, coh = (_module(m) for m in ("catalog", "fan", "picard", "cohomology"))

    def op(text):
        fan = catalog.parse_fan_file(text)
        validation = fan_mod.validate_fan(fan)
        collections = fan_mod.primitive_collections(fan)
        fano = fan_mod.is_fano(fan)
        ctx = picard.build_pic_context(fan)
        report = coh.forbidden_sets(fan)
        h_o = coh.cohomology_table(ctx, (0,) * fan.n_rays, escalate=True)
        h_k = coh.cohomology_table(ctx, picard.canonical_divisor(fan), escalate=True)
        return {"rays": [list(r) for r in fan.rays], "cones": [list(c) for c in fan.max_cones],
                "problems": list(validation.problems), "valid": validation.ok,
                "primitive_collections": [list(c) for c in collections], "fano": fano,
                "rho": ctx.rank, "class_map": [list(r) for r in ctx.class_map.entries],
                "forbidden": [[list(s), list(r)] for s, r in zip(report.forbidden, report.homology_ranks)],
                "h_o": list(h_o.dims), "h_k": list(h_k.dims)}

    return [clock.run(op, text) for text in inputs["fans"]]


# workload -> (builds the catalog's Pic contexts before the timed region, runner)
RUNNERS = {
    "setup": (True, lambda inputs, contexts, clock: []),
    "prove": (False, run_prove),
    "oracle-sweep": (True, run_oracle_sweep),
    "thomsen": (True, run_thomsen),
    "blowup-fans": (False, run_blowup_fans),
}


def main():
    job = json.load(sys.stdin)
    importlib.import_module("toric_exc.cli")
    recorder = None
    if job["trace"]:
        recorder = spans.Recorder()
        spans.install(recorder)
    needs_contexts, runner = RUNNERS[job["workload"]]
    contexts = _contexts() if needs_contexts else None
    ready = time.monotonic()
    clock = Clock()
    outputs = runner(job["inputs"], contexts, clock)
    if outputs:
        clock.probe()
    result = {"ready": ready, "timed_s": clock.timed_s, "probes": clock.probes, "outputs": outputs,
              "trace": recorder.export() if recorder else None}
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
