"""Spans and counters around kpd's public functions, for the traced run.

The tracer wraps each function listed in ``SPANS`` and ``COUNTERS`` in
every ``kpd`` module namespace that holds a reference to it (modules import
names directly: ``spectral`` has its own ``kernel_matrix``), plus
``numpy.linalg.eigh`` and ``RunRecord.to_json``.  A span records its name,
start, end, parent span and the operation it ran in; counters record the
work measured from arguments and return values.  Everything stays in
memory until the run ends.
"""

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict


def _dps_doublings(start, used, cap=800):
    n = 0
    while start < used:
        start = min(2 * start, cap)
        n += 1
    return n


def _quadratic_form_name(args, kwargs):
    dps = kwargs.get("dps", args[2] if len(args) > 2 else None)
    return "kernel.quadratic_form." + ("float" if dps is None else "mp")


def _resolve_counts(tracer, args, kwargs, result):
    start = kwargs.get("dps_start", args[2] if len(args) > 2 else 30)
    tracer.maximum("kernel.resolve_form_sign.dps_max", result[1])
    tracer.count("kernel.resolve_form_sign.escalations", _dps_doublings(start, result[1]))


def _scan_counts(tracer, args, kwargs, cert):
    tracer.count("witness.find_negative_scale.scan_steps", round(-math.log2(cert.z)))
    tracer.maximum("witness.find_negative_scale.dps_max", cert.dps)


# (span name or name function, defining module, attribute, counts from the
# result).  Every span also yields <name>.ms (self time) and <name>.calls.
SPANS = [
    ("cli.run", "kpd.cli", "run", None),
    ("cli.verify_certificate", "kpd.cli", "verify_certificate", None),
    ("spectral.min_operator_eigenvalue", "kpd.spectral", "min_operator_eigenvalue", None),
    ("spectral.build_scheme", "kpd.spectral", "build_scheme", None),
    ("spectral.nystrom_matrix", "kpd.spectral", "nystrom_matrix", None),
    ("spectral.certify_negative_direction", "kpd.spectral", "certify_negative_direction", None),
    (
        "kernel.kernel_matrix",
        "kpd.kernel",
        "kernel_matrix",
        lambda tr, args, kw, r: tr.count("kernel.kernel_matrix.entries", r.size),
    ),
    (_quadratic_form_name, "kpd.kernel", "quadratic_form", None),
    ("kernel.resolve_form_sign", "kpd.kernel", "resolve_form_sign", _resolve_counts),
    ("witness.find_negative_scale", "kpd.witness", "find_negative_scale", _scan_counts),
    ("witness.t_power_coefficient", "kpd.witness", "t_power_coefficient", None),
    (
        "witness.cleared_form_series",
        "kpd.witness",
        "cleared_form_series",
        lambda tr, args, kw, r: tr.count("witness.cleared_form_series.terms", len(r.terms)),
    ),
    ("witness.subset_product_identity", "kpd.witness", "subset_product_identity", None),
    ("boundary.find_schwarz_violation", "kpd.boundary", "find_schwarz_violation", None),
    ("definiteness.pd_check", "kpd.definiteness", "pd_check", None),
    ("definiteness.cnd_check", "kpd.definiteness", "cnd_check", None),
    ("fracpow.validate_representation", "kpd.fracpow", "validate_representation", None),
    ("quadrature.adaptive_quad", "kpd.quadrature", "adaptive_quad", None),
    ("quadrature.composite_rule", "kpd.quadrature", "composite_rule", None),
    ("numpy.eigh", "numpy.linalg", "eigh", None),
]

# Called thousands of times per round: counted, not spanned.  The optional
# fourth entry restricts the wrapping to one calling module.
COUNTERS = [
    ("boundary.schwarz_margin", "kpd.boundary", "schwarz_margin", None),
    ("definiteness.distance_form", "kpd.kernel", "distance_form", "kpd.definiteness"),
    ("fracpow.integral_power", "kpd.fracpow", "integral_power", None),
    ("quadrature.fixed_quad", "kpd.quadrature", "fixed_quad", None),
]


# The per-layer metrics a traced run reports, per round of the workload:
# name -> (unit, better).  ``.ms`` is self time summed over the round.
LAYER_METRICS = {
    "spectral.certify_negative_direction.ms": ("ms", "lower"),
    "spectral.certify_negative_direction.calls": ("count", "lower"),
    "kernel.kernel_matrix.ms": ("ms", "lower"),
    "kernel.kernel_matrix.entries": ("count", "lower"),
    "spectral.nystrom_matrix.ms": ("ms", "lower"),
    "spectral.nystrom_matrix.calls": ("count", "lower"),
    "numpy.eigh.ms": ("ms", "lower"),
    "numpy.eigh.calls": ("count", "lower"),
    "spectral.build_scheme.ms": ("ms", "lower"),
    "spectral.min_operator_eigenvalue.ms": ("ms", "lower"),
    "cli.run.ms": ("ms", "lower"),
    "cli.to_json.ms": ("ms", "lower"),
    "cli.record_bytes": ("bytes", "lower"),
    "cli.verify_certificate.ms": ("ms", "lower"),
    "cli.verify_certificate.calls": ("count", "lower"),
    "kernel.quadratic_form.float.ms": ("ms", "lower"),
    "kernel.quadratic_form.float.calls": ("count", "lower"),
    "kernel.quadratic_form.mp.ms": ("ms", "lower"),
    "kernel.quadratic_form.mp.calls": ("count", "lower"),
    "kernel.resolve_form_sign.ms": ("ms", "lower"),
    "kernel.resolve_form_sign.calls": ("count", "lower"),
    "kernel.resolve_form_sign.dps_max": ("digits", "lower"),
    "kernel.resolve_form_sign.escalations": ("count", "lower"),
    "witness.find_negative_scale.ms": ("ms", "lower"),
    "witness.find_negative_scale.scan_steps": ("count", "lower"),
    "witness.find_negative_scale.dps_max": ("digits", "lower"),
    "witness.t_power_coefficient.ms": ("ms", "lower"),
    "boundary.find_schwarz_violation.ms": ("ms", "lower"),
    "boundary.schwarz_margin.calls": ("count", "lower"),
    "definiteness.pd_check.ms": ("ms", "lower"),
    "definiteness.cnd_check.ms": ("ms", "lower"),
    "definiteness.distance_form.calls": ("count", "lower"),
    "witness.cleared_form_series.ms": ("ms", "lower"),
    "witness.cleared_form_series.terms": ("count", "lower"),
    "witness.subset_product_identity.ms": ("ms", "lower"),
    "fracpow.validate_representation.ms": ("ms", "lower"),
    "fracpow.integral_power.calls": ("count", "lower"),
    "quadrature.adaptive_quad.ms": ("ms", "lower"),
    "quadrature.fixed_quad.calls": ("count", "lower"),
    "quadrature.composite_rule.ms": ("ms", "lower"),
    "trace.jobs_per_s": ("1/s", "higher"),
}


class Tracer:
    """Span and counter store.  ``key`` is (operation index, pass) while a
    timed operation runs and None otherwise (warm-up is not recorded)."""

    def __init__(self):
        self.key = None
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._restore = []

    def count(self, name, n=1):
        if self.key is not None:
            self.counts[self.key][name] += n

    def maximum(self, name, value):
        if self.key is not None:
            slot = self.counts[self.key]
            slot[name] = max(slot[name], value)

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, name, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.key is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (label, start, end, parent) + tracer.key
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            return fn(*args, **kwargs)

        return wrapper

    def _patch_everywhere(self, module_name, attr, wrapper, only=None):
        original = getattr(importlib.import_module(module_name), attr)
        targets = [sys.modules[module_name]]
        targets += [m for n, m in list(sys.modules.items()) if (n == "kpd" or n.startswith("kpd.")) and m is not None]
        for module in {id(m): m for m in targets}.values():
            if only is not None and module.__name__ != only:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapper)

    def install(self):
        from kpd.cli import RunRecord

        for name, module, attr, on_result in SPANS:
            fn = getattr(importlib.import_module(module), attr)
            self._patch_everywhere(module, attr, self._span_wrapper(name, fn, on_result))
        for name, module, attr, only in COUNTERS:
            fn = getattr(importlib.import_module(module), attr)
            self._patch_everywhere(module, attr, self._counter_wrapper(name, fn), only)
        to_json = RunRecord.to_json

        def count_bytes(tracer, args, kwargs, text):
            # The payload, not the whole text: the metadata's wall time
            # changes length from run to run, the payload never does.
            tracer.count("cli.record_bytes", len(args[0].payload_json().encode("utf-8")))

        self._restore.append((RunRecord, "to_json", to_json))
        RunRecord.to_json = self._span_wrapper("cli.to_json", to_json, count_bytes)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reduction --------------------------------------------------------

    def layer_metrics(self, picked):
        """Per-layer totals over one round.  ``picked`` maps each operation
        to (pass, time scale): the operation contributes that pass's spans
        and counters, its ``.ms`` (self time) multiplied by the scale."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals = defaultdict(float)
        for index, (name, start, end, parent, op, pas) in enumerate(self.spans):
            if picked[op][0] != pas:
                continue
            totals[name + ".ms"] += 1000.0 * (end - start - child_time[index]) * picked[op][1]
            totals[name + ".calls"] += 1
        for (op, pas), counts in self.counts.items():
            if picked[op][0] != pas:
                continue
            for name, value in counts.items():
                if name.endswith(".dps_max"):
                    totals[name] = max(totals[name], value)
                else:
                    totals[name] += value
        return dict(totals)

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **meta,
                    "span_fields": ["name", "start", "end", "parent", "op", "pass"],
                    "spans": self.spans,
                    "counts": [[op, pas, dict(c)] for (op, pas), c in self.counts.items()],
                },
                fh,
            )
