"""Span tracing from outside the program.

Tracer.install wraps the public functions of each marc_cap module (plus the
region candidate grids, which are private) and rebinds every module
attribute that held an original, so calls made through any namespace that
imported the function are traced. A span records its duration and the time
covered by its child spans; self time is the difference. Aggregates stay in
memory per function and are read out once the run ends.
"""

import functools
import inspect
import math
import sys
import time

LAYERS = ("channel", "bounds", "polymatroid", "sumcap", "region", "verify", "_kernels", "cli")
PRIVATE_TRACED = {"region": ("_df_pentagon_grid", "_outer_pentagon_grid")}


def _lattice_points(args, kwargs, result):
    """Points i in N^K with sum(i) <= n that lattice_maxmin evaluates."""
    K = len(args[0])
    n = args[4] if len(args) > 4 else kwargs["n"]
    return math.comb(n + K, K)


def _rule_points(args, kwargs, scan):
    """Grid points of a K=2 scan's feasible interval at its resolution."""
    if not scan.feasible_box:
        return 0
    name = "alpha1" if "alpha1" in scan.feasible_box else "gamma1"
    lo, hi = scan.feasible_box[name]
    return round((hi - lo) / scan.resolution) + 1


# Counters read off a call's arguments or result: function -> (counter, fn).
OBSERVERS = {
    "sumcap.scan_active_rules": (
        ("sumcap.samples_returned", lambda a, k, r: len(r.samples)),
        ("sumcap.rule_points", _rule_points),
    ),
    "region.convex_hull": (
        ("region.hull_input_points", lambda a, k, r: len(a[0])),
        ("region.hull_vertices", lambda a, k, r: len(r)),
    ),
    "verify.mc_relay_conditional_variance": (("verify.mc_samples", lambda a, k, r: r.n),),
    "verify.chord_check": (("verify.chord_trials", lambda a, k, r: r.trials),),
    "verify.dominance_check": (("verify.dominance_trials", lambda a, k, r: r.trials),),
    "_kernels.lattice_maxmin": (("kernels.lattice_points", _lattice_points),),
    "_kernels.min_snr_batch": (("kernels.min_snr_rows", lambda a, k, r: len(r)),),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        # Open spans: [layer, time covered by children in ns].
        self._stack = []
        # function -> [calls, total ns, self ns, ns not inside a span of the same layer]
        self.functions = {}
        self.counters = {}

    def _wrap(self, name, layer, fn):
        stats = self.functions.setdefault(name, [0, 0, 0, 0])
        observers = OBSERVERS.get(name, ())
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [layer, 0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - span[1]
                if stack:
                    stack[-1][1] += duration
                if not stack or stack[-1][0] != layer:
                    stats[3] += duration
            for counter, observe in observers:
                counters[counter] = counters.get(counter, 0) + observe(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the layers' functions and rebind them in every module of the
        package."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                traced_private = attr in PRIVATE_TRACED.get(layer, ())
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and (
                    not attr.startswith("_") or traced_private
                ):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        namespaces = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(module, attr, wrapped[id(obj)])

    def calls(self, *names):
        return sum(self.functions.get(n, (0,))[0] for n in names)

    def total_ms(self, *names):
        return sum(self.functions.get(n, (0, 0))[1] for n in names) / 1e6

    def self_ms(self, *names):
        return sum(self.functions.get(n, (0, 0, 0))[2] for n in names) / 1e6

    def layer_ms(self, layer):
        """Time inside the layer's outermost spans (children included)."""
        return sum(s[3] for n, s in self.functions.items() if n.split(".")[0] == layer) / 1e6

    def layer_self_ms(self, layer):
        return sum(s[2] for n, s in self.functions.items() if n.split(".")[0] == layer) / 1e6

    def layer_totals(self):
        """Per-layer metric totals over the traced operations: times in ms,
        counts as counts."""
        t = self
        c = self.counters
        return {
            "sumcap.scan_ms": t.total_ms("sumcap.scan_active_rules"),
            "sumcap.scan_self_ms": t.self_ms("sumcap.scan_active_rules"),
            "sumcap.rules_classified": t.calls("sumcap.classify_inner_rule", "sumcap.classify_outer_rule"),
            "sumcap.rule_points": c.get("sumcap.rule_points", 0),
            "sumcap.samples_returned": c.get("sumcap.samples_returned", 0),
            "sumcap.equalizer_ms": t.total_ms("sumcap.solve_equalizer"),
            "bounds.ms": t.layer_ms("bounds"),
            "bounds.family_builds": t.calls(
                "bounds.relay_cutset_function", "bounds.dest_cutset_function",
                "bounds.relay_df_function", "bounds.dest_df_function",
            ),
            "bounds.scalar_calls": t.calls(
                "bounds.outer_bound_relay", "bounds.outer_bound_dest", "bounds.df_bound_relay", "bounds.df_bound_dest"
            ),
            "bounds.beta_star_calls": t.calls("bounds.beta_star"),
            "channel.awgn_calls": t.calls("channel.awgn_capacity"),
            "polymatroid.intersections": t.calls("polymatroid.intersection_max_sum"),
            "polymatroid.intersection_ms": t.total_ms("polymatroid.intersection_max_sum"),
            "polymatroid.certify_calls": t.calls("polymatroid.certify"),
            "polymatroid.certify_ms": t.total_ms("polymatroid.certify"),
            "region.grid_ms": t.total_ms("region._df_pentagon_grid", "region._outer_pentagon_grid"),
            "region.hull_ms": t.total_ms("region.convex_hull"),
            "region.hull_input_points": c.get("region.hull_input_points", 0),
            "region.hull_vertices": c.get("region.hull_vertices", 0),
            "verify.mc_ms": t.total_ms("verify.mc_relay_conditional_variance"),
            "verify.mc_samples": c.get("verify.mc_samples", 0),
            "verify.grid_ms": t.total_ms("verify.grid_maxmin"),
            "verify.chord_ms": t.total_ms("verify.chord_check"),
            "verify.chord_trials": c.get("verify.chord_trials", 0),
            "verify.dominance_ms": t.total_ms("verify.dominance_check"),
            "verify.dominance_trials": c.get("verify.dominance_trials", 0),
            "kernels.lattice_ms": t.total_ms("_kernels.lattice_maxmin"),
            "kernels.lattice_points": c.get("kernels.lattice_points", 0),
            "kernels.min_snr_ms": t.total_ms("_kernels.min_snr_batch"),
            "kernels.min_snr_rows": c.get("kernels.min_snr_rows", 0),
            "cli.self_ms": t.layer_self_ms("cli"),
            "cli.stdout_bytes": c.get("cli.stdout_bytes", 0),
            "cli.commands": t.calls("cli.main"),
        }

    def table(self):
        """Per-function aggregates for the trace file."""
        return {
            name: {"calls": s[0], "total_ms": s[1] / 1e6, "self_ms": s[2] / 1e6}
            for name, s in sorted(self.functions.items())
            if s[0]
        }
