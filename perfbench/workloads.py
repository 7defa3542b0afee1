"""The four workloads: seeded inputs, the timed operation and its check.

A workload's inputs are one round of operations, drawn from the seed during
set-up; a run repeats whole rounds, so every run attempts the same mix and
the share of failed operations is the same in every run. Configs are drawn
from the benchmark's own generators and handed to the program as
ChannelConfig objects (or, for the CLI, JSON files).
"""

import contextlib
import io
import json
import math

import numpy as np

import checks
import reference as ref
from marc_cap import channel, cli, region, sumcap

# Built-in examples 1 and 2 of the examples command.
EXAMPLES = {
    1: {"P": [6.0, 4.0], "P_r": 4.0, "N_r": 1.0, "N_delta": 1.0},
    2: {"P": [6.0, 0.4], "P_r": 4.0, "N_r": 1.0, "N_delta": 1.0},
}

# Configs hit by the sampled scan's rejection fault: one normalised power
# below 0.01, so almost every Dirichlet draw over the whole simplex is
# dropped and the scan reports InactiveClass although Active equalizing
# rules exist. They do not depend on the seed and fail in every round.
SCAN_FAULT_CONFIGS = (
    {"P": [37.91, 10.89, 0.01386, 0.2739], "P_r": 0.3084, "N_r": 1.0, "N_delta": 9.918},
    {"P": [0.03082, 0.04818, 7.249], "P_r": 19.83, "N_r": 1.0, "N_delta": 9.325},
)


class Item:
    """One operation's input: the config spec, the program's config object
    and labels the check needs."""

    def __init__(self, spec, kind, known_fault=False, example=None):
        self.spec = spec
        self.kind = kind
        self.known_fault = known_fault
        self.example = example
        self.config = channel.ChannelConfig(len(spec["P"]), tuple(spec["P"]), spec["P_r"], spec["N_r"], spec["N_delta"])


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _draw_spec(rng, K, powers=(0.5, 20.0)):
    P = [float(p) for p in _log_uniform(rng, *powers, K)]
    return {"P": P, "P_r": float(_log_uniform(rng, 0.5, 20.0)), "N_r": 1.0, "N_delta": float(_log_uniform(rng, 0.2, 5.0))}


def _draw_until(rng, K, accept, **kw):
    while True:
        spec = _draw_spec(rng, K, **kw)
        if accept(spec):
            return spec


def _equalized(spec):
    return ref.maxmin(spec["P"], spec["P_r"], spec["N_r"], spec["N_delta"])[0] == "Equalized"


class SumcapK2:
    """sum_capacity at resolution 1e-5 on K=2 Equalized configs: the two
    built-in examples plus seeded configs whose feasible alpha_1 interval
    holds 14k to 18k grid points (example 1 holds 16,668), so operations
    cost alike."""

    RESOLUTION = 1e-5
    SEEDED = 8
    GRID_POINTS = (14000, 18000)

    def inputs(self, rng):
        items = [Item(EXAMPLES[i], "example", example=i) for i in (1, 2)]
        for _ in range(self.SEEDED):
            items.append(Item(_draw_until(rng, 2, self._accept), "seeded"))
        return items

    def _accept(self, spec):
        if not _equalized(spec):
            return False
        lo, hi, _ = checks.feasible_alpha1(spec)
        return self.GRID_POINTS[0] <= (hi - lo) / self.RESOLUTION <= self.GRID_POINTS[1]

    def warm(self):
        sumcap.sum_capacity(Item(EXAMPLES[1], "warm").config, resolution=1e-3)

    def run(self, item):
        return sumcap.sum_capacity(item.config, resolution=self.RESOLUTION)

    def check(self, item, result):
        checks.check_two_user_scan(item.spec, result, self.RESOLUTION)
        if item.example:
            checks.check_example(item.example, item.spec, result)


class ScanKmany:
    """sum_capacity then the outer-family scan on K=3..6 Equalized configs:
    per K one symmetric and two asymmetric configs, plus the two fixed
    configs of the sampled-scan fault. Asymmetric draws keep the equalizer
    constant below every normalised power, so every Dirichlet draw is
    feasible and the scan stops at 64 samples once a rule is Active."""

    KS = (3, 4, 5, 6)
    ASYMMETRIC_PER_K = 2

    def inputs(self, rng):
        items = []
        for K in self.KS:
            spec = _draw_until(rng, 1, _equalized)
            spec["P"] = spec["P"] * K
            items.append(Item(spec, "symmetric"))
            for _ in range(self.ASYMMETRIC_PER_K):
                items.append(Item(_draw_until(rng, K, self._accept, powers=(1.0, 10.0)), "asymmetric"))
        items.extend(Item(spec, "scan_fault", known_fault=True) for spec in SCAN_FAULT_CONFIGS)
        return items

    @staticmethod
    def _accept(spec):
        regime, x, _ = ref.maxmin(spec["P"], spec["P_r"], spec["N_r"], spec["N_delta"])
        return regime == "Equalized" and x * x <= min(spec["P"]) / max(spec["P"])

    def warm(self):
        self.run(Item({"P": [5.0] * 3, "P_r": 3.0, "N_r": 1.0, "N_delta": 2.0}, "warm"))

    def run(self, item):
        result = sumcap.sum_capacity(item.config)
        return result, sumcap.scan_active_rules(item.config, result["solution"], family="outer")

    def check(self, item, output):
        result, outer = output
        checks.check_sampled(item.spec, result, outer, symmetric=item.kind == "symmetric")


class RegionK2:
    """build_df_region then build_outer_region at step 0.005 on one seeded
    Bottleneck and one seeded Equalized K=2 config."""

    STEP = 0.005
    COARSE_STEP = 0.02

    def __init__(self):
        self._coarse = {}

    def inputs(self, rng):
        return [
            Item(_draw_until(rng, 2, lambda s: not _equalized(s)), "Bottleneck"),
            Item(_draw_until(rng, 2, _equalized), "Equalized"),
        ]

    def warm(self):
        config = Item(EXAMPLES[1], "warm").config
        region.build_df_region(config, 0.05)
        region.build_outer_region(config, 0.05)

    def run(self, item):
        return {
            "inner": region.build_df_region(item.config, self.STEP).vertices,
            "outer": region.build_outer_region(item.config, self.STEP).vertices,
        }

    def check(self, item, fine):
        key = id(item)
        if key not in self._coarse:
            self._coarse[key] = {
                "inner": region.build_df_region(item.config, self.COARSE_STEP).vertices,
                "outer": region.build_outer_region(item.config, self.COARSE_STEP).vertices,
            }
        checks.check_region(item.spec, fine, self._coarse[key])


class VerifySuite:
    """marc-cap verify <config> --suite all, in process with stdout
    captured, on one seeded K=2 and one seeded K=3 config."""

    def __init__(self, workdir):
        self.workdir = workdir
        self._first = {}

    def inputs(self, rng):
        items = []
        for K in (2, 3):
            item = Item(_draw_spec(rng, K), f"K={K}")
            item.path = self._write(f"verify-{K}.json", item.spec)
            items.append(item)
        return items

    def _write(self, name, spec):
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / name
        path.write_text(json.dumps(spec))
        return str(path)

    def warm(self):
        path = self._write("verify-warm.json", EXAMPLES[1])
        self._cli(["verify", path, "--suite", "all", "--n", "100000"])

    @staticmethod
    def _cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def run(self, item):
        return self._cli(["verify", item.path, "--suite", "all"])

    def check(self, item, output):
        code, stdout = output
        checks.check_verify(item.spec, code, stdout, self._first.get(item.path))
        self._first.setdefault(item.path, stdout)

    @staticmethod
    def counters(output):
        return {"cli.stdout_bytes": len(output[1].encode())}


def make(name, workdir):
    """The workload called name; workdir holds verify_suite's config files."""
    if name == "sumcap_k2":
        return SumcapK2()
    if name == "scan_kmany":
        return ScanKmany()
    if name == "region_k2":
        return RegionK2()
    if name == "verify_suite":
        return VerifySuite(workdir)
    raise ValueError(f"unknown workload {name!r}")
