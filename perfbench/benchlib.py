"""Shared helpers of the benchmark's Python tooling: BENCHMARK.json loading,
order statistics, metric-name rules and result-line validation."""

import json
import os
import re
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_benchmark(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def valid_name(name):
    """The benchmark's metric/workload name rule."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much `second` is worse than `first`, as a share of `first`
    (negative when it is better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def validate_result(result, expected_metrics):
    """Returns a list of schema problems of one result line (empty if it
    is valid).  `expected_metrics` maps each metric name the run must
    report to its declared unit."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys must be exactly %s" % sorted(RESULT_KEYS)]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if result["correct"] is not True:
        return problems
    if result["failed"] != 0:
        problems.append("a correct run reports failed operations")
    for name, unit in expected_metrics.items():
        entry = metrics.get(name)
        if entry is None:
            problems.append("metric %s is missing" % name)
            continue
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append("metric %s must hold exactly value and unit" % name)
            continue
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append("metric %s is not a number" % name)
        if entry["unit"] != unit:
            problems.append("metric %s has unit %r, declared %r"
                            % (name, entry["unit"], unit))
    for name in metrics:
        if not valid_name(name):
            problems.append("metric name %r breaks the naming rule" % name)
        if name not in expected_metrics:
            problems.append("metric %s is not declared" % name)
    return problems


def expected_metrics(benchmark, trace):
    """Metric name -> unit a run with this trace setting must report."""
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in benchmark[key]}
