"""Output checks and model-error figures for the batch workloads.

Each check returns a list of failure messages (empty when the artefact is
sound). The model figures compare simulated outputs with the numbers the
paper reports; they are not validated against hardware.
"""

from __future__ import annotations

import math
from typing import Dict, List


def table6_failures(result) -> List[str]:
    """The per-configuration Table 6 invariants of ``benchmarks/test_bench_table6.py``.

    VACA's cost grows with the number of slow ways, Hybrid's 3-1-0 equals
    VACA's, and YAPD is a single number. These hold for every seed.
    """
    degs = result.data["degradations"]
    failures = []
    if not (degs["3-1-0"]["VACA"] <= degs["2-2-0"]["VACA"]
            <= degs["0-4-0"]["VACA"]):
        failures.append("table6: VACA cost does not grow with slow ways")
    if degs["3-1-0"]["Hybrid"] != degs["3-1-0"]["VACA"]:
        failures.append("table6: Hybrid 3-1-0 differs from VACA 3-1-0")
    if degs["3-1-0"]["YAPD"] != degs["4-0-0"]["YAPD"]:
        failures.append("table6: YAPD is not a single number")
    return failures


def table6_shape_misses(result) -> List[str]:
    """The weighted-sum relations of ``benchmarks/test_bench_table6.py`` not met.

    These are the paper's ordering of the weighted sums (YAPD <= 1.5x
    Hybrid, Hybrid <= 1.2x VACA). Over reduced measured windows they hold
    for some trace seeds and not others, so they are reported as a model
    figure rather than counted as failed operations.
    """
    weighted = result.data["weighted"]
    misses = []
    if not weighted["YAPD"] <= weighted["Hybrid"] * 1.5:
        misses.append("YAPD weighted sum above 1.5x Hybrid")
    if not weighted["Hybrid"] <= weighted["VACA"] * 1.2:
        misses.append("Hybrid weighted sum above 1.2x VACA")
    return misses


def series_failures(result) -> List[str]:
    """Per-benchmark CPI increases (Fig. 9, Section 4.5) must be finite."""
    return [
        f"{result.experiment}: non-finite {label} value for {name}"
        for label, values in result.data["series"].items()
        for name, value in values.items()
        if not math.isfinite(value)
    ]


def _unit(value: float) -> bool:
    return 0.0 <= value <= 1.0


def _breakdown_failures(label: str, breakdown) -> List[str]:
    names = [None] + list(breakdown.scheme_losses)
    return [
        f"{label}: yield of {name or 'base'} outside [0, 1]"
        for name in names
        if not _unit(breakdown.yield_with(name))
    ]


def yield_failures(result, chips: int) -> List[str]:
    """Yields in [0, 1] and chip counts within the population."""
    data = result.data
    label = f"{result.experiment}"
    if "breakdown" in data:
        return _breakdown_failures(label, data["breakdown"])
    if "breakdowns" in data:
        return [
            failure
            for policy, breakdown in data["breakdowns"].items()
            for failure in _breakdown_failures(f"{label}/{policy}", breakdown)
        ]
    if result.experiment == "fig8":
        failures = []
        if len(data["latency_ns"]) != chips:
            failures.append("fig8: scatter does not hold every chip")
        if not -1.0 <= data["correlation"] <= 1.0:
            failures.append("fig8: correlation outside [-1, 1]")
        return failures
    if result.experiment == "sec42":
        return [
            f"sec42: {key} outside [0, {chips}]"
            for key in ("base_losses", "h_losses")
            if not 0 <= data[key] <= chips
        ]
    if result.experiment == "estimators":
        return [
            f"estimators: {policy}/{kind}/{figure} estimate or CI invalid"
            for policy, kinds in data["policies"].items()
            for kind, figures in kinds.items()
            for figure, est in figures.items()
            if not (_unit(est["estimate"])
                    and est["ci_low"] <= est["estimate"] <= est["ci_high"])
        ]
    return [f"{label}: no yield check for this artefact"]


def table6_error_pp(result, paper: Dict[str, tuple]) -> float:
    """Mean |simulated - paper| Table 6 degradation, in percentage points."""
    degs = result.data["degradations"]
    errors = [
        abs(degs[config][scheme] * 100.0 - value)
        for config, values in paper.items()
        for scheme, value in zip(("YAPD", "VACA", "Hybrid"), values)
        if value is not None and degs[config][scheme] is not None
    ]
    return sum(errors) / len(errors)


def table2_error_chips(result, paper: Dict[str, tuple]) -> float:
    """Mean |simulated - paper| Table 2 cell, in chips (reasons and total)."""
    breakdown = result.data["breakdown"]
    columns: Dict[str, List[int]] = {"base": []}
    for name in breakdown.scheme_losses:
        columns[name] = []
    for _, base, losses in breakdown.rows():
        columns["base"].append(base)
        for name in breakdown.scheme_losses:
            columns[name].append(losses[name])
    columns["base"].append(breakdown.base_total)
    for name in breakdown.scheme_losses:
        columns[name].append(breakdown.scheme_total(name))
    errors = [
        abs(simulated - reported)
        for name, values in paper.items()
        for simulated, reported in zip(columns[name], values)
    ]
    return sum(errors) / len(errors)
