"""The paper's claims, each stated once.

:data:`FIGURES` says how each figure is computed (the
:mod:`repro.bench.experiments` function of its name, looked up at call
time) and rendered; ``repro table1`` … ``fig7`` and ``repro all`` print
through it.  :data:`CLAIMS` holds every shape the reproduction asserts: an
id, its figure, its EXPERIMENTS.md sentence, and the comparisons
``(name, measured, op, bound)`` that must all hold on the figure's result.
``repro claims`` and ``benchmarks/bench_claims.py`` judge them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import experiments

__all__ = ["Claim", "Figure", "Verdict", "CLAIMS", "FIGURES", "judge", "evaluate", "report"]

EAGER, SESSION, COARSE, FINE = "EAGER", "SESSION", "SC-COARSE", "SC-FINE"
LAZY = (SESSION, COARSE, FINE)
MIXES = ("shopping", "ordering")
#: a flat p99 past the knee: bounded by queueing inside the MPL cap and the
#: admission queue (tens of ms against an uncongested ~4.5 ms), never by the
#: offered load
P99_FLAT_FACTOR = 25
OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Figure:
    """One regenerable artefact: ``experiments.<name>(quick=, seed=)``."""

    name: str
    #: a table sweep's number format; ``None`` for the paper's Section V
    #: artefacts, which render with their charts and ``repro all`` prints
    floatfmt: Optional[str] = None
    #: the seed its claims are judged at (the one its sweep always ran at)
    seed: int = 0

    @property
    def paper(self) -> bool:
        return self.floatfmt is None

    def compute(self, quick: bool = True, seed: Optional[int] = None) -> Any:
        function = getattr(experiments, self.name)
        return function(quick=quick, seed=self.seed if seed is None else seed)

    def render(self, result: Any) -> str:
        if isinstance(result, str):
            return result
        if isinstance(result, dict):
            return "\n\n".join(map(self.render, result.values()))
        if self.floatfmt is None:
            return result.render()
        return result.render(floatfmt=self.floatfmt, chart=False)


FIGURES: dict[str, Figure] = {figure.name: figure for figure in (
    Figure("table1"), Figure("fig3"), Figure("fig4"), Figure("fig5"), Figure("fig6"),
    Figure("fig7"), Figure("ablation_tableset", "{:.3f}"),
    Figure("ablation_early_certification", "{:.1f}", seed=2),
    Figure("ablation_replica_speed", "{:.2f}"), Figure("relaxed_currency", "{:.2f}", seed=1),
    Figure("tpcc_contention", "{:.1f}"), Figure("availability", "{:.1f}"),
    Figure("saturation", "{:.3f}"), Figure("retry_storm", "{:.2f}"),
)}


@dataclass(frozen=True)
class Claim:
    """One shape a figure must show: it makes comparisons, and all hold."""

    id: str
    figure: str
    sentence: str
    #: the result's ``(name, measured, op, bound)`` rows; each holds when
    #: ``OPS[op](measured, bound)``
    comparisons: Callable[[Any], list[tuple]]

    def judge(self, result: Any) -> Verdict:
        rows = self.comparisons(result)
        return Verdict(self, bool(rows) and all(OPS[op](a, b) for _n, a, op, b in rows), rows)


@dataclass(frozen=True)
class Verdict:
    """One claim judged, with the comparisons it made."""

    claim: Claim
    ok: bool
    comparisons: list[tuple]

    def render(self) -> str:
        def fmt(value):
            return f"{value:.4g}" if isinstance(value, float) else str(value)
        shown = " ".join(f"{name}={fmt(a)}{op}{fmt(b)}" for name, a, op, b in self.comparisons)
        return f"{'ok  ' if self.ok else 'FAIL'} {self.claim.id:<36} {shown}"


def _claims(figure: str, *claims) -> tuple[Claim, ...]:
    return tuple(Claim(claim_id, figure, *rest) for claim_id, *rest in claims)


def _updates(r) -> list:
    """Figure 3 is judged at every update% >= 25 a sweep has (two points do)."""
    return [x for x in r.x_values if x >= 25]


def _stages(r) -> list:
    """Figure 4's update breakdowns per mix, keyed ``25%`` / ``100%``."""
    return [(mix.split()[0], result.breakdowns) for mix, result in r.items()]


def _fig5(r, mix: str, label: str, at: int = 8, metric: str = "throughput") -> float:
    return r[mix][metric].value(label, at)


def _ordering_scaling(r, label: str) -> float:
    return _fig5(r, "ordering", label) / _fig5(r, "ordering", label, at=1)


def _knee(r, curve: str, arm: str, high: bool) -> float:
    """A saturation curve's value below (first load) or past (last) the knee."""
    return r[curve].series[arm][-1 if high else 0]


def _widths(r) -> list:
    """Ablation D3's two start-delay series by width, as one ``(fine, coarse)``."""
    return [(r.series["SC-FINE version (ms)"], r.series["SC-COARSE version (ms)"])]


CLAIMS: tuple[Claim, ...] = (
    *_claims(
        "table1",
        ("table1-rows", "The T5 and T6 rows are the paper's, cell for cell.",
         lambda t: [(row[:2], row in [" ".join(line.split()) for line in t.splitlines()],
                     "==", True) for row in ("T5 B,C 5 1 5 5", "T6 A 6 6 5 5")]),
        ("table1-t6-start", "T6 needs V_local >= 1 under SC-FINE, >= 5 under SC-COARSE.",
         lambda t: [(need.split()[0], need in t, "==", True)
                    for need in ("SC-FINE V_local >= 1", "SC-COARSE V_local >= 5")]),
    ),
    *_claims(
        "fig3",
        ("fig3-equal-at-zero", "All configurations are equal at 0 % updates.",
         lambda r: [("distinct@0", len({round(r.value(c, 0), 3) for c in r.series}), "==", 1)]),
        ("fig3-lazy-tracks-session", "SC-COARSE and SC-FINE are within 10 % of SESSION.",
         lambda r: [(f"{c}@{x}", abs(r.value(c, x) - r.value(SESSION, x)) / r.value(SESSION, x),
                     "<", 0.10) for x in _updates(r) for c in (COARSE, FINE)]),
        ("fig3-eager-behind", "EAGER is below 0.75x SESSION once updates reach 25 %.",
         lambda r: [(f"EAGER@{x}", r.value(EAGER, x), "<", 0.75 * r.value(SESSION, x))
                    for x in _updates(r)]),
        ("fig3-monotone", "Throughput falls strictly as the update share grows.",
         lambda r: [(f"{c}@{x}", a, ">", b) for c, values in r.series.items()
                    for x, a, b in zip(r.x_values, values, values[1:])]),
    ),
    *_claims(
        "fig4",
        ("fig4-global-only-eager", "Only EAGER has a global commit stage.",
         lambda r: [(f"EAGER@{mix}", b[EAGER].global_, ">", 0) for mix, b in _stages(r)]
         + [(f"{c}@{mix}", b[c].global_, "==", 0.0) for mix, b in _stages(r) for c in LAZY]),
        ("fig4-global-dominates", "EAGER's global delay is over 3x every lazy sync delay.",
         lambda r: [(f"EAGER/{c}@{mix}", b[EAGER].global_, ">", 3 * b[c].synchronization_delay)
                    for mix, b in _stages(r) for c in LAZY]),
        ("fig4-eager-starts-at-once", "EAGER never waits at start.",
         lambda r: [(f"EAGER@{mix}", b[EAGER].version, "==", 0.0) for mix, b in _stages(r)]),
        ("fig4-fine-start-bounded", "SC-FINE's start delay is at most SC-COARSE's x1.25 + 0.2.",
         lambda r: [(f"SC-FINE@{mix}", b[FINE].version, "<=", b[COARSE].version * 1.25 + 0.2)
                    for mix, b in _stages(r)]),
        ("fig4-eager-slowest", "EAGER has the slowest update transactions.",
         lambda r: [(f"EAGER/{c}@{mix}", b[EAGER].total, ">", b[c].total)
                    for mix, b in _stages(r) for c in (COARSE, SESSION)]),
    ),
    *_claims(
        "fig5",
        ("fig5-browsing-linear", "Browsing scales past 6x from 1 to 8 replicas everywhere.",
         lambda r: [(c, _fig5(r, "browsing", c), ">", 6.0 * _fig5(r, "browsing", c, at=1))
                    for c in r["browsing"]["throughput"].series]),
        ("fig5-browsing-equal", "Browsing at 8 replicas differs under 10 % across configs.",
         lambda r: [("max/min", max(at8) / min(at8), "<", 1.10) for at8 in [
             [_fig5(r, "browsing", c) for c in r["browsing"]["throughput"].series]]]),
        ("fig5-shopping-lazy-scales", "Shopping: the lazy configurations scale past 4x.",
         lambda r: [(c, _fig5(r, "shopping", c), ">", 4.0 * _fig5(r, "shopping", c, at=1))
                    for c in LAZY]),
        ("fig5-shopping-coarse-tracks-session", "Shopping: SC-COARSE within 12 % of SESSION at 8.",
         lambda r: [("|SC-COARSE-SESSION|", abs(_fig5(r, "shopping", COARSE) - s), "<", 0.12 * s)
                    for s in [_fig5(r, "shopping", SESSION)]]),
        ("fig5-shopping-eager-behind", "Shopping: EAGER is below 0.80x SESSION at 8 replicas.",
         lambda r: [("EAGER", _fig5(r, "shopping", EAGER), "<",
                     0.80 * _fig5(r, "shopping", SESSION))]),
        ("fig5-ordering-lazy-scales", "Ordering: the lazy configurations scale past 2.2x.",
         lambda r: [(c, _ordering_scaling(r, c), ">", 2.2) for c in LAZY]),
        ("fig5-ordering-eager-flat", "Ordering: EAGER's scaling is below 0.7x SESSION's.",
         lambda r: [("EAGER", _ordering_scaling(r, EAGER), "<",
                     0.7 * _ordering_scaling(r, SESSION))]),
        ("fig5-ordering-eager-response", "Ordering: EAGER's response at 8 is over 1.5x SESSION's.",
         lambda r: [("EAGER", _fig5(r, "ordering", EAGER, metric="response"), ">",
                     1.5 * _fig5(r, "ordering", SESSION, metric="response"))]),
    ),
    *_claims(
        "fig6",
        ("fig6-eager-grows", "EAGER's global delay grows from 2 to 8 replicas on both mixes.",
         lambda r: [(f"EAGER@{m}", r[m].value(EAGER, 8), ">", r[m].value(EAGER, 2))
                    for m in MIXES]),
        ("fig6-eager-towers", "At 8 replicas EAGER's delay is over 2.5x every lazy one.",
         lambda r: [(f"EAGER/{c}@{m}", r[m].value(EAGER, 8), ">", 2.5 * max(r[m].value(c, 8), 0.1))
                    for m in MIXES for c in LAZY]),
        ("fig6-ordering-gap", "Ordering at 8 replicas: EAGER's delay is over 4x the lazy max.",
         lambda r: [("EAGER", r["ordering"].value(EAGER, 8), ">",
                     4.0 * max(max(r["ordering"].value(c, 8) for c in LAZY), 0.1))]),
    ),
    *_claims(
        "fig7",
        ("fig7-lazy-flat", "Lazy response time at 8 replicas is at most 1.10x that at 1.",
         lambda r: [(f"{c}@{m}", r[m].value(c, 8), "<=", r[m].value(c, 1) * 1.10)
                    for m in MIXES for c in LAZY]),
        ("fig7-eager-rises", "Ordering: more replicas raise EAGER's response time.",
         lambda r: [("EAGER", r["ordering"].value(EAGER, 8), ">",
                     r["ordering"].value(EAGER, 1))]),
        ("fig7-eager-gap", "Ordering: EAGER's response at 8 is over 1.5x SESSION's.",
         lambda r: [("EAGER", r["ordering"].value(EAGER, 8), ">",
                     1.5 * r["ordering"].value(SESSION, 8))]),
    ),
    *_claims(
        "ablation_tableset",
        ("tableset-fine-waits-less", "One table per transaction: SC-FINE waits less.",
         lambda r: [("SC-FINE@1", fine[0], "<", coarse[0]) for fine, coarse in _widths(r)]),
        ("tableset-gap-closes", "The SC-FINE advantage shrinks at full table-set width.",
         lambda r: [("gap@4", coarse[-1] - fine[-1], "<", coarse[0] - fine[0])
                    for fine, coarse in _widths(r)]),
        ("tableset-fine-meets-coarse", "At full width SC-FINE waits over 0.6x SC-COARSE.",
         lambda r: [("SC-FINE@4", fine[-1], ">", 0.6 * coarse[-1])
                    for fine, coarse in _widths(r)]),
    ),
    *_claims(
        "ablation_early_certification",
        ("early-cert-aborts-at-replica", "Only early certification aborts at the replica.",
         lambda r: [("on", r.value("early aborts", "on"), ">", 0),
                    ("off", r.value("early aborts", "off"), "==", 0)]),
        ("early-cert-saves-certifications", "It leaves fewer aborts to the certifier.",
         lambda r: [("on", r.value("certifier aborts", "on"), "<",
                     r.value("certifier aborts", "off"))]),
    ),
    *_claims(
        "ablation_replica_speed",
        ("replica-speed-eager-global-grows", "EAGER's global delay grows with the speed spread.",
         lambda r: [("EAGER", g[-1], ">", g[0]) for g in [r.series["EAGER global (ms)"]]]),
        ("replica-speed-lazy-sync-small", "SC-COARSE's sync delay stays below EAGER's global.",
         lambda r: [(f"SC-COARSE@{x}", r.value("SC-COARSE sync (ms)", x), "<",
                     r.value("EAGER global (ms)", x)) for x in r.x_values]),
        ("replica-speed-hurts-eager-more", "EAGER's TPS drop is over 1.15x SC-COARSE's.",
         lambda r: [("EAGER drop", e[0] / e[-1], ">", c[0] / c[-1] * 1.15)
                    for e, c in [(r.series["EAGER TPS"], r.series["SC-COARSE TPS"])]]),
    ),
    *_claims(
        "relaxed_currency",
        ("relaxed-bound-enforced", "Measured staleness never exceeds the bound k.",
         lambda r: [(f"max@{k}", r.value("max staleness", k), "<=", k) for k in r.x_values]),
        ("relaxed-zero-bound-fresh", "k = 0 gives zero staleness.",
         lambda r: [("max@0", r.value("max staleness", 0), "==", 0)]),
        ("relaxed-staleness-grows", "Mean staleness at k = 25 is at least that at k = 2.",
         lambda r: [("mean@25", r.value("mean staleness", 25), ">=",
                     r.value("mean staleness", 2))]),
        ("relaxed-start-delay-shrinks", "Read start delay at k = 25 is at most k = 0's + 0.05.",
         lambda r: [("delay@25", r.value("read start delay (ms)", 25), "<=",
                     r.value("read start delay (ms)", 0) + 0.05)]),
    ),
    *_claims(
        "tpcc_contention",
        ("tpcc-lazy-tracks-session", "SC-COARSE and SC-FINE are within 15 % of SESSION.",
         lambda r: [(c, abs(r.value("TPS", c) - s) / s, "<", 0.15)
                    for s in [r.value("TPS", SESSION)] for c in (COARSE, FINE)]),
        ("tpcc-eager-behind", "EAGER is below 0.85x SESSION.",
         lambda r: [("EAGER", r.value("TPS", EAGER), "<", 0.85 * r.value("TPS", SESSION))]),
        ("tpcc-aborts-everywhere", "The hot district row aborts under every configuration.",
         lambda r: [(c, r.value("aborts", c), ">", 0) for c in r.x_values]),
    ),
    *_claims(
        "availability",
        ("availability-detected", "Heartbeats detect the crashed replica within 200 ms.",
         lambda r: [(f"detect@{c}", r.value("detect (ms)", c), op, bound)
                    for c in r.x_values for op, bound in ((">", 0.0), ("<=", 200.0))]),
        ("availability-dip-measured", "Every configuration commits before the crash, and its "
         "dip depth is a share of that baseline.",
         lambda r: [(c, r.value("baseline tps", c), ">", 0) for c in r.x_values]
         + [(f"depth@{c}", r.value("dip depth (%)", c), op, bound)
            for c in r.x_values for op, bound in ((">=", 0.0), ("<=", 100.0))]),
        ("availability-eager-dips-deeper", "EAGER stalls updates on the dead replica, so its "
         "throughput dips deeper than SC-FINE's.",
         lambda r: [("EAGER", r.value("dip depth (%)", EAGER), ">",
                     r.value("dip depth (%)", FINE))]),
    ),
    *_claims(
        "saturation",
        ("saturation-no-shed-below-knee", "Below the knee the protected arm sheds nothing.",
         lambda r: [("shed", _knee(r, "shed", "protected", False), "==", 0.0)]),
        ("saturation-unprotected-p99-diverges", "Past the knee the unprotected p99 is over 5x "
         "the protected one.",
         lambda r: [("unprotected", _knee(r, "p99", "unprotected", True), ">",
                     5 * _knee(r, "p99", "protected", True))]),
        ("saturation-protected-p99-flat", "Past the knee the protected p99 stays below 25x its "
         "uncongested value.",
         lambda r: [("protected", _knee(r, "p99", "protected", True), "<",
                     P99_FLAT_FACTOR * _knee(r, "p99", "protected", False))]),
        ("saturation-protected-sheds", "Past the knee the protected arm sheds over 5 % of the "
         "offered load.",
         lambda r: [("shed", _knee(r, "shed", "protected", True), ">", 0.05)]),
        ("saturation-goodput-kept", "Past the knee the protected goodput is over 0.7x the "
         "unprotected one.",
         lambda r: [("protected", _knee(r, "goodput", "protected", True), ">",
                     0.7 * _knee(r, "goodput", "unprotected", True))]),
    ),
    *_claims(
        "retry_storm",
        ("storm-sustains-without-budget", "Without a retry budget the storm outlives the "
         "spike: tail goodput stays below half the baseline.",
         lambda r: [("budget-off", r.value("tail tps", "budget-off"), "<",
                     0.5 * r.value("baseline tps", "budget-off"))]),
        ("storm-budget-recovers", "With a retry budget tail goodput returns to half the "
         "baseline.",
         lambda r: [("baseline", r.value("baseline tps", "budget-on"), ">", 0),
                    ("budget-on", r.value("tail tps", "budget-on"), ">=",
                     0.5 * r.value("baseline tps", "budget-on"))]),
        ("storm-only-budget-denies", "Only the budgeted arm has retries denied.",
         lambda r: [("budget-on", r.value("denied", "budget-on"), ">", 0),
                    ("budget-off", r.value("denied", "budget-off"), "==", 0)]),
    ),
)


def judge(figure: str, result: Any) -> list[Verdict]:
    """Every claim of ``figure``, judged on ``result``."""
    return [claim.judge(result) for claim in CLAIMS if claim.figure == figure]


def evaluate(quick: bool = True) -> list[Verdict]:
    """Compute each figure once, at its claims' seed, and judge every claim."""
    return [verdict for name, figure in FIGURES.items()
            for verdict in judge(name, figure.compute(quick))]


def report(verdicts: list[Verdict]) -> tuple[str, bool]:
    """One line per claim and per failed claim's sentence, then the verdict;
    and whether every claim held."""
    failed = [verdict.claim for verdict in verdicts if not verdict.ok]
    lines = [verdict.render() for verdict in verdicts]
    lines += ["", f"claims: {len(verdicts) - len(failed)}/{len(verdicts)} hold"]
    lines += [f"failed: {claim.id} — {claim.sentence}" for claim in failed]
    return "\n".join(lines + ["claims: " + ("FAIL" if failed else "PASS")]), not failed
