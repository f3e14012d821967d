"""Regenerate every table and figure, and judge the paper's claims on it.

One test per figure of ``repro.bench.claims.FIGURES``: compute it at quick
scale, print it, and judge its claims from the claims table.  The claims,
their constants and their EXPERIMENTS.md sentences live only in that
table; ``python -m repro claims`` judges the same table without pytest.
"""

import pytest

from repro.bench.claims import FIGURES, judge


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_claims(benchmark, name):
    figure = FIGURES[name]
    result = benchmark.pedantic(lambda: figure.compute(quick=True), rounds=1, iterations=1)
    print()
    print(figure.render(result))
    verdicts = judge(name, result)
    print("\n".join(verdict.render() for verdict in verdicts))
    assert all(verdict.ok for verdict in verdicts), [
        verdict.claim.sentence for verdict in verdicts if not verdict.ok
    ]
