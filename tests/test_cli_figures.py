"""Fast CLI figure tests: the experiment functions are stubbed so these
exercise only the CLI's wiring and rendering."""

import pytest

from repro.bench.experiments import BreakdownResult, SeriesResult
from repro.cli import main
from repro.metrics import StageTimings


def series(title="Stub series"):
    return SeriesResult(
        title=title, x_label="replicas", x_values=[1, 2],
        series={"SC-FINE": [10.0, 20.0], "EAGER": [9.0, 11.0]},
    )


@pytest.fixture
def stubbed(monkeypatch):
    from repro.bench import experiments

    monkeypatch.setattr(experiments, "fig3", lambda quick, seed: series("Figure 3 stub"))
    monkeypatch.setattr(
        experiments, "fig4",
        lambda quick, seed: {
            "25%": BreakdownResult(
                title="Figure 4 stub",
                breakdowns={"EAGER": StageTimings(global_=5.0)},
            )
        },
    )
    monkeypatch.setattr(
        experiments, "fig5",
        lambda quick, seed: {
            "shopping": {"throughput": series("5a"), "response": series("5b")}
        },
    )
    monkeypatch.setattr(
        experiments, "fig6", lambda quick, seed: {"shopping": series("Figure 6 stub")}
    )
    monkeypatch.setattr(
        experiments, "fig7", lambda quick, seed: {"ordering": series("Figure 7 stub")}
    )
    return experiments


class TestFigureCommands:
    def test_fig3(self, stubbed, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3 stub" in out
        assert "SC-FINE" in out
        assert "legend:" in out  # the ASCII chart rendered too

    def test_fig4(self, stubbed, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4 stub" in out
        assert "global" in out

    def test_fig5(self, stubbed, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "5a" in out and "5b" in out

    def test_fig6_and_fig7(self, stubbed, capsys):
        assert main(["fig6"]) == 0
        assert "Figure 6 stub" in capsys.readouterr().out
        assert main(["fig7"]) == 0
        assert "Figure 7 stub" in capsys.readouterr().out

    def test_all_runs_every_figure(self, stubbed, capsys):
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        for marker in ("Figure 3 stub", "Figure 4 stub", "5a",
                       "Figure 6 stub", "Figure 7 stub"):
            assert marker in out

    def test_full_flag_threads_through(self, monkeypatch, capsys):
        from repro.bench import experiments

        seen = {}

        def fake_fig3(quick, seed):
            seen["quick"] = quick
            seen["seed"] = seed
            return series()

        monkeypatch.setattr(experiments, "fig3", fake_fig3)
        main(["fig3", "--full", "--seed", "5"])
        assert seen == {"quick": False, "seed": 5}


class TestClaimsCommand:
    """``repro claims`` over a table cut down to Figure 3, with a stubbed
    figure: the real fig3 predicates judge it."""

    @pytest.fixture
    def fig3_only(self, monkeypatch):
        from repro.bench import claims, experiments

        monkeypatch.setattr(claims, "FIGURES", {"fig3": claims.FIGURES["fig3"]})

        def stub(eager):
            result = SeriesResult(
                title="Figure 3 stub", x_label="update%", x_values=[0, 50, 100],
                series={"SC-COARSE": [100.0, 60.0, 40.0], "SC-FINE": [100.0, 61.0, 41.0],
                        "SESSION": [100.0, 60.0, 40.0], "EAGER": eager},
            )
            monkeypatch.setattr(experiments, "fig3", lambda quick, seed: result)
        return stub

    def test_exits_zero_when_every_claim_holds(self, fig3_only, capsys):
        fig3_only([100.0, 40.0, 20.0])
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "ok   fig3-eager-behind" in out
        assert "claims: 4/4 hold" in out
        assert out.rstrip().endswith("claims: PASS")

    def test_exits_one_naming_the_failing_claim(self, fig3_only, capsys):
        fig3_only([100.0, 50.0, 35.0])  # EAGER within 0.75x of SESSION
        assert main(["claims"]) == 1
        out = capsys.readouterr().out
        assert "FAIL fig3-eager-behind" in out
        assert "failed: fig3-eager-behind" in out
        assert "fig3-monotone" in out and "FAIL fig3-monotone" not in out
        assert out.rstrip().endswith("claims: FAIL")
