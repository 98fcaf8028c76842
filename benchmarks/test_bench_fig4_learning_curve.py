"""Bench: Figure 4 -- the TD(λ) Q-learning curve.

Paper: 120 training samples per ADL; convergence at the 95% criterion
after 49 (tooth-brushing) / 56 (tea-making) iterations and at 98%
after 91 / 98.  Single-run numbers are seed noise, so the bench runs
a seed set and asserts the shape: every seed converges within the
120-sample budget at both criteria, 98% needs at least as many
iterations as 95% (strictly more on average), and the mean 95% figure
falls in the paper's tens-of-iterations band.
"""

from repro.core.metrics import mean
from repro.evalx.learning_curve import plan_learning_curve
from repro.evalx.parallel import run_section

SEEDS = tuple(range(10))


def _run_both(paper_adls):
    return [
        run_section(
            plan_learning_curve(definition.adl, episodes=120, seeds=SEEDS)
        )
        for definition in paper_adls
    ]


def test_fig4_learning_curve(benchmark, paper_adls):
    results = benchmark.pedantic(
        _run_both, args=(paper_adls,), rounds=1, iterations=1
    )
    for result in results:
        print("\n" + result.to_table())
        print(result.representative_plot())
        assert result.convergence_rate(0.95) == 1.0
        assert result.convergence_rate(0.98) == 1.0
        mean_95 = mean(result.converged_iterations(0.95))
        mean_98 = mean(result.converged_iterations(0.98))
        assert 10 <= mean_95 <= 80
        assert mean_98 > mean_95
        assert max(result.converged_iterations(0.98)) <= 120
        for run in result.runs:
            assert run.curve.greedy_accuracy[-1] == 1.0
            # Care principle 2: the converged policy prompts minimally.
            assert run.curve.minimal_fraction[-1] == 1.0
