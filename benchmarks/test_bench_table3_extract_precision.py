"""Bench: Table 3 -- Extract precision of ADL step.

Paper: 320 samples (40 per tool), per-step precision 80-100%, the two
short steps lowest ("Pour hot water into kettle" 80%, "Dry with a
towel" 85%).  Shape asserted: long vigorous steps >= 90%, the pour is
the global minimum, both short steps miss sometimes.
"""

from repro.evalx.extract_precision import plan_extract_precision
from repro.evalx.parallel import run_section

SHORT_STEPS = ("Pour hot water into kettle", "Dry with a towel")


def test_table3_extract_precision(benchmark, paper_adls):
    result = benchmark.pedantic(
        lambda: run_section(
            plan_extract_precision(paper_adls, samples_per_step=40, seed=3)
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.to_table())
    assert len(result.rows) == 8
    assert sum(row.trials for row in result.rows) == 320

    pour = result.row_for("Pour hot water into kettle").precision
    towel = result.row_for("Dry with a towel").precision
    long_steps = [
        row.precision for row in result.rows if row.step_name not in SHORT_STEPS
    ]
    assert all(precision >= 0.9 for precision in long_steps)
    assert pour <= min(long_steps)
    assert 0.6 <= pour < 1.0
    assert 0.6 <= towel < 1.0
