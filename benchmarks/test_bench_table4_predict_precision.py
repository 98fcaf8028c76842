"""Bench: Table 4 -- Predict precision of ADL step.

Paper: 30 test samples per ADL, the two reminder-trigger situations
equally examined; 100% precision on every step except the first
(untestable -- prediction needs a trigger).  This reproduction matches
it exactly.
"""

from repro.evalx.parallel import run_section
from repro.evalx.predict_precision import plan_predict_precision

FIRST_STEPS = ("Put toothpaste on the brush", "Put tea-leaf into kettle")


def test_table4_predict_precision(benchmark, paper_adls):
    result = benchmark.pedantic(
        lambda: run_section(
            plan_predict_precision(paper_adls, samples_per_adl=30)
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.to_table())
    assert len(result.rows) == 8
    for row in result.rows:
        if row.step_name in FIRST_STEPS:
            assert row.precision is None
        else:
            assert row.precision == 1.0
    tested = sum(row.trials or 0 for row in result.rows)
    assert tested == 60  # 30 per ADL
