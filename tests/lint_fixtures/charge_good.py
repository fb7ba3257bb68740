# replint-fixture-module: repro.dist.fixture_stage
"""Good: the stage_matrix shape — mutation paired with its charge."""


def stage(plan, machine, blocks):
    plan.charge_pointwise(machine, label="stage")
    return plan.apply(blocks)
