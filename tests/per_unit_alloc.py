"""The unit-at-a-time leftover phase behind `alloc`'s closed form: the test oracle.

`klora.allocation.alloc` hands out the budget its proportional passes leave
over in whole rounds at once. Before that, the leftover went out one unit
at a time: a Python loop visited the unsaturated layers in descending
score order, gave each one unit, and dropped the saturated ones between
rounds. `alloc` is that allocator, so any input can be replayed on it and
the integer budgets compared.
"""

from __future__ import annotations

import math
import warnings

from klora.allocation import AllocationResult


def alloc(scores, caps, budget: int) -> AllocationResult:
    scores = [float(s) for s in scores]
    caps = [int(c) for c in caps]
    total_cap = sum(caps)
    if budget > total_cap:
        warnings.warn(
            f"budget {budget} exceeds total capacity {total_cap}; clamping", stacklevel=2
        )
        budget = total_cap

    n = len(caps)
    budgets = [0] * n
    p = [scores[l] if caps[l] > 0 else 0.0 for l in range(n)]
    remaining = budget
    while remaining > 0:
        p_sum = sum(p)
        progress = False
        if p_sum > 0.0:
            pass_budget = remaining
            for l in range(n):
                if p[l] <= 0.0:
                    continue
                inc = min(math.floor(p[l] / p_sum * pass_budget), caps[l] - budgets[l])
                if inc > 0:
                    budgets[l] += inc
                    progress = True
                if budgets[l] == caps[l]:
                    p[l] = 0.0
            remaining = budget - sum(budgets)
        if remaining > 0 and (p_sum <= 0.0 or not progress):
            order = sorted(
                (l for l in range(n) if budgets[l] < caps[l]),
                key=lambda l: (-scores[l], l),
            )
            while remaining > 0 and order:
                for l in order:
                    if remaining == 0:
                        break
                    if budgets[l] < caps[l]:
                        budgets[l] += 1
                        remaining -= 1
                order = [l for l in order if budgets[l] < caps[l]]
            break
    return AllocationResult(budgets=budgets, global_budget=budget, scores=scores)
