"""The probe rows of a query in plain Python, for the tests."""

import math


def margin_sum(mask: int, margins) -> float:
    """The float64 sum of ``margins[j]`` over the bits j set in ``mask``,
    in ascending j."""
    total = 0.0
    for j, margin in enumerate(margins):
        if mask >> j & 1:
            total += margin
    return total


def margin_rows(codes, dots, masks, budgets, bits) -> list[list[int]]:
    """Row t: codes[t] XOR each mask of the plan ``masks`` (mask 0, then
    whole shells), in plan order, except the shell holding position
    budgets[t] when the budget ends before that shell's last position.
    Those masks go by their margin sum over |dots[t * bits + j]|, a
    non-finite sum last, ties in plan order."""
    masks = [int(m) for m in masks]
    shell = [bin(m).count("1") for m in masks]
    rows = []
    for t, budget in enumerate(int(b) for b in budgets):
        margins = [abs(float(d)) for d in dots[t * bits : (t + 1) * bits]]
        order = list(range(len(masks)))
        same = [j for j in order if shell[j] == shell[budget]]
        if budget < same[-1]:

            def key(j):
                total = margin_sum(masks[j], margins)
                return (not math.isfinite(total), total if math.isfinite(total) else 0.0, j)

            order[same[0] : same[-1] + 1] = sorted(same, key=key)
        rows.append([int(codes[t]) ^ masks[j] for j in order])
    return rows
