"""Hypothesis strategies shared by the test modules."""

import itertools
import math

from hypothesis import strategies as st

from quditgates import (
    Mirror,
    OpticalCircuit,
    ParitySorter,
    PhaseShift,
    Recombiner,
    SpiralPhasePlate,
    SubspaceMap,
)

WINDOW = SubspaceMap(4, -2)


@st.composite
def random_circuits(draw, min_slots=0):
    """Small valid circuits of every element type with at most 5 noise slots
    and at least `min_slots` (at most 5) of them."""
    live, elements, slots = ["in"], [], 0
    count = draw(st.integers(0, 7))
    for n in itertools.count():
        if n >= count and slots >= min_slots:
            break
        kinds = ["spp", "mirror", "phase"]
        if slots < 5:
            kinds.append("sorter")
            if len(live) > 1:
                kinds.append("recombiner")
        # past the drawn count, sorters add the slots still missing
        kind = draw(st.sampled_from(kinds if n < count else ["sorter"]))
        if kind == "recombiner":
            arms = st.lists(st.sampled_from(live), min_size=2, max_size=2, unique=True)
            a, b = draw(arms)
            modes = ["ideal", "lossy_pbs"] if slots < 4 else ["lossy_pbs"]
            mode = draw(st.sampled_from(modes))
            reflect = draw(st.sampled_from(["even", "odd", "none"]))
            elements.append(Recombiner(a, b, f"m{n}", mode=mode, reflect=reflect))
            live = [p for p in live if p not in (a, b)] + [f"m{n}", f"m{n}.discard"]
            slots += 2 if mode == "ideal" else 1
            continue
        path = draw(st.sampled_from(live))
        if kind == "sorter":
            parity = draw(st.sampled_from(["even", "odd"]))
            elements.append(ParitySorter((path,), f"e{n}", f"o{n}", parity))
            live = [p for p in live if p != path] + [f"e{n}", f"o{n}"]
            slots += 1
        elif kind == "spp":
            elements.append(SpiralPhasePlate(path, draw(st.integers(-3, 3))))
        elif kind == "mirror":
            elements.append(Mirror(path))
        else:
            elements.append(PhaseShift(path, draw(st.floats(-math.pi, math.pi))))
    output = draw(st.sampled_from(live))
    return OpticalCircuit(4, WINDOW, tuple(elements), output_path=output)
