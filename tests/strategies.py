"""Hypothesis strategies and input tables shared by the test modules."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume
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

from oracles import apply_element

WINDOW = SubspaceMap(4, -2)

#: (atol, how the error message shows it): tolerances every check rejects.
BAD_ATOLS = [
    (float("nan"), "nan"),
    (np.float32("nan"), "nan"),
    (float("inf"), "inf"),
    (-1e-12, "-1e-12"),
    (True, "True"),
    (False, "False"),
    ("x", "x"),
    ("1e-12", "1e-12"),
    (None, "None"),
    ([1], "[1]"),
    (1j, "1j"),
    pytest.param(10**400, str(10**400), id="10**400"),
    pytest.param(10**5000, "an integer of 16610 bits", id="10**5000"),
]


def _draw_elements(draw, min_slots):
    """The elements of a small valid circuit of every element type with at
    most 5 noise slots and at least `min_slots` (at most 5) of them, its
    live paths at the end and its slot count."""
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
    return elements, live, slots


@st.composite
def random_circuits(draw, min_slots=0):
    """Small valid circuits of every element type with at most 5 noise slots
    and at least `min_slots` (at most 5) of them."""
    elements, live, _ = _draw_elements(draw, min_slots)
    output = draw(st.sampled_from(live))
    return OpticalCircuit(4, WINDOW, tuple(elements), output_path=output)


def ideal_keys(elements):
    """The one (path, OAM label) key that each window input reaches at V = 1."""
    keys = []
    for ell in WINDOW.oam_labels:
        state = {("in", ell): 1.0}
        for e in elements:
            state = apply_element(e, state)
        (key,) = state
        keys.append(key)
    return keys


@st.composite
def window_circuits(draw, min_slots=0):
    """Circuits drawn as by random_circuits whose output path every window
    input reaches inside the window, so that no correlation matrix of them
    raises.  Lossy recombiners merge the paths the inputs end on at V = 1
    and a phase plate shifts their labels into the window, where needed;
    the kept route of every input then has a positive weight at every
    visibility and throughput.  Draws with labels too far apart to shift
    into the window, or with more than 5 noise slots, are rejected."""
    elements, _, slots = _draw_elements(draw, min_slots)
    while len(paths := list(dict.fromkeys(p for p, _ in ideal_keys(elements)))) > 1:
        reflect = draw(st.sampled_from(["even", "odd", "none"]))
        elements.append(Recombiner(*paths[:2], f"m{len(elements)}", reflect=reflect))
        slots += 1
    labels = [ell for _, ell in ideal_keys(elements)]
    low, high = WINDOW.oam_offset, WINDOW.oam_offset + WINDOW.dim - 1
    assume(slots <= 5 and max(labels) - min(labels) <= high - low)
    shift = draw(st.integers(low - min(labels), high - max(labels)))
    if shift:
        elements.append(SpiralPhasePlate(paths[0], shift))
    return OpticalCircuit(4, WINDOW, tuple(elements), output_path=paths[0])
