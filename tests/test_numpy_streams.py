"""The numpy `Generator` streams that every golden byte rests on.

Each draw form qgx makes is pinned here for a fixed seed: its values and
the generator state it leaves (PCG64 state, increment, and the buffered
32-bit half-word). These are numpy's implementation, not qgx's: when one
fails, the numpy in use draws differently from the one the goldens were
recorded with (2.4.6), and every golden test fails with it.
"""

import numpy as np
import pytest

SEED = 42
INC = 332724090758049132448979897138935081983  # PCG64's increment for SEED

# SeedSequence(seed).spawn(4) -> default_rng: the (init, sel, cx, mut) streams of `run_ga`
SPAWNED = {
    0: [
        (209726722718981422394759158150246685477, 273096372282096494456322297521699537235, 0, 0),
        (274062950216661760324866166825095223283, 329002041808208584022837328454739705169, 0, 0),
        (80452057435525507838797559728995026296, 184625846488589932697577650651381873769, 0, 0),
        (128014147478718134401720151663536146149, 136429684729686695399333450420855534835, 0, 0),
    ],
    42: [
        (150902357945003689438062134269493276141, 75941032183842981759300427473950209315, 0, 0),
        (307381388190029791846682108705977616256, 165301610834425476356494570813792439855, 0, 0),
        (195599275668386644247923724695838591121, 313922733491833192607734725755170657977, 0, 0),
        (201950270507993106784662822977205920228, 90006811328249427038722459150496248873, 0, 0),
    ],
}

AFTER_THREE_WORDS = 302602671330392952913379056849247414473  # the state after three 64-bit words
AFTER_FOUR_WORDS = 129461158061550087521946787121429467180  # and after four

# draw form on default_rng(SEED) -> (its values, the state it leaves)
DRAWS = {
    "integers(0, n, size=(p, t))": (
        lambda rng: rng.integers(0, 20, size=(6, 2)).tolist(),
        [[1, 15], [13, 8], [8, 17], [1, 13], [4, 1], [10, 19]],
        (60251780358759318666854268857835938822, INC, 0, 4190266093),
    ),
    "integers(a, b)": (
        lambda rng: [int(rng.integers(1, 4)) for _ in range(5)],
        [1, 3, 2, 2, 2],
        (AFTER_THREE_WORDS, INC, 1, 3687649986),
    ),
    "random()": (
        lambda rng: [rng.random() for _ in range(3)],
        [0.7739560485559633, 0.4388784397520523, 0.8585979199113825],
        (AFTER_THREE_WORDS, INC, 0, 0),
    ),
    "random(n)": (
        lambda rng: rng.random(4).tolist(),
        [0.7739560485559633, 0.4388784397520523, 0.8585979199113825, 0.6973680290593639],
        (AFTER_FOUR_WORDS, INC, 0, 0),
    ),
    "random(n, dtype=np.float32)": (
        lambda rng: rng.random(5, dtype=np.float32).tolist(),
        [0.08925092220306396, 0.7739560008049011, 0.6545714735984802, 0.4388784170150757,
         0.43301522731781006],
        (AFTER_THREE_WORDS, INC, 1, 3687649986),
    ),
    "normal(0, sigma, size=n)": (
        lambda rng: rng.normal(0.0, 0.1, size=4).tolist(),
        [0.030471707975443137, -0.10399841062404956, 0.07504511958064573, 0.0940564716391214],
        (AFTER_FOUR_WORDS, INC, 0, 0),
    ),
    "uniform(lo, hi, size=n)": (
        lambda rng: rng.uniform(-5.0, 5.0, size=3).tolist(),
        [2.7395604855596334, -0.6112156024794766, 3.585979199113824],
        (AFTER_THREE_WORDS, INC, 0, 0),
    ),
    "permutation(n)": (
        lambda rng: rng.permutation(9).tolist(),
        [3, 0, 7, 2, 4, 6, 1, 5, 8],
        (AFTER_FOUR_WORDS, INC, 0, 2995172878),
    ),
}


def _state(rng: np.random.Generator) -> tuple:
    s = rng.bit_generator.state
    return s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"]


def _moved(form: str) -> str:
    return (f"numpy {np.__version__} moved the {form} stream: the goldens in tests/golden were "
            "recorded with numpy 2.4.6 and need re-recording under this numpy; qgx did not change")


@pytest.mark.parametrize("form", ["SeedSequence(seed).spawn(4)"] + list(DRAWS))
def test_numpy_draws_are_the_ones_the_goldens_were_recorded_with(form):
    if form in DRAWS:
        draw, values, state = DRAWS[form]
        rng = np.random.default_rng(SEED)
        assert (draw(rng), _state(rng)) == (values, state), _moved(form)
    else:
        for seed, states in SPAWNED.items():
            spawned = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]
            assert [_state(rng) for rng in spawned] == states, _moved(form)
