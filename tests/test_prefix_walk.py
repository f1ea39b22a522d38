"""`iteration.prefix_walk`, the one level-by-level walk, driven by steps that record what it is handed.

The walks of the package are this skeleton plus a step; `tests/test_walk.py` checks `enumerate`'s.
"""

import ast
import inspect
import itertools
import textwrap
import weakref

import pytest

from tunnelslopes.frames import nonzero_range
from tunnelslopes.iteration import chain_walk, prefix_walk
from tunnelslopes.verify import twist_tuples

SHAPES = [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (4, 1)]


class _State:
    """A state a weak reference can follow: the choice tuple it stands for."""

    def __init__(self, choices):
        self.choices = choices


def _recording(calls, returned):
    """A step that records each (state, choice, length) it is handed and each state it returns."""

    def step(state, choice, length):
        calls.append((state, choice, length))
        child = _State(state.choices + (choice,))
        yield child.choices
        returned.append((length, child))
        return child

    return step


@pytest.mark.parametrize("max_len, n_bound", SHAPES)
def test_the_walk_visits_each_choice_tuple_in_product_order_by_length(max_len, n_bound):
    options = nonzero_range(n_bound)
    calls = []
    walked = list(prefix_walk(options, max_len, _State(()), _recording(calls, [])))
    by_length = [tup for length in range(1, max_len + 1) for tup in itertools.product(options, repeat=length)]
    assert walked == by_length == list(twist_tuples(max_len, n_bound))
    # each point is one call, handed its prefix's state, its last choice and its length
    assert [state.choices + (choice,) for state, choice, _ in calls] == walked
    assert [length for _, _, length in calls] == [len(tup) for tup in walked]


def test_what_the_step_yields_passes_through_unchanged():
    # any number of items per point, each the very object the step yielded
    sent = []

    def step(state, choice, length):
        for item in [object() for _ in range(choice)]:
            sent.append(item)
            yield item
        return state

    walked = list(prefix_walk((1, 2, 3), 2, None, step))
    assert len(sent) == 6 * 4 and len(walked) == len(sent)
    assert all(got is item for got, item in zip(walked, sent))


@pytest.mark.parametrize("max_len, n_bound", SHAPES)
def test_each_kept_state_is_extended_once_per_option_and_the_last_levels_never(max_len, n_bound):
    options = nonzero_range(n_bound)
    calls, returned = [], []
    list(prefix_walk(options, max_len, _State(()), _recording(calls, returned)))
    for length, state in returned:
        handed = sum(given is state for given, _, _ in calls)
        assert handed == (len(options) if length < max_len else 0)
    assert len(returned) == len(calls)


@pytest.mark.parametrize("max_len, n_bound", SHAPES)
def test_the_walk_holds_at_most_one_levels_states_at_any_yield(max_len, n_bound):
    options = nonzero_range(n_bound)
    alive = weakref.WeakSet()

    def step(state, choice, length):
        yield length
        child = _State(state.choices + (choice,))  # built once its point is taken, as `chain_walk` builds its own
        alive.add(child)
        return child

    held = [(length, len(alive)) for length in prefix_walk(options, max_len, _State(()), step)]
    assert len(held) == sum(len(options) ** length for length in range(1, max_len + 1))
    # a point sees the states of its own level built so far and those of its prefix level not yet extended,
    # its own prefix's included: never more than one level, and none kept past the last
    for length, count in held:
        assert count <= len(options) ** min(length, max_len - 1)
    assert max(count for _, count in held) == (len(options) ** (max_len - 1) if max_len > 1 else 0)
    assert not alive  # nothing outlives the walk


def test_chain_walk_loops_over_kinds_alone_and_leaves_the_levels_to_the_skeleton():
    tree = ast.parse(textwrap.dedent(inspect.getsource(chain_walk)))
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    # the one iteration hands each kind to the per-kind walk, and that walk is `prefix_walk`'s
    assert [(ast.unparse(loop.target), ast.unparse(loop.iter)) for loop in loops] == [("kind", "kinds")]
    (per_kind,) = [node.elt for node in ast.walk(tree) if isinstance(node, ast.GeneratorExp)]
    assert isinstance(per_kind, ast.Call) and [ast.unparse(arg) for arg in per_kind.args] == ["kind"]
    (walk,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == per_kind.func.id]
    assert "prefix_walk" in {node.id for node in ast.walk(walk) if isinstance(node, ast.Name)}
