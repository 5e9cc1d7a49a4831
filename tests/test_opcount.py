"""tools/opcount.py: its bytecode counter is exact and repeatable."""

import dis
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "opcount", Path(__file__).resolve().parent.parent / "tools" / "opcount.py")
opcount = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(opcount)


def _square(x):
    return x * x


def _toy(n):
    total = 0
    for i in range(n):
        total += _square(i)
    return total


def _loop_body_length(fn):
    """Instructions one pass of ``fn``'s only loop executes: from its
    ``FOR_ITER`` up to the loop's exit target, the jump back included."""
    instructions = list(dis.get_instructions(fn))
    head = next(i for i in instructions if i.opname == "FOR_ITER")
    return sum(1 for i in instructions if head.offset <= i.offset < head.argval)


def _count(n):
    counter = opcount.OpCounter()
    assert counter.count(_toy, n) == sum(i * i for i in range(n))
    return counter


def test_the_count_is_exact_and_repeatable():
    empty, once, many = _count(0), _count(1), _count(50)
    square = once.opcodes[_square.__code__]
    assert square > 0
    # One pass runs the loop body here and the whole of _square there.
    per_pass = once.total_opcodes - empty.total_opcodes
    assert per_pass == _loop_body_length(_toy) + square
    assert many.total_opcodes == empty.total_opcodes + 50 * per_pass
    assert many.opcodes[_square.__code__] == 50 * square
    assert many.calls[_toy.__code__] == 1
    assert many.calls[_square.__code__] == 50
    again = _count(50)
    assert again.opcodes == many.opcodes and again.calls == many.calls
    assert [code for _n, _calls, code in many.top(2)] == \
        [_toy.__code__, _square.__code__]


def test_only_the_counted_call_is_counted():
    counter = opcount.OpCounter()
    _toy(10)
    counter.count(_square, 3)
    _toy(10)
    assert list(counter.opcodes) == [_square.__code__]
    assert counter.count(counter.count, _square, 4) == 16  # nested: once
    assert counter.calls[_square.__code__] == 2
