"""The coloring tail's two engines, for its differential tests.

"compiled" runs the kernel's C loops (the warned numpy fallback when it
cannot load); "batched" runs the numpy passes, their oracle.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core import native

TAIL_ENGINES = ("compiled", "batched")


@contextlib.contextmanager
def tail(engine: str):
    """Run a block on tail ``engine``.  On "compiled" with the kernel
    loaded, every C loop the block calls must return its result: a loop
    that failed would hand its stage to the numpy pass, which hides the
    failure from a differential test."""
    with pytest.MonkeyPatch.context() as patch:
        if engine == "compiled" and native.available():
            for name in ("cover_free_round", "kw_reduce", "recolor_walk"):
                real = getattr(native, name)

                def checked(*args, _real=real, _name=name, **kwargs):
                    out = _real(*args, **kwargs)
                    assert out is not None, f"{_name} failed"
                    return out

                patch.setattr(native, name, checked)
        yield


def no_c_call(*args, **kwargs):
    """Stand-in for ``native._tail_call`` in tests of inputs that must
    raise before any C loop runs."""
    raise AssertionError("malformed input reached the C loop")
