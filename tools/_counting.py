"""The counting helpers of the bench tools.

Each counts from outside the program: `Counted` replaces a module
attribute with a wrapper that counts its calls, and `Frames` counts the
frames of a nested function through a profile hook.  Both are written
against the internals of the tree they sit in.
"""

import sys
from types import CodeType


def nested_code(fn, name):
    """The code object of the function `name` defined inside `fn`."""
    return next(
        c for c in fn.__code__.co_consts if isinstance(c, CodeType) and c.co_name == name
    )


class Counted:
    """While entered, `module.attr` is a wrapper counting its calls in `count`."""

    def __init__(self, module, attr):
        self.module, self.attr, self.count = module, attr, 0

    def __enter__(self):
        fn = self.fn = getattr(self.module, self.attr)

        def wrapper(*args, **kwargs):
            self.count += 1
            return fn(*args, **kwargs)

        setattr(self.module, self.attr, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.fn)


class Frames:
    """The frames of the function `name` nested in `outer` entered while
    `run` calls (`count`), those of them that `outer` started in its seed
    loop (`starts`), and the seeds it started them at: over the calls of
    `outer`, the distinct values of its `seed` loop variable at its own
    calls of the nested function (`seeds`, as (call, seed))."""

    def __init__(self, outer, name):
        self.outer, self.code = outer.__code__, nested_code(outer, name)
        self.count = self.calls = self.starts = 0
        self.seeds: set[tuple[int, int]] = set()

    def _profile(self, frame, event, arg):
        if event != "call":
            return
        if frame.f_code is self.outer:
            self.calls += 1
        elif frame.f_code is self.code:
            self.count += 1
            caller = frame.f_back
            # a call made before the seed loop (a resumed state) has none
            if caller.f_code is self.outer and "seed" in caller.f_locals:
                self.starts += 1
                self.seeds.add((self.calls, caller.f_locals["seed"]))

    def run(self, call, *args):
        sys.setprofile(self._profile)
        try:
            return call(*args)
        finally:
            sys.setprofile(None)
