"""Layer tracing from outside the package.

The tracer replaces the module attributes through which quivergk's layers
call each other with timing wrappers, and puts the originals back on
``restore``.  Nothing inside ``src/`` is touched: a call that goes through
a patched name is seen, a call that a module makes through its own
binding of the same function is not.

Two kinds of wrapper, by call volume:

* ``framed`` calls push a frame, so their inclusive and self time are
  known (self time = duration minus the time of framed calls nested in
  it).  With ``span=True`` each call also keeps a span
  (name, start, end, parent span, orbit id) in memory; with
  ``span="miss"`` only the calls that ``cache_info()`` shows to be cache
  misses keep one.
* ``counted`` calls only bump a counter.  They are the high-frequency
  ones (``normalize``, ``_mul_basis`` hits), whose time stays in the self
  time of the framed caller.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # each frame is [seconds spent in nested frames, id of the nearest open span]
        self.stack: list[list] = [[0.0, None]]
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.layer_of: dict[str, str] = {}
        self.spans: list[list] = []
        self.orbit: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def framed(self, layer: str, name: str, fn, span=False, after=None):
        """Timed wrapper; ``after(args, result)`` runs outside the timing."""
        self.layer_of[name] = layer
        stack, spans = self.stack, self.spans
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        on_miss = span == "miss"

        def wrapper(*args, **kwargs):
            sid = stack[-1][1]
            if span:
                misses = fn.cache_info().misses if on_miss else 0
                spans.append([name, 0.0, 0.0, sid, self.orbit])
                sid = len(spans) - 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                calls[name] += 1
                inclusive[name] += dt
                self_time[name] += dt - frame[0]
                if span:
                    if on_miss and fn.cache_info().misses == misses:
                        spans.pop()  # a hit opens no nested span, so it is last
                    else:
                        spans[sid][1] = t0
                        spans[sid][2] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_self_time(self) -> dict[str, float]:
        out: Counter = Counter()
        for name, seconds in self.self_time.items():
            out[self.layer_of[name]] += seconds
        return dict(out)
