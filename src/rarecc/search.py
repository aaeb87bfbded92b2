"""Two names that the benchmark's tracer still looks up.

``bench/spans.py`` wraps ``maximize_over_simplex`` and ``nelder_mead`` of
this module by name, left from a simplex maximizer that the cut loop
(:func:`rarecc.lpsolve.cut_loop`) replaced; both raise.  The seed mixers
moved to :mod:`rarecc.experiments` and the simplex grids to
:mod:`rarecc.methods`, their one caller each.  ROADMAP item 1 drops the two
names from ``WRAPS``, and then this module goes.
"""

from __future__ import annotations


def maximize_over_simplex(*args, **kwargs):
    raise NotImplementedError("the limit programs are solved by rarecc.lpsolve.cut_loop")


def nelder_mead(*args, **kwargs):
    raise NotImplementedError("the limit programs are solved by rarecc.lpsolve.cut_loop")
