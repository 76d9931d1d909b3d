"""Fixtures shared by the test modules."""

import pytest

from delib.space import DeliberationSpace, grid_point, score


def _grid_window_popular(space: DeliberationSpace, expand: int = 1):
    """Popular proposal over the agents' bounding window grown by ``expand``,
    as ``(proposal, score)``: every grid point of the window is scored with
    :func:`delib.space.score`, so no code of ``delib.grid`` or of the
    solvers is involved.  The pull argument puts the optimum among the unit
    targets, well inside the window.
    """
    xs = [a.position.data[0] for a in space.agents]
    ys = [a.position.data[1] for a in space.agents]
    lo_x, hi_x = min(min(xs), 0) - expand, max(max(xs), 0) + expand
    lo_y, hi_y = min(min(ys), 0) - expand, max(max(ys), 0) + expand
    if space.grid_nonneg:
        lo_x, lo_y = max(lo_x, 0), max(lo_y, 0)
    best, best_score = None, None
    for x in range(lo_x, hi_x + 1):
        for y in range(lo_y, hi_y + 1):
            if (x, y) == (0, 0):
                continue
            s = score(space, grid_point(x, y))
            if best is None or s > best_score:
                best, best_score = grid_point(x, y), s
    return best, best_score


@pytest.fixture
def grid_window_popular():
    """The windowed brute-force grid oracle, a function of a grid space."""
    return _grid_window_popular
