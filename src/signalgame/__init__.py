"""Solver and verification harness for dynamic signal-picking games.

A principal observes a controlled Markov chain and commits, stage by
stage, to statistical experiments about the state; a receiver updates
beliefs from the experiment outcomes and picks actions that drive the
chain.  The package computes equilibrium value functions by backward
induction over the belief simplex (piecewise-linear concavification),
turns them into executable policies, and cross-checks the result by
exact forward evaluation, Monte Carlo simulation, and one-shot
deviation tests.
"""

# Keep the star imports first, geometry first: with `from . import cli, ...`
# as the first import, `import signalgame` took about 0.2 s longer (in scipy).
from .geometry import *
from .game import *
from .solver import *
from .strategy import *
from .evaluator import *
from .cli import *
from . import cli, evaluator, game, geometry, solver, strategy

__all__ = (
    geometry.__all__
    + game.__all__
    + solver.__all__
    + strategy.__all__
    + evaluator.__all__
    + cli.__all__
)

__version__ = "0.1.0"
