"""Quantum-search-accelerated sampling-based motion planning, simulated exactly.

The package couples an exact classical simulation of amplitude amplification
(qsim) with tree planners that search sampled databases of candidate edges
(planner, parallel), a probability calculus for pooled searches with its own
Monte Carlo verification (prob), planar geometry and closed-loop tracking
dynamics (env, dynamics), and trial instrumentation with benchmark recipes
(metrics, cli). The cli module is the command-line entry point and is not
imported with the package, so ``python -m qrrt.cli`` runs it exactly once.
"""

from . import dynamics, env, metrics, parallel, planner, prob, qsim, records

__all__ = ["dynamics", "env", "metrics", "parallel", "planner", "prob", "qsim", "records"]
__version__ = "0.1.0"
