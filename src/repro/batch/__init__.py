"""Vectorized stacked tier-chain solves (``repro.batch``).

Groups pending tier evaluations by chain shape, assembles their
birth-death generators into stacked dense systems, and solves each
group in numpy passes -- the solver behind every Markov tier solve
(:meth:`repro.availability.MarkovEngine.evaluate_tiers`), bit-identical
to the DFS chain builder it replaced.  See ``docs/BATCHING.md``.
"""

from .chains import (ChainTemplate, TemplateCache, failover_template,
                     inplace_template)
from .evaluator import solve_models, transport_shape_key
from .stacked import (STACK_BYTES, assemble_systems, reduce_group,
                      solve_size_class, solve_stacked)

__all__ = [
    "ChainTemplate", "STACK_BYTES", "TemplateCache", "assemble_systems",
    "failover_template", "inplace_template", "reduce_group",
    "solve_models", "solve_size_class", "solve_stacked",
    "transport_shape_key",
]
