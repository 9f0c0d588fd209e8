"""Cost evaluation of designs (paper section 4.2, cost half)."""

from .model import (ZERO_COST, CostBreakdown, fold_charges,
                    mechanism_multiplier, mechanism_reference_counts,
                    tier_cost)

__all__ = ["CostBreakdown", "tier_cost", "ZERO_COST", "fold_charges",
           "mechanism_multiplier", "mechanism_reference_counts"]
