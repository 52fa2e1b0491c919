"""Extensions implementing the paper's stated future work."""

from .energy_budget import BudgetedEUA

__all__ = ["BudgetedEUA"]
