"""Exception types shared across the package, one per failure kind.

Every error raised by library code derives from ForestBuilderError, so that
callers (in particular the command line front end, which exits 1 on any of
them) can tell domain failures from programming mistakes.  The message says
which check failed; the class says which kind of failure it is:

- InvalidGraph: the graph itself is bad or unsuitable, from a malformed
  graph6 string or edge list to an edge the operation cannot take (a
  self-loop, a repeat, an endpoint out of range) or a graph with no edges
  or not connected where the operation needs one.
- ParameterOutOfRange: a numeric argument violates a documented
  precondition or admits no graph, or an edge ordering is not a permutation.
- SizeCapExceeded: the input is larger than the documented cap for this
  operation (brute force, canonical labeling, Cheeger, searches, graph6
  short form).
- MemoryBudgetExceeded: the exact sums would hold more covered sets at once
  than the engine's budget.
- GenerationTimeout: a rejection-sampling generator exceeded its retry
  budget.
"""


class ForestBuilderError(Exception):
    """Base class for all package-specific errors."""


class InvalidGraph(ForestBuilderError):
    """Malformed graph input, or a graph the operation is not defined for."""


class ParameterOutOfRange(ForestBuilderError):
    """A numeric argument or an ordering violates a documented precondition."""


class SizeCapExceeded(ForestBuilderError):
    """Input is larger than the documented cap for this operation."""


class MemoryBudgetExceeded(ForestBuilderError):
    """The covered-set levels outgrew the engine's entry budget."""


class GenerationTimeout(ForestBuilderError):
    """A rejection-sampling generator exceeded its retry budget."""
