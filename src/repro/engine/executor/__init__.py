"""The executor: a plan's view groups run front to back.

:class:`DataflowScheduler` is the loop: it runs each group through
:class:`InterpreterBackend` (which walks the group's step IR) in the
order ``group_views`` lists them, and drops each view after the last
group that reads it.
"""

from .backend import InterpreterBackend
from .scheduler import DataflowScheduler

__all__ = ["DataflowScheduler", "InterpreterBackend"]
