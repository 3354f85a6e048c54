"""Exception types shared across the package."""


class NegotiationError(Exception):
    """Base class for all domain errors."""


class NotEnabled(NegotiationError):
    """An action was fired in a configuration where it is not enabled."""

    def __init__(self, action, process, reason):
        super().__init__(f"action {action!r} not enabled: process {process!r} {reason}")
        self.action = action
        self.process = process


class UnknownAction(NegotiationError):
    """A word contains a letter outside the alphabet."""


class NoTransition(NegotiationError):
    """A local path fell off the graph; `index` is the failing position."""

    def __init__(self, index, letter, node):
        super().__init__(f"no transition on {letter[0]}@{letter[1]} from {node!r} (position {index})")
        self.index = index
        self.letter = letter
        self.node = node


class ConfigurationNotFound(NegotiationError):
    """No reachable configuration enables exactly the requested node."""


class AmbiguousConfiguration(NegotiationError):
    """Two distinct configurations enable exactly the requested node."""


class BudgetExceeded(NegotiationError):
    """A bounded search ran past its configured budget."""


class StateBudgetExceeded(BudgetExceeded):
    pass


class NotCoprime(NegotiationError):
    """Trace has zero or several minimal events."""


class ProcessNotInDmin(NegotiationError):
    """step_decomposition called with a process outside dmin of the trace."""


class AlphabetMismatch(NegotiationError):
    """Two negotiations do not share the same distributed alphabet."""


class NotDomComplete(NegotiationError):
    """DFA fails the dom-completeness conditions."""


class MultipleFinals(NegotiationError):
    pass


class FinalHasOutgoing(NegotiationError):
    pass


class ReplayFailed(NegotiationError):
    """A counterexample fails its `member_exec` replay. The product search
    and `member_exec` share one semantics, on invalid input too, so this
    is a bug wherever it is raised."""


class ParseError(NegotiationError):
    """Malformed input file; message carries the offending location."""


class RetryExhausted(NegotiationError):
    """Random generation kept producing rejected structures."""


class LearnerBug(NegotiationError):
    """A situation the learner's invariants rule out; always a bug."""


class InvariantViolation(LearnerBug):
    pass


class NoSplit(LearnerBug):
    pass
