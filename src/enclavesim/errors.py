"""Exception hierarchy shared by all simulator modules."""


class SimError(Exception):
    """Base class for every error raised by the simulator."""


# ---------------------------------------------------------------------------
# Hardware faults (in-contract outcomes of translate/enter/resume).

class Fault(SimError):
    """A fault raised by the modeled CPU."""


class NotMapped(Fault):
    """Page walk found no entry for the virtual page."""


class EpcmMismatch(Fault):
    """Page-table translation disagrees with the EPCM record (remap caught)."""


class AbortPage(Fault):
    """Non-enclave access to a protected page."""


class TcsBusy(Fault):
    """Entry attempted on a TCS already bound to a live thread."""


class NotTcsPage(Fault):
    """Entry attempted on a page that is not a thread control page."""


class NoSavedContext(Fault):
    """Resume attempted on a TCS with no suspended context."""


# ---------------------------------------------------------------------------
# Lifecycle / kernel errors.

class DuplicateEnclaveId(SimError):
    pass


class VaAlreadyMapped(SimError):
    pass


class OutOfEpc(SimError):
    pass


class AlreadyInitialized(SimError):
    pass


class EnclaveNotInitialized(SimError):
    pass


class VaConflict(SimError):
    pass


class NoFreeTcs(SimError):
    pass


class NotHeld(SimError):
    pass


# ---------------------------------------------------------------------------
# Runtime (in-enclave) errors.

class IsolationFault(SimError):
    """Sandboxed instance touched memory outside its own region."""


class PairRetired(Fault):
    """Copy-on-write access or snapshot through a retired fork pair."""


class NotForkMember(Fault):
    """Copy-on-write access by a pid that is neither the fork pair's
    parent nor its child, or a snapshot by any pid but the child's."""


class ForkInProgress(Fault):
    """A fork while another fork pair is live."""


class RegionExhausted(SimError):
    pass


class FsFault(SimError):
    """Base class for in-enclave file system failures."""


class FsNotFound(FsFault):
    pass


class FsNotOwner(FsFault):
    pass


class FsIntegrityMismatch(FsFault):
    """Opened file content does not match the digest recorded at creation."""


# ---------------------------------------------------------------------------
# Cost model / harness / CLI errors.

class NegativeDuration(SimError):
    pass


class ConfigError(SimError):
    """Base class for configuration problems (CLI exit code 1)."""


class ParseError(ConfigError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownKey(ConfigError):
    pass


class MissingKey(ConfigError):
    pass


class InvariantViolation(SimError):
    """A cross-cutting invariant failed at run time (CLI exit code 2)."""
