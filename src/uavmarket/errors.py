"""Exception types shared across the package.

Plain ``ValueError`` is raised for bad arguments to individual model
functions; the classes below mark failures that callers (notably the CLI)
need to tell apart.
"""


class UavMarketError(Exception):
    """Base class for package-specific failures."""


class ScenarioError(UavMarketError):
    """A scenario file failed to parse or validate.

    ``problems`` holds one ``(field_path, message)`` pair per violation so
    every problem in a file is reported at once.
    """

    def __init__(self, problems, heading: str = "invalid scenario"):
        self.problems = list(problems)
        lines = [f"{path}: {msg}" for path, msg in self.problems]
        super().__init__(f"{heading}:\n  " + "\n  ".join(lines))


class OptionError(ScenarioError):
    """A command-line option (or its library argument) is unusable.

    The scenario itself may be valid, so the message is headed by the
    option, not ``invalid scenario``; the one problem's path is the option.
    """

    def __init__(self, option: str, message: str):
        super().__init__([(option, message)], heading=f"invalid option {option}")


class UnresolvedTieError(UavMarketError):
    """Rewards calibration could not separate tied candidates in time."""

    def __init__(self, subregion_id: str, rounds: int):
        self.subregion_id = subregion_id
        self.rounds = rounds
        super().__init__(
            f"subregion {subregion_id!r}: tie unresolved after {rounds} "
            "calibration rounds"
        )
