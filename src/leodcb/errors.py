"""Exception types shared across the package, and ``check``, the one test
of a configuration's settings against its named constraints. A
``ConfigError`` is for every configuration type, the scenario's sections
included; a ``DomainError`` is for the mathematical domain of an operation."""

import numbers


class DomainError(ValueError):
    """An argument sits outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A configuration, a scenario section included, violates a named constraint."""


class IllegalActionError(RuntimeError):
    """The environment was asked to connect to an unavailable satellite."""


class StateError(RuntimeError):
    """An operation was called in a state it does not support."""


def is_integer(value) -> bool:
    # bool is an int subclass, but true is no count or seed. The exact-type
    # test spares the common case the slow ABC check.
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    # Nor is true a real number.
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def check(section: str, values, integers=(), reals=(), constraints=tuple) -> None:
    """Raise a ``ConfigError`` naming ``section`` and the first failure: a
    field of ``values`` (a name-to-value mapping) named in ``integers`` that
    is no integer, then one in ``reals`` that is no real number (a bool is
    neither), then a false (holds, constraint) row of ``constraints()``,
    which is called only once every type holds, so its rows may compare."""

    def rows():
        yield from ((is_integer(values[name]), f"{name} is an integer") for name in integers)
        yield from ((is_number(values[name]), f"{name} is a number") for name in reals)
        yield from constraints()

    for holds, constraint in rows():
        if not holds:
            raise ConfigError(f"{section} constraint violated: {constraint}")
