"""Immutable value classes, without the dataclasses module.

``@record`` takes the fields of a class from its annotations, in order,
and their defaults from the class body, the way ``@dataclass(frozen=True)``
does.  It adds an ``__init__`` that takes the fields by position or by
keyword and then calls ``__post_init__`` if the class has one, field-wise
``__eq__``, ``__hash__`` and ``__repr__``, and a ``__setattr__`` and
``__delattr__`` that raise AttributeError.  A ``__post_init__`` that
normalises a field stores it with ``object.__setattr__``.

Importing dataclasses pulls in inspect, ast and dis, and each decorated
class then compiles its generated methods with exec; this module does
neither, which keeps them off the command line's start-up path.
"""

from __future__ import annotations

import operator

_MISSING = object()


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    field_values = operator.attrgetter(*names)

    def bind(args, kwargs):
        """Field values in order, from a call that uses keywords or defaults."""
        bound = list(args[:len(names)])
        for name in names[len(args):]:
            value = kwargs.pop(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() is missing the field {name!r}")
            bound.append(value)
        if len(args) > len(names) or kwargs:
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}, "
                            f"each once, by position or by keyword")
        return bound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        # object.__setattr__ keeps the instance's attributes inline; filling
        # self.__dict__ instead makes every later read of them slower.
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return field_values(self) == field_values(other)

    def __hash__(self):
        return hash(field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def _immutable(self, name, *_):
        raise AttributeError(f"cannot assign to or delete field {name!r} of {cls.__name__}")

    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = cls.__delattr__ = _immutable
    return cls
