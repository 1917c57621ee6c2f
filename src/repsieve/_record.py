"""Record classes built from their annotated fields.

``record`` gives a class ``__init__``, ``__eq__``, ``__hash__`` and
``__repr__`` over the names annotated in its body, in order, and a
``__setattr__`` and ``__delattr__`` that refuse: every record is frozen
and compares and hashes by its fields.  It covers what the package needs
of ``dataclasses.dataclass(frozen=True)``, with closures in place of
generated source: the dataclass decorator ``exec``-compiles every method
it makes, and ``import dataclasses`` loads ``inspect`` and ``ast``.  Each
CLI command is one short process that usually runs without a bytecode
cache, so together they cost about a fifth of a command's start-up.
"""

from operator import attrgetter

__all__ = ["record"]

object_setattr = object.__setattr__


def record(cls):
    """Class decorator.  Fields are the class's annotated names; a class
    attribute of the same name is the field's default.  ``__post_init__``
    runs after the fields are set.  Equal records are instances of the same
    class with equal field tuples, and a record hashes as its field tuple.
    A ``__repr__`` written in the class body is kept."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    n = len(names)
    get = attrgetter(*names)
    values = get if n > 1 else lambda self: (get(self),)
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__name__}() takes {n} arguments, {len(args)} given")
        args = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                args.append(kwargs.pop(name))
            elif name in defaults:
                args.append(defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments {sorted(kwargs)}")
        return args

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        # one store per field, as plain assignment would make: writing
        # to self.__dict__ instead gives the instance a dict of its own,
        # which roughly halves the speed of every later attribute read
        for name, value in zip(names, args):
            object_setattr(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(names, values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = [__init__, __eq__, __hash__, __setattr__, __delattr__]
    if "__repr__" not in cls.__dict__:
        methods.append(__repr__)
    for fn in methods:
        setattr(cls, fn.__name__, fn)
    return cls
