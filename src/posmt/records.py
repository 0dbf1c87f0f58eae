"""Record classes: the subset of `dataclasses` that posmt uses.

`record` gives a class with annotated fields the `__init__`, `__repr__`,
`__eq__`, `__hash__` and frozen-ness that `dataclasses.dataclass` would.
The methods are closures over the field names, so nothing is compiled with
`exec` and neither `dataclasses` nor `inspect` is imported: importing them
cost every `posmt` process about 40 ms of start-up.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()
_setattr = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting a field of a frozen record."""


class _Field:
    __slots__ = ("default_factory", "compare")

    def __init__(self, default_factory, compare):
        self.default_factory, self.compare = default_factory, compare


def field(*, default_factory=None, compare: bool = True):
    """A field whose default is built by `default_factory()` for each
    instance; `compare=False` leaves it out of `__eq__` and `__hash__`."""
    return _Field(default_factory, compare)


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


def _tuple_getter(names):
    """A function from an object to the tuple of its named attributes."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def record(cls=None, *, frozen: bool = False, eq: bool = True):
    """Class decorator, used as `@record` or `@record(frozen=..., eq=...)`.

    As with dataclasses: `__init__` takes the fields in order, positionally
    or by keyword, then runs `__post_init__` if the class has one; `repr`
    is `Name(a=..., b=...)`; `==` compares the compared fields of two
    instances of one class (else `NotImplemented`) and a frozen record
    hashes as the tuple of them; an `eq=True` record that is not frozen
    is unhashable, and `eq=False` keeps the class's own `__eq__`/`__hash__`.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen, eq=eq)
    names = tuple(cls.__annotations__)
    defaults, factories, compared = {}, {}, []
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, _Field):
            delattr(cls, name)
            if value.default_factory is not None:
                factories[name] = value.default_factory
            if not value.compare:
                continue
        elif value is not _MISSING:
            defaults[name] = value
        compared.append(name)
    qualname, arity = cls.__qualname__, len(names)
    post_init = cls.__dict__.get("__post_init__")

    def bind(args, kwargs):
        """The field values from the arguments (emptying the call's own
        `kwargs` dict) and the defaults."""
        if len(args) > arity:
            raise TypeError(f"{qualname}() takes {arity} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in factories:
                values.append(factories[name]())
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{qualname}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{qualname}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        # one attribute at a time: filling `__dict__` in one step would make
        # CPython 3.11+ drop its faster inline attribute storage for good
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post_init is not None:
            post_init(self)

    fields = _tuple_getter(names)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, names, fields(self)))})"

    cls.__init__, cls.__repr__, cls.__record_fields__ = __init__, __repr__, names
    if eq:
        key = _tuple_getter(compared)

        def __eq__(self, other):
            if other is self:  # as the tuple comparison would answer
                return True
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _frozen
    return cls

