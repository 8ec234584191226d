"""The one base of gradex's record classes.

A record names its fields in a class-level ``_fields`` tuple, with
defaults for trailing fields in ``_defaults``.  It compares equal to a
record of the same class with equal fields (never to a tuple or to a
record of another class), and its repr lists the fields.  A record
declared ``frozen=True`` refuses assignment and hashes by its fields;
any other record is unhashable.  A class keeps its own ``__eq__`` and
``__repr__`` where it writes them, and a record whose fields need checks
writes its own ``__init__``, setting them with ``object.__setattr__``.
"""

from operator import attrgetter


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r} "
                         f"of a frozen {type(self).__name__}")


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen=False):
        get = attrgetter(*cls._fields)
        # the key is a tuple even for one field, so a record hashes like
        # the tuple of its fields
        cls._key = staticmethod(get if len(cls._fields) > 1
                                else lambda r: (get(r),))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _frozen
        else:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields, got {len(args)}")
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in self._defaults:
                values[name] = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} misses field "
                                f"{name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or "
                            f"repeated fields {sorted(kwargs)}")
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
