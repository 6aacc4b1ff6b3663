"""Frozen value records: the package's stand-in for ``@dataclass(frozen=True)``.

A subclass of ``Record`` declares its fields as class annotations, in
order; a class attribute of the same name is that field's default. Fields
are not inherited: records do not subclass one another. A record then
behaves as a frozen dataclass does:

- construction by position or keyword, with the ``TypeError`` a function
  raises for a missing, unknown or repeated argument;
- ``__post_init__`` runs after the fields are set; it sets anything
  derived with ``object.__setattr__``;
- equality only with an instance of the same class, on the field values,
  and a hash of them (``Scenario`` assigns ``object.__eq__``/``__hash__``);
- the repr ``Name(field=value!r, ...)``;
- ``AttributeError`` on assignment and deletion;
- ``replace(**changes)`` builds a copy with some fields changed, validated again.

One storage path, no class options: the values live in the instance
``__dict__``, in field order, and equality and hash read that dict whole
(per-field methods are 2-3x slower than a dataclass's). Query results,
kept by the thousand, are ``typing.NamedTuple``s instead: no ``__dict__``.

The base generates no source. ``dataclasses`` compiles six methods per
frozen class, one ``exec`` each, and imports ``inspect``, ``ast``,
``tokenize`` and ``dis``: about two thirds of ``import xdmev.cli`` when the
package's value classes were dataclasses.
"""

from __future__ import annotations


class Record:
    """Base of the frozen value classes (see the module docstring)."""

    __slots__ = ()

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        attrs = cls.__dict__
        cls._defaults = {name: attrs[name] for name in fields if name in attrs}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        object.__setattr__(self, "__dict__", dict(zip(fields, args)))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in field order, of one constructor call."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        for key in kwargs:
            if key in fields:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        return values

    def __post_init__(self) -> None:
        """Validation and derived attributes; subclasses override it."""

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A new record of this class with ``changes`` applied; ``__init__``
        and ``__post_init__`` run again."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return self.__class__(**values)
