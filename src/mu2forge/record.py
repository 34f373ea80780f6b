"""Frozen records: the part of PEP 557 the kernel's classes use.

``@record`` reads a class body's annotated fields in order, each with an
optional default given directly or by :func:`field`, and gives the class

* ``__init__`` taking the fields in order, defaults last;
* ``__repr__`` as ``Qualname(f=value!r, ...)``;
* ``__eq__`` over the compared fields, in field order, between instances
  of the same class (``NotImplemented`` otherwise), and ``__hash__`` of
  the same tuple, computed once per instance;
* ``__match_args__``, the field names in order;
* ``__setattr__`` and ``__delattr__`` that raise :class:`FrozenRecordError`.

This is what ``@dataclass(frozen=True)`` gives such a class, but
``__init__``, ``__repr__``, ``__eq__`` and ``_record_key`` (the tuple of
compared fields) are compiled from one source string in a single
``exec``, and every class shares one ``__hash__``.  The
constructor stores each field through ``object.__setattr__`` bound once,
so an instance keeps CPython's compact attribute values and their fast
reads (a store into ``self.__dict__`` would build the dict and halve the
speed of every later read).  The instance ``__dict__`` stays open to
memos that are not fields (see ``rewrite``).  ``__hash__`` hashes the
key once and stores the value beside the fields, as ``_record_hash``: a
record is immutable, so its hash never changes, and hashing a tree of
records a second time reads one attribute instead of walking the tree.
:func:`fields` returns the ordered field list.
"""

from __future__ import annotations

MISSING = object()  # the default of a field that has none
_setattr = object.__setattr__


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


class Field:
    __slots__ = ("name", "default", "compare")

    def __init__(self, name: str | None, default=MISSING, compare: bool = True):
        self.name, self.default, self.compare = name, default, compare


def field(*, default=MISSING, compare: bool = True) -> Field:
    """A field's default and whether ``==`` and ``hash`` read it."""
    return Field(None, default, compare)


def fields(cls: type) -> tuple[Field, ...]:
    """The fields of a record class, in constructor order."""
    return cls.__record_fields__


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _hash_once(self):
    h = self._record_hash
    if h is None:
        h = hash(self._record_key())
        _setattr(self, "_record_hash", h)
    return h


def record(cls: type) -> type:
    body, specs = vars(cls), []
    for name in body.get("__annotations__", {}):
        spec = body.get(name, MISSING)
        f = Field(name, spec.default, spec.compare) if isinstance(spec, Field) else Field(name, spec)
        # as in a dataclass, the class attribute is the default, if any
        if f.default is not MISSING:
            setattr(cls, name, f.default)
        elif name in body:
            delattr(cls, name)
        specs.append(f)
    names = [f.name for f in specs]
    params = "".join(
        f", {f.name}" if f.default is MISSING else f", {f.name}=_d{i}" for i, f in enumerate(specs)
    )
    stores = "".join(f"\n    _setattr(self, '{n}', {n})" for n in names) or "\n    pass"
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    mine = "(" + "".join(f"self.{f.name}," for f in specs if f.compare) + ")"
    theirs = "(" + "".join(f"other.{f.name}," for f in specs if f.compare) + ")"
    source = (
        f"def __init__(self{params}):{stores}\n"
        f"def __repr__(self):\n    return f\"{{self.__class__.__qualname__}}({shown})\"\n"
        "def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
        f"        return {mine} == {theirs}\n    return NotImplemented\n"
        f"def _record_key(self):\n    return {mine}\n"
    )
    methods: dict = {}
    defaults = {f"_d{i}": f.default for i, f in enumerate(specs)}
    exec(source, {"_setattr": _setattr, **defaults}, methods)
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__hash__, cls._record_hash = _hash_once, None
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = tuple(names)
    cls.__record_fields__ = tuple(specs)
    return cls
