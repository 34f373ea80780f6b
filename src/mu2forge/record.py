"""Frozen records: the part of PEP 557 the kernel's classes use.

``@record`` reads a class body's annotated fields in order, each with an
optional default given directly or by :func:`field`, and rebuilds the
class with ``__slots__ = (*fields, "__dict__")``.  The class gets

* ``__init__`` taking the fields in order, defaults last;
* ``__repr__`` as ``Qualname(f=value!r, ...)``;
* ``__eq__`` over the compared fields, in field order, between instances
  of the same class (``NotImplemented`` otherwise), and ``__hash__`` of
  the same tuple, computed once per instance;
* ``__match_args__``, the field names in order;
* ``__reduce__``, so ``copy``, ``deepcopy`` and ``pickle`` rebuild an
  instance through its constructor;
* ``__setattr__`` and ``__delattr__`` that raise :class:`FrozenRecordError`.

This is what ``@dataclass(frozen=True, slots=True)`` gives such a class,
and as there a default lives only in ``__init__.__defaults__``, not as a
class attribute.  ``__init__``, ``__eq__`` and ``_record_key`` (the tuple
of compared fields) are compiled from one source string in a single
``exec`` per class.  Every class shares one ``__hash__`` and, so that
rebuilding the class leaves the import no slower, one ``__repr__`` and
one ``__reduce__``.  The constructor stores each field through its slot
descriptor's ``__set__``, bound once per class.  A field read is a slot
read, whatever the instance ``__dict__`` holds: that dict stays open to
memos that are not fields (see ``rewrite``, ``target_types``, ``theory``
and ``mu_typing``).  ``__hash__`` hashes the key once and stores the
value there, as ``_record_hash``: a record is immutable, so its hash
never changes, and hashing a tree of records a second time reads one
attribute instead of walking the tree.  :func:`fields` returns the
ordered field list.
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


def _repr(self):
    cls = self.__class__
    shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in cls.__match_args__])
    return f"{cls.__qualname__}({shown})"


def _reduce(self):
    cls = self.__class__
    return cls, tuple([getattr(self, name) for name in cls.__match_args__])


def record(cls: type) -> type:
    body, specs = vars(cls), []
    for name in body.get("__annotations__", {}):
        spec = body.get(name, MISSING)
        specs.append(Field(name, spec.default, spec.compare) if isinstance(spec, Field) else Field(name, spec))
    names = tuple(f.name for f in specs)
    # the class again, with a slot per field and no class attribute of that name
    namespace = {k: v for k, v in body.items() if k not in names and k not in ("__dict__", "__weakref__")}
    namespace.update(__slots__=(*names, "__dict__"), __qualname__=cls.__qualname__)
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)

    params = "".join(
        f", {f.name}" if f.default is MISSING else f", {f.name}=_d{i}" for i, f in enumerate(specs)
    )
    stores = "".join(f"\n    _s{i}(self, {n})" for i, n in enumerate(names)) or "\n    pass"
    mine = "(" + "".join(f"self.{f.name}," for f in specs if f.compare) + ")"
    theirs = "(" + "".join(f"other.{f.name}," for f in specs if f.compare) + ")"
    source = (
        f"def __init__(self{params}):{stores}\n"
        "def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
        f"        return {mine} == {theirs}\n    return NotImplemented\n"
        f"def _record_key(self):\n    return {mine}\n"
    )
    scope = {f"_d{i}": f.default for i, f in enumerate(specs)}
    scope.update((f"_s{i}", vars(cls)[n].__set__) for i, n in enumerate(names))
    methods: dict = {}
    exec(source, scope, methods)
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__repr__, cls.__reduce__, cls.__hash__, cls._record_hash = _repr, _reduce, _hash_once, None
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = names
    cls.__record_fields__ = tuple(specs)
    return cls
