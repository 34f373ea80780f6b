"""Every record class of the kernel behaves as a frozen dataclass built
from its field list: the same repr, ==, hash, field order,
__match_args__, defaults and frozenness."""

import dataclasses
import importlib
import pkgutil

import pytest

import mu2forge
from mu2forge.record import MISSING, FrozenRecordError, fields


def _record_classes() -> list[type]:
    out = []
    for info in pkgutil.iter_modules(mu2forge.__path__):
        module = importlib.import_module(f"mu2forge.{info.name}")
        out.extend(
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and value.__module__ == module.__name__
            and "__record_fields__" in vars(value)
        )
    return out


RECORDS = _record_classes()


def _twin(cls: type) -> type:
    specs = []
    for f in fields(cls):
        options = {"compare": f.compare}
        if f.default is not MISSING:
            options["default"] = f.default
        specs.append((f.name, object, dataclasses.field(**options)))
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True)


TWINS = {cls: _twin(cls) for cls in RECORDS}

# field values of every kind the kernel stores: atoms, indices, tuples, None
SAMPLES = ("x%3", 0, ("t", 1), None, "it's", -2, frozenset({"a"}))


class _Counted:
    """A field value that counts the calls of its __hash__."""

    def __init__(self, value):
        self.value, self.calls = value, 0

    def __hash__(self):
        self.calls += 1
        return hash(self.value)

    def __repr__(self):
        return f"_Counted({self.value!r})"


def _values(cls: type, shift: int, compared_only: bool = False) -> list:
    """Sample values, one per field; shift changes the compared fields
    (or, with compared_only False, every field)."""
    return [
        SAMPLES[(i + (shift if f.compare or not compared_only else 0)) % len(SAMPLES)]
        for i, f in enumerate(fields(cls))
    ]


def test_every_record_class_is_found():
    assert len(RECORDS) == 60
    assert all(cls.__qualname__ == cls.__name__ for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__.split('.')[-1]}.{cls.__name__}")
def test_record_matches_its_dataclass_twin(cls):
    twin = TWINS[cls]
    names = [f.name for f in fields(cls)]
    assert names == list(vars(cls).get("__annotations__", {}))
    assert cls.__match_args__ == twin.__match_args__ == tuple(names)
    assert cls.__init__.__defaults__ == twin.__init__.__defaults__
    for f in fields(cls):
        assert vars(cls).get(f.name, MISSING) == vars(twin).get(f.name, MISSING)

    values = _values(cls, 0)
    rec, ref = cls(*values), twin(*values)
    assert repr(rec) == repr(ref)
    assert hash(rec) == hash(ref)
    assert [getattr(rec, n) for n in names] == values
    required = [v for v, f in zip(values, fields(cls)) if f.default is MISSING]
    assert repr(cls(*required)) == repr(twin(*required))
    assert repr(cls(**dict(zip(names, values)))) == repr(rec)

    # == and hash read the compared fields only, and only within one class
    for shift, compared_only in ((1, True), (1, False), (0, False)):
        other = _values(cls, shift, compared_only)
        same = rec == cls(*other)
        assert same == (ref == twin(*other))
        assert same == (cls(*other) == rec)
        if same:
            assert hash(cls(*other)) == hash(rec)
    if len(fields(cls)) > 0:
        hints_only = [v if f.compare else "hint" for v, f in zip(values, fields(cls))]
        assert rec == cls(*hints_only) and hash(rec) == hash(cls(*hints_only))
    assert rec.__eq__(ref) is NotImplemented and rec != ref
    assert rec.__eq__(values) is NotImplemented
    sub, twin_sub = type("Sub", (cls,), {}), type("Sub", (twin,), {})
    assert (rec == sub(*values)) == (ref == twin_sub(*values)) == False  # noqa: E712

    # hash is computed once per instance: hashing again asks no field, and
    # the stored hash changes no field, repr or == and keeps the record frozen
    counted = [_Counted(v) for v in values]
    hashed = cls(*counted)
    first = hash(hashed)
    asked = sum(c.calls for c in counted)
    assert asked == sum(f.compare for f in fields(cls))
    assert hash(hashed) == first == hash(twin(*counted))
    assert sum(c.calls for c in counted) == 2 * asked  # the twin's hash only
    assert [getattr(hashed, n) for n in names] == counted
    assert repr(hashed) == repr(twin(*counted)) and hashed == cls(*counted)
    for name in names:
        with pytest.raises(FrozenRecordError):
            setattr(hashed, name, 1)

    # frozen: the same exception message as the dataclass, and an AttributeError
    for name in [*names, "not_a_field"]:
        for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
            with pytest.raises(AttributeError) as got:
                act(rec)
            with pytest.raises(dataclasses.FrozenInstanceError) as want:
                act(ref)
            assert str(got.value) == str(want.value)
    assert repr(rec) == repr(ref)


def _as_twin(value):
    """value with every record in it replaced by its twin."""
    cls = value.__class__
    if cls in TWINS:
        return TWINS[cls](*(_as_twin(getattr(value, f.name)) for f in fields(cls)))
    if cls is tuple:
        return tuple(_as_twin(v) for v in value)
    return value


def test_kernel_trees_match_their_twins():
    """Whole terms, types, verdicts and formulas print and hash as the
    same trees of dataclasses do."""
    from mu2forge.combinators import catalog, church
    from mu2forge.cps import cps_term_typed
    from mu2forge.mu_terms import fv
    from mu2forge.relations import free_theorem
    from mu2forge.surface import parse_mu_type
    from mu2forge.theory import eq_mu

    values = [eq_mu(church(2), church(2)), free_theorem(parse_mu_type("forall X. X -> X"))]
    for entry in catalog():
        values += [entry, *(cps_term_typed((), (), entry.term) if not fv(entry.term) else ())]
    for value in values:
        twin = _as_twin(value)
        assert repr(value) == repr(twin)
        assert hash(value) == hash(twin)
