"""Exact-arithmetic toolkit for two-element generation of orthogonal groups.

Builds an involution/order-3 generator pair for the kernel-of-spinor-norm
subgroup of an orthogonal group over an odd finite field, verifies the
algebraic identities the construction relies on, and certifies generated
group orders with a randomized stabilizer chain.
"""

from __future__ import annotations

DEFAULT_SEED = 53251


class BadSeed(ValueError):
    def __init__(self, seed):
        super().__init__(f"seed must be an integer, got {seed!r}")


def resolved_seed(seed: int | None = None) -> int:
    """An explicit seed, or the package default; a bool, float or string
    is refused, as `fields.is_json_int` refuses it."""
    from .fields import is_json_int

    if seed is None:
        return DEFAULT_SEED
    if not is_json_int(seed):
        raise BadSeed(seed)
    return int(seed)


class Record:
    """An immutable record. A subclass's own annotations name its fields,
    in order, and a class attribute of a field's name is its default.
    Records of one type compare and hash by their fields, or by the ones
    `compare=` names in the class statement; a record of another type is
    never equal. Fields cannot be assigned, but a cached_property still
    caches: it writes the instance's __dict__ directly."""

    _fields = _compared = ()
    _defaults = {}

    def __init_subclass__(cls, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._compared = cls._fields if compare is None else tuple(compare)
        cls._defaults = {name: own[name] for name in cls._fields if name in own}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        given = dict(zip(fields, args))
        values = {**self._defaults, **given, **kwargs}
        if (len(args) > len(fields) or not given.keys().isdisjoint(kwargs)
                or values.keys() != set(fields)):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}: got "
                            f"{len(args)} by position and {sorted(kwargs)} by name")
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def _key(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._compared])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({body})"

    def _asdict(self) -> dict:
        """The fields in order, by name; the values are not copied."""
        return {name: self.__dict__[name] for name in self._fields}


class Clauses(Record):
    """A test's verdict: the names of the clauses it failed, in the order
    it tests them. It passes, and is true, when none failed."""

    reasons: tuple[str, ...]

    def __bool__(self):
        return not self.reasons

    ok = property(__bool__)


__all__ = ["DEFAULT_SEED", "BadSeed", "Clauses", "Record", "resolved_seed"]
