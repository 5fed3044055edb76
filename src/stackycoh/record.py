"""Frozen value classes, written once instead of made by a class factory.

A subclass names its fields as annotations, after those of its base. An
instance equals only an instance of its own class with equal fields,
hashes as their tuple, refuses assignment, pickles through its __dict__
and names its fields in its repr; the rest of that dict, such as a
cached_property value, takes no part. A class built in a hot loop fills
its fields in its own __init__, without the generic checks.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        values = dict(zip(self._fields, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        self.__dict__.update(values)

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({shown})"
