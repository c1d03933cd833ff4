"""Small result types for identity-verification runs.

Only the checks (verify and symfun) load this module.  The types are
plain classes with ``__slots__`` rather than dataclasses all the same:
importing ``dataclasses`` loads ``inspect``, ``ast`` and ``dis``, about
10 ms on a 2-core host, while ``verify --suite all`` runs its default
suites in about 35 ms.  ``_Fields`` gives what the decorator gave: a
field-wise repr, and equality only between instances of the same class.
"""


class _Fields:
    """Repr, equality and pickling over the fields named by ``__slots__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __reduce__(self):
        return type(self), self._values()


class CaseResult(_Fields):
    """Outcome of one verified case: fields set once, hashable by their values."""

    __slots__ = ("label", "ok", "detail")

    def __init__(self, label: str, ok: bool, detail: str = "") -> None:
        for name, value in zip(self.__slots__, (label, ok, detail)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())

    def line(self) -> str:
        text = f"{'PASS' if self.ok else 'FAIL'} {self.label}"
        if self.detail and not self.ok:
            text += f": {self.detail}"
        return text


class CheckReport(_Fields):
    """A named batch of case results."""

    __slots__ = ("name", "cases")

    def __init__(self, name: str, cases: list | None = None) -> None:
        self.name = name
        self.cases = [] if cases is None else cases

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.cases.append(CaseResult(label, bool(ok), detail))

    def extend(self, other: "CheckReport") -> None:
        self.cases.extend(other.cases)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    @property
    def failures(self) -> list:
        return [c for c in self.cases if not c.ok]

    def summary(self) -> str:
        passed = sum(1 for c in self.cases if c.ok)
        return f"{self.name}: {passed}/{len(self.cases)} checks passed"
