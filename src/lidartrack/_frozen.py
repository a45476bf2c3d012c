"""One rule for the arrays a frozen record holds: a read-only C-order copy
of exactly the field's shape, so a later write to the caller's array does
not reach the record and the caller's array stays writable. A free length
is written as its name, such as "N" in ("N", 3). Nothing from the package
is imported here, so that every record module can import it."""

import inspect

import numpy as np


def check_shape(name: str, arr: np.ndarray, shape: tuple) -> None:
    """A ValueError naming the field or argument unless arr has exactly `shape`."""
    fits = [isinstance(want, str) or want == got for want, got in zip(shape, arr.shape)]
    if arr.ndim != len(shape) or not all(fits):
        text = str(shape).replace("'", "")  # ("N", 3) reads (N, 3)
        raise ValueError(f"{name} must have shape {text}, got {arr.shape}")


def frozen(name: str, value, dtype, shape: tuple) -> np.ndarray:
    """A read-only copy of value as dtype, in C order, of exactly `shape`."""
    arr = np.array(value, dtype=dtype, order="C")
    check_shape(name, arr, shape)
    arr.flags.writeable = False
    return arr


class FrozenRecord:
    """Base of the records that hold frozen arrays. An unpickled array is
    writable, so pickle and copy.deepcopy rebuild such a record through its
    constructor, from the attributes its parameters name, which freezes its
    arrays again."""

    def __reduce__(self):
        names = inspect.signature(type(self)).parameters
        return type(self), tuple(getattr(self, name) for name in names)
