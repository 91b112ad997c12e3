"""A stand-in for the retired double-double 2x2 matrix.

Nothing in the package imports this module: every product goes through the
exact integer kernel, cover.exact_product. The benchmark's tracer,
perfbench/tracer.py, still wraps DDMatrix.__matmul__ to count its calls
(dd.matmul.calls, which reads 0), so the class and that one method are kept
until the next change to the benchmark drops the wrap.
"""


class DDMatrix:
    """The one attribute the tracer wraps; nothing calls it."""

    def __matmul__(self, other: "DDMatrix") -> "DDMatrix":
        return NotImplemented
