"""Integer and rational arithmetic backend.

All exact arithmetic in this package runs on the interpreter's own int and
fractions.Fraction.  perfbench/op.py's facts() reads BACKEND into every
benchmark record.
"""

BACKEND = "python"
