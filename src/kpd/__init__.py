"""kpd: positive-definiteness analysis of an anisotropic rational kernel
family.

The library evaluates the kernel

    K(x, y) = (1/pi) / (1 + (x - y)^2 + a*(x^2 + y^2)^t),   t > 0, a > 0,

runs finite-sample positive/conditionally-negative definiteness tests,
computes the closed-form two-point violation boundary in the weight a,
constructs exact vanishing-moment witnesses that certify non-definiteness
for noninteger t with odd integer part, validates the fractional-power
integral representation behind the witness sign argument, and probes the
discretized operator spectrum.
"""

__version__ = "0.1.0"
