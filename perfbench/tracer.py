"""Outside-in span recorder for the traced runs.

Spans are recorded from the benchmark's side: each declared target, a public
callable of one oscillet layer, is replaced by a timing wrapper at every name
through which the program can reach it, and restored afterwards.  Nothing
under src/ is edited.

Binding rules the wrapping has to respect:

- `from .norms import tlm_wavelet_norm` copies the function into the
  importing module, so every loaded `oscillet*` module attribute that *is*
  the original function is patched, not only the defining one;
- function-local imports (`from .tent import tent_norms` inside
  `riesz_tent_experiment`) read the defining module at call time, which is
  patched too;
- basis `analyze`/`synthesize` are class attributes and are patched on the
  class;
- `frames_from_tcf` is a lazy generator: wrapping the call would time only
  the generator's creation, so it is not a target; its per-frame
  `synthesize` calls run while `pi_phi_report` consumes it and nest under
  `semigroup.reconstruct`.

A target that no longer exists raises `LookupError` at install, so a rename
fails loudly.  Time a later refactor moves out of every declared span shows
up as `trace.unattributed_s`: the traced wall minus the self time of every
span.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# span name -> (defining module, attribute path); several targets may share
# a span when they are one layer's entry points and never nest.
TARGETS = (
    ("wavelet.build_basis", "oscillet.wavelet", "build_basis"),
    ("wavelet.meyer.analyze", "oscillet.wavelet", "MeyerBasis.analyze"),
    ("wavelet.meyer.synthesize", "oscillet.wavelet", "MeyerBasis.synthesize"),
    ("wavelet.daubechies.analyze", "oscillet.wavelet", "DaubechiesBasis.analyze"),
    ("wavelet.daubechies.synthesize", "oscillet.wavelet",
     "DaubechiesBasis.synthesize"),
    ("norms.oscillation", "oscillet.norms", "oscillation_norm_report"),
    ("norms.tl", "oscillet.norms", "tl_norm"),
    ("norms.moment_solve", "oscillet.norms", "solve_moment_system"),
    ("norms.tlm", "oscillet.norms", "tlm_wavelet_norm"),
    ("semigroup.evolve", "oscillet.semigroup", "evolve_coefficients"),
    ("semigroup.reconstruct", "oscillet.semigroup", "pi_phi_report"),
    ("semigroup.calibrate", "oscillet.semigroup", "calibrate_family"),
    ("semigroup.decay_bounds", "oscillet.semigroup", "check_decay_bounds"),
    ("tent.norms", "oscillet.tent", "tent_norms"),
    ("tent.embeddings", "oscillet.tent", "check_embeddings"),
    ("operators.riesz_matrix", "oscillet.operators", "riesz_matrix"),
    ("operators.apply_time", "oscillet.operators", "apply_matrix_time"),
    ("operators.apply", "oscillet.operators", "apply_matrix"),
    ("operators.czo_generate", "oscillet.operators", "generate_random_czo"),
    ("operators.validate_decay", "oscillet.operators", "validate_decay"),
    ("harness.generate_input", "oscillet.harness", "generate_test_function"),
    ("harness.write_reports", "oscillet.harness", "write_report"),
    ("harness.write_reports", "oscillet.harness", "write_rows_csv"),
    ("harness.write_reports", "oscillet.harness", "write_digest"),
)
SPANS = tuple(dict.fromkeys(span for span, _, _ in TARGETS))


class Tracer:
    """Per-span call counts and self time (span time minus child spans)."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, self_s]
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]              # time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def _resolve(modname: str, attr: str):
    owner = importlib.import_module(modname)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise LookupError(f"trace target {modname}.{attr} no longer exists")
    return owner, name


def check_targets():
    """Raise LookupError unless every declared target exists."""
    for _, modname, attr in TARGETS:
        _resolve(modname, attr)


@contextmanager
def installed(tracer: Tracer):
    """Patch every target binding for the duration of the block."""
    patches = []
    try:
        for span, modname, attr in TARGETS:
            owner, name = _resolve(modname, attr)
            orig = owner.__dict__[name]
            wrapper = tracer.wrap(span, orig)
            sites = [(owner, name)]
            if not isinstance(owner, type):
                sites += [(mod, key)
                          for mname, mod in sorted(sys.modules.items())
                          if mname.split(".")[0] == "oscillet" and mod is not owner
                          for key, val in vars(mod).items() if val is orig]
            for site, key in sites:
                patches.append((site, key, orig))
                setattr(site, key, wrapper)
        yield tracer
    finally:
        for site, key, orig in reversed(patches):
            setattr(site, key, orig)
