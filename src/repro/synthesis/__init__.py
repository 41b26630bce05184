"""The Hydride Code Synthesizer (paper Section 4).

Compiles vectorised Halide IR expressions ("windows") into sequences of
AutoLLVM operations using counterexample-guided inductive synthesis:

* :mod:`repro.synthesis.program` — candidate programs: DAGs of target
  instruction applications, swizzle patterns and register views;
* :mod:`repro.synthesis.scale` — lane scaling (Section 4.2): synthesize
  at reduced vector width, verify, scale back up;
* :mod:`repro.synthesis.swizzles` — the five specialized swizzle
  patterns (Section 4.4) added to every grammar;
* :mod:`repro.synthesis.grammar` — pruned grammar generation with
  bitvector-based screening (BVS) and score-based operation selection
  (SBOS) (Section 4.3, Table 5);
* :mod:`repro.synthesis.cost` — the latency-sum cost model;
* :mod:`repro.synthesis.cegis` — Algorithm 2: lane-wise CEGIS with an
  enumerative, cost-ordered Optimize step;
* :mod:`repro.synthesis.cache` — the memoization cache (Table 4);
* :mod:`repro.synthesis.translate` — the Rosette-to-LLVM analogue:
  synthesized programs to AutoLLVM IR calls;
* :mod:`repro.synthesis.serialize` — SNode round-tripping and dictionary
  fingerprinting for the persistent cache (:mod:`repro.service`);
* :mod:`repro.synthesis.rules` — the cache distilled into verified,
  parameterized rewrite rules matched ahead of CEGIS.
"""

from repro.synthesis.cegis import (
    CegisOptions,
    SynthesisFailure,
    SynthesisResult,
    synthesize,
)
from repro.synthesis.cache import MemoCache
from repro.synthesis.grammar import Grammar, GrammarOptions, build_grammar
from repro.synthesis.serialize import (
    SerializeError,
    dictionary_fingerprint,
    snode_from_obj,
    snode_to_obj,
)
from repro.synthesis.program import (
    SConstant,
    SHole,
    SInput,
    SOp,
    SSlice,
    SConcat,
    SSwizzle,
)
from repro.synthesis.rules import (
    RuleBook,
    distill_rules,
    load_rulebook,
    verify_rule,
)


class ReuseStore:
    """No-op stand-in for the removed cross-window reuse store.

    Shim for ``bench_e2e/tracejob.py``, which still constructs one and
    flushes it; delete it with the next benchmark change.  It keeps
    nothing and creates no directory.
    """

    def __init__(self, root=None) -> None:
        pass

    def flush(self) -> None:
        pass


__all__ = [
    "CegisOptions",
    "SynthesisFailure",
    "SynthesisResult",
    "synthesize",
    "MemoCache",
    "ReuseStore",
    "Grammar",
    "GrammarOptions",
    "build_grammar",
    "SerializeError",
    "dictionary_fingerprint",
    "snode_from_obj",
    "snode_to_obj",
    "SConstant",
    "SHole",
    "SInput",
    "SOp",
    "SSlice",
    "SConcat",
    "SSwizzle",
    "RuleBook",
    "distill_rules",
    "load_rulebook",
    "verify_rule",
]
