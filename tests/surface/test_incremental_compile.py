"""The incremental front end agrees with the whole-program pipeline.

``compile_source`` reuses every declaration compiled before in the same
context (:mod:`repro.surface.decls`); ``compile_fresh`` runs the whole
pipeline.  Over edit sequences — the paper's mortgage improvements, the
gallery's warm and cold edits, generated programs whose declarations
are inserted, deleted, moved and reordered, box renumbering and callee
signature or effect changes — the two must build the same program, and
a broken edit — those edits and seeded mutants of the mortgage app and
the gallery — must report the same problem, decided per declaration
wherever a declaration can see what the whole program sees.
"""

import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import mortgage
from repro.apps.gallery import function_gallery_source
from repro.core import ast
from repro.core.errors import ReproError
from repro.live.session import LiveSession
from repro.metatheory.generators import surface_declarations
from repro.obs.trace import Tracer
from repro.render.html_backend import render_html
from repro.surface import compile as surface_compile
from repro.surface import decls
from repro.surface.compile import compile_fresh, compile_source


def box_ids(code):
    """Every ``Boxed`` node's ``box_id``, definition by definition (the
    field is ``compare=False``, so ``Code`` equality ignores it)."""
    return [
        (definition.name, [
            node.box_id
            for field in definition.__slots__
            if isinstance(getattr(definition, field), ast.Expr)
            for node in ast.walk(getattr(definition, field))
            if type(node) is ast.Boxed
        ])
        for definition in code
    ]


def signatures(env):
    """The environment's signatures, without their declaration links."""
    return (
        {name: (info.field_names, info.field_types, info.span)
         for name, info in env.records.items()},
        {name: sig.stype for name, sig in env.globals.items()},
        {name: (sig.param_names, sig.param_stypes, sig.return_stype,
                sig.effect)
         for name, sig in env.funs.items()},
        {name: (sig.param_names, sig.param_stypes, sig.return_stype,
                sig.effect)
         for name, sig in env.externs.items()},
        {name: (sig.param_names, sig.param_stypes)
         for name, sig in env.pages.items()},
    )


def view(compiled):
    """Everything a compiled program is compared on."""
    natives = compiled.natives
    sourcemap = compiled.sourcemap
    return {
        "code": compiled.code,
        "box_ids": box_ids(compiled.code),
        "generated": compiled.generated_functions,
        "natives": {name: natives.signature(name)
                    for name in natives.names()},
        "sourcemap": [sourcemap.entry(i) for i in sourcemap.box_ids()],
        "env": signatures(compiled.env),
        "program": compiled.program,
    }


def outcome(compile, source, impls):
    try:
        return "ok", view(compile(source, impls))
    except ReproError as problem:
        return "error", (type(problem), str(problem),
                         getattr(problem, "rule", None),
                         getattr(problem, "span", None))


def assert_agrees(source, impls=None):
    """Compile ``source`` incrementally (never from the intern table) and
    from scratch; the outcomes must be equal."""
    surface_compile._INTERNED.clear()
    incremental = outcome(compile_source, source, impls)
    assert incremental == outcome(compile_fresh, source, impls)
    return incremental[0]


# -- the paper's edits ---------------------------------------------------------

NOTE = {"number": "global note : number = 1\n",
        "string": 'global note : string = "draft"\n'}
PAYMENT = "format(monthly_payment(l.price, term, apr), 2)"


def mortgage_variant(improvements=(), note=None, fault=False, broken=False):
    source = mortgage.BASE_SOURCE
    for name, apply in (("I1", mortgage.apply_i1), ("I2", mortgage.apply_i2),
                        ("I3", mortgage.apply_i3)):
        if name in improvements:
            source = apply(source)
    if note is not None:
        source = source.replace(
            "global apr : number = 4.5\n",
            "global apr : number = 4.5\n" + NOTE[note],
        ) + '    boxed\n      post "note: " || note\n'
    if fault:
        source = source.replace(PAYMENT, PAYMENT.replace("), 2)", ") / 0, 2)"))
    if broken:
        source = source.replace("page detail(l : listing)",
                                "page detail(l : listing")
    return source


MORTGAGE_EDITS = [
    mortgage_variant(),
    mortgage_variant({"I1"}),
    mortgage_variant({"I1", "I2"}),
    mortgage_variant({"I1", "I2"}, note="number"),
    mortgage_variant({"I1", "I2"}, note="number", broken=True),
    mortgage_variant({"I1", "I2", "I3"}, note="number"),
    mortgage_variant({"I1", "I2", "I3"}, note="string"),
    mortgage_variant({"I2", "I3"}, note="string", fault=True),
    mortgage_variant({"I2", "I3"}),
    mortgage_variant({"I3"}, note="number", broken=True),
    mortgage_variant({"I3"}),
    mortgage_variant(),
]


def test_mortgage_edit_sequence_matches_the_whole_pipeline():
    impls = mortgage.host_impls()
    outcomes = [assert_agrees(source, impls) for source in MORTGAGE_EDITS]
    assert outcomes.count("error") == 2


def test_gallery_warm_and_cold_edits_match_the_whole_pipeline():
    base = function_gallery_source(rows=3, cols=2)
    warm = base.replace('post title || "', 'post "live " || title || "')
    cold = base.replace("box.padding := 0", "box.padding := 1")
    both = warm.replace("box.padding := 0", "box.padding := 1")
    assert len({base, warm, cold, both}) == 4
    for source in (base, warm, both, cold, base, both):
        assert assert_agrees(source) == "ok"


# -- generated programs and structural edits -----------------------------------

EXTRA = (
    "global extra : number = 7\n",
    "fun added(n : number)\n  boxed\n    post \"added \" || n\n",
    "// a comment line\n",
)


@st.composite
def edited_programs(draw):
    """A generated program and a few structural edits of it."""
    versions = [draw(surface_declarations())]
    for _ in range(draw(st.integers(1, 4))):
        texts = list(versions[-1])
        kind = draw(st.sampled_from(
            ("insert", "delete", "move", "reorder", "literal")
        ))
        if kind == "insert":
            texts.insert(draw(st.integers(0, len(texts))),
                         draw(st.sampled_from(EXTRA)))
        elif kind == "delete" and len(texts) > 1:
            del texts[draw(st.integers(0, len(texts) - 1))]
        elif kind == "move":
            moved = texts.pop(draw(st.integers(0, len(texts) - 1)))
            texts.insert(draw(st.integers(0, len(texts))), moved)
        elif kind == "reorder":
            texts = draw(st.permutations(texts))
        else:
            index = draw(st.integers(0, len(texts) - 1))
            texts[index] = texts[index].replace("1", "2", 1)
        versions.append(texts)
    return ["".join(texts) for texts in versions]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edited_programs())
def test_generated_programs_under_structural_edits(sources):
    for source in sources:
        assert_agrees(source)


def test_generated_programs_compile():
    """The generator's programs are well typed as generated."""
    @settings(max_examples=20, deadline=None)
    @given(surface_declarations())
    def check(texts):
        assert assert_agrees("".join(texts)) == "ok"

    check()


PROGRAM = '''\
global n : number = 2
fun helper(x : number) : number
  return x + 1
fun rows(k : number)
  for i = 1 to k do
    boxed
      post "row " || i
page start()
  render
    boxed
      post "n = " || helper(n)
      on tap do
        n := n + 1
    rows(n)
'''


def test_box_renumbering_edits():
    boxed_first = PROGRAM.replace(
        "fun helper", "fun banner()\n  boxed\n    post \"hi\"\nfun helper"
    )
    for source in (PROGRAM, boxed_first, PROGRAM, boxed_first):
        assert assert_agrees(source) == "ok"
    # The same page text sits after one more ``boxed`` statement, so its
    # box ids (in the code and the sourcemap) moved up by one.
    fresh = compile_fresh(boxed_first)
    assert fresh.sourcemap.entry(0).page == "banner"


def test_a_callee_signature_or_effect_change_recompiles_its_callers():
    tracer = Tracer()
    compile_source(PROGRAM, tracer=tracer)
    rendering = PROGRAM.replace(
        "fun helper(x : number) : number\n  return x + 1\n",
        "fun helper(x : number) : number\n  boxed\n    post x\n"
        "  return x + 1\n",
    )
    retyped = PROGRAM.replace(
        "fun helper(x : number) : number", "fun helper(x : string) : number"
    ).replace("return x + 1", "return count(x)").replace(
        "helper(n)", "helper(\"\" || n)")
    for source in (rendering, retyped):
        before = dict(tracer.counters)
        surface_compile._INTERNED.clear()
        compiled = compile_source(source, tracer=tracer)
        assert view(compiled) == view(compile_fresh(source))
        # The interface changed, so nothing compiled under the old one
        # may be reused: every declaration is compiled again.
        assert tracer.counters["surface.decls_compiled"] - before.get(
            "surface.decls_compiled", 0) == 4
        assert tracer.counters["surface.decls_reused"] == before.get(
            "surface.decls_reused", 0)
    # Back under the first interface, every declaration is reused.
    surface_compile._INTERNED.clear()
    before = tracer.counters["surface.decls_reused"]
    compile_source(PROGRAM, tracer=tracer)
    assert tracer.counters["surface.decls_reused"] == before + 4
    effect = compile_source(rendering).code.function("helper").type.effect
    assert str(effect) == "r"


def test_sessions_on_reused_declarations_run_like_the_oracle():
    """Running code assembled from reused definitions (and their cached
    verdicts, compiled units and memo facts) matches the faithful
    machine, also when an edit moves the global slots under them."""
    first = "global first : number = 5\n" + PROGRAM
    # Moving a declaration keeps the interface, so every definition is
    # reused — under another global slot layout.
    last = PROGRAM + "global first : number = 5\n"
    renamed = first.replace("n = ", "count = ")
    for source in (PROGRAM, first, last, renamed, last, first):
        surface_compile._INTERNED.clear()
        sessions = [LiveSession(source), LiveSession(source, faithful=True)]
        for session in sessions:
            session.tap_text("n = 3" if "n = " in source else "count = 3")
        fast, oracle = (render_html(session.display) for session in sessions)
        assert fast == oracle
        assert "row 3" in fast


SLOTS = '''\
global a : number = 1
global b : number = 10
fun get_a() : number
  return a
page start()
  render
    boxed
      post "sum " || (get_a() + b)
      on tap do
        a := a + 1
'''


def test_definitions_reused_under_another_slot_layout():
    """Moving a global reorders the slots; the page is reused while
    ``get_a`` is compiled anew, and both must agree on the layout."""
    moved = SLOTS.replace(
        "global a : number = 1\nglobal b : number = 10\n",
        "global b : number = 10\nglobal a : number = 1\n",
    ).replace("return a", "return a + 0")
    for source in (SLOTS, moved):
        surface_compile._INTERNED.clear()
        session = LiveSession(source)
        session.tap_text("sum 11")
        assert "sum 12" in render_html(session.display)


BROKEN = [
    PROGRAM.replace("page start()", "page start("),
    PROGRAM.replace("helper(n)", "helper(\"n\")"),
    PROGRAM.replace("return x + 1", "return y + 1"),
    PROGRAM.replace("fun rows", "fun helper"),
    PROGRAM.replace("global n : number = 2\n", "  global n : number = 2\n"),
    PROGRAM.replace("      post \"row \" || i", "      post \"row \" || i\n"
                    "      n := 1"),
    PROGRAM + "page start()\n",
    PROGRAM.replace("page start()", "page begin()"),
    "// only a comment\n",
    "",
]


@pytest.mark.parametrize("source", BROKEN)
def test_a_broken_edit_reports_the_whole_pipeline_problem(source):
    compile_source(PROGRAM)  # its declarations are cached
    assert assert_agrees(source) == "error"


# -- seeded mutations ------------------------------------------------------------

#: What a mutation inserts, or replaces a character with.
PUNCTUATION = ("(", ")", "[", "]", ":", "=", ",", ".", '"', "/", "\\",
               "//", "\n", "\t")
#: Text a mutation puts at the start of a line (column 0).
COLUMN_ZERO = ("x", "fun ", "page ", "global ", ")", "1", '"', "\t",
               "fun f()\n", "page p()\n", "fun helper(x : number)\n",
               "global extra : number = 1\n")
#: Type-error mutations: an unknown name, or an argument of another type.
RETYPES = (("(", '("s", '), ("(", "(1, "), ("l.price", "l.address"),
           ("l.", "zz."), ("term", "nope"), ("apr", '"apr"'),
           ("selected", "unknown"), ("title", "(title + 1)"),
           (" 1 ", ' "one" '), ('"', '1 || "'))


def mutation_bases():
    """The sources mutants are drawn from: mortgage variants (I1–I3,
    the ``note`` global as a number and as a string) and the gallery."""
    return [
        mortgage_variant(),
        mortgage_variant({"I1", "I2", "I3"}),
        mortgage_variant({"I2"}, note="number"),
        mortgage_variant({"I1", "I3"}, note="string"),
        function_gallery_source(rows=3, cols=2),
    ]


def mutate(source, rng):
    """``source`` after 1–3 random deletions, insertions or replacements
    of punctuation, column-0 text, declaration lines or type errors."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("delete", "insert", "replace", "line", "retype"))
        at = rng.randrange(len(source) + 1)
        if kind == "delete":
            source = source[:at] + source[at + rng.randint(1, 3):]
        elif kind == "insert":
            source = source[:at] + rng.choice(PUNCTUATION) + source[at:]
        elif kind == "replace":
            source = source[:at] + rng.choice(PUNCTUATION) + source[at + 1:]
        elif kind == "line":
            at = source.rfind("\n", 0, at) + 1
            source = source[:at] + rng.choice(COLUMN_ZERO) + source[at:]
        else:
            old, new = rng.choice(RETYPES)
            found = source.find(old, at)
            if found < 0:
                found = source.find(old)
            if found >= 0:
                source = source[:found] + new + source[found + len(old):]
    return source


def mutant_differences(count, seed):
    """Compile ``count`` seeded mutants incrementally (the declarations of
    their base cached) and from scratch; the ``(index, source, outcomes)``
    of every mutant whose outcomes differ."""
    rng = random.Random(seed)
    bases = mutation_bases()
    impls = mortgage.host_impls()
    differences = []
    for index in range(count):
        base = bases[index % len(bases)]
        compile_source(base, impls)  # its declarations are cached
        source = mutate(base, rng)
        surface_compile._INTERNED.clear()
        incremental = outcome(compile_source, source, impls)
        fresh = outcome(compile_fresh, source, impls)
        if incremental != fresh:
            differences.append((index, source, incremental, fresh))
    return differences


#: The tier-1 profile; ``python tests/surface/test_incremental_compile.py
#: COUNT [SEED]`` runs a longer soak.
MUTANTS, MUTANT_SEED = 500, 20261019


def test_seeded_mutants_report_the_whole_pipeline_problem():
    assert mutant_differences(MUTANTS, MUTANT_SEED) == []


def test_the_mutants_are_mostly_but_not_only_broken():
    rng = random.Random(MUTANT_SEED)
    impls = mortgage.host_impls()
    kinds = [
        outcome(compile_fresh, mutate(base, rng), impls)[0]
        for base in mutation_bases() * 20
    ]
    assert kinds.count("ok") >= 5
    assert kinds.count("error") >= 50


def test_the_workload_broken_edits_raise_without_a_fallback():
    impls = mortgage.host_impls()
    tracer = Tracer()
    for improvements in ((), ("I1",), ("I1", "I2"), ("I1", "I2", "I3")):
        for note in (None, "number", "string"):
            compile_source(mortgage_variant(improvements, note), impls,
                           tracer=tracer)
            broken = mortgage_variant(improvements, note, broken=True)
            with pytest.raises(ReproError) as raised:
                compile_source(broken, impls, tracer=tracer)
            assert outcome(compile_fresh, broken, impls)[1] == (
                type(raised.value), str(raised.value), None,
                raised.value.span)
    assert "surface.fresh_fallbacks" not in tracer.counters


def test_an_undecided_error_falls_back_and_is_counted():
    compile_source(PROGRAM)
    tracer = Tracer()
    # A function left without a body: alone, its parse stops at its EOF,
    # where the whole program sees the next declaration's ``page``.
    source = PROGRAM.replace(
        '  for i = 1 to k do\n    boxed\n      post "row " || i\n', "")
    with pytest.raises(ReproError):
        compile_source(source, tracer=tracer)
    assert tracer.counters["surface.fresh_fallbacks"] == 1
    assert assert_agrees(source) == "error"


# -- observability ---------------------------------------------------------------


def test_an_i2_edit_compiles_one_declaration():
    impls = mortgage.host_impls()
    tracer = Tracer()
    compile_source(mortgage.BASE_SOURCE, impls, tracer=tracer)
    base = dict(tracer.counters)
    assert base["surface.decls_compiled"] == 10
    assert base.get("surface.decls_reused", 0) == 0
    compile_source(mortgage.apply_i2(mortgage.BASE_SOURCE), impls,
                   tracer=tracer)
    assert tracer.counters["surface.decls_compiled"] == 11
    assert tracer.counters["surface.decls_reused"] == 9


def test_the_edit_cycle_span_carries_the_counts():
    tracer = Tracer()
    session = LiveSession(PROGRAM, tracer=tracer)
    result = session.replace_text("return x + 1", "return x + 2")
    assert result.applied
    cycle = [s for s in tracer.spans() if s.name == "edit_cycle"][-1]
    assert cycle.attrs["decls_compiled"] == 1
    assert cycle.attrs["decls_reused"] == 3


# -- isolation and thread safety ---------------------------------------------------


def test_threads_compiling_interleaved_edits_match_the_sequential_run():
    impls = mortgage.host_impls()
    sources = MORTGAGE_EDITS[:4] + MORTGAGE_EDITS[5:9]
    expected = [view(compile_fresh(source, impls)) for source in sources]
    results = {}

    def worker(index):
        # Each thread walks the versions in its own rotation, so the
        # threads race on the same declarations in different contexts.
        order = sources[index:] + sources[:index]
        seen = []
        for _ in range(3):
            for source in order:
                seen.append((source, view(compile_source(source, impls))))
        results[index] = seen

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    by_source = dict(zip(sources, expected))
    assert len(results) == 8
    for seen in results.values():
        for source, got in seen:
            assert got == by_source[source]


def test_the_declaration_cache_stays_at_its_bound():
    cache = decls._RESULTS
    for index in range(decls.DECL_BOUND + 10):
        compile_source(PROGRAM.replace("x + 1", "x + {}".format(index)))
        assert len(cache) <= decls.DECL_BOUND
    assert len(cache) == decls.DECL_BOUND
    # The newest version's declarations are still cached: compiling it
    # again (past the intern table) reuses all four.
    newest = PROGRAM.replace("x + 1", "x + {}".format(decls.DECL_BOUND + 9))
    surface_compile._INTERNED.clear()
    tracer = Tracer()
    compile_source(newest, tracer=tracer)
    assert tracer.counters["surface.decls_reused"] == 4
    decls.clear()
    assert len(cache) == 0


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else random.randrange(2**32)
    print("mutants: {} seed: {}".format(count, seed), flush=True)
    found = mutant_differences(count, seed)
    for index, source, incremental, fresh in found[:5]:
        print("mutant {} differs:\n{}\nincremental: {}\nfresh: {}".format(
            index, source, incremental, fresh))
    print("{} of {} mutants differ".format(len(found), count))
    sys.exit(1 if found else 0)
