"""Tests for the mini-language front end (lexer, parser, translation)."""

import dataclasses
import pathlib
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Ordering, copy_env, evaluate_program
from repro.core.ifunc import AffineF, ConstantF, ModularF
from repro.frontend import (
    LexError,
    ParseError,
    TranslateError,
    clear_parse_cache,
    parse,
    parse_cache_info,
    tokenize,
    translate,
    translate_source,
)
from repro.frontend import ast as A
from repro.frontend import lexer
from repro.frontend.tokens import KEYWORDS, SYMBOLS
from repro.frontend.translate import classify_index_expr

from .conftest import check_all_tiers

ROOT = pathlib.Path(__file__).resolve().parent.parent


def oracle_tokenize(source):
    """The character-loop lexer the regex pass replaced, kept as the
    differential oracle: ``(kind, value, line, col)`` tuples."""
    out = []
    line, col = 1, 1
    i, n = 0, len(source)

    def peek(ahead=0):
        j = i + ahead
        return source[j] if j < n else ""

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#" or (ch == "*" and peek(1) == "*"):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            out.append(("num", int(source[start:i]), line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[start:i]
            out.append(("kw" if word in KEYWORDS else "ident", word, line,
                        col))
            col += i - start
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                out.append(("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise LexError(
                f"unexpected character {ch!r} at line {line}, column {col}"
            )
    out.append(("eof", None, line, col))
    return out


def both_lexers(source):
    """``(oracle, regex)`` outcomes: token tuples or the error text."""
    outcomes = []
    for lex in (oracle_tokenize, tokenize):
        try:
            outcomes.append([tuple(t) for t in lex(source)])
        except LexError as e:
            outcomes.append(f"LexError: {e}")
    return outcomes


def ledger_sources():
    """Every text the compile-cold and serve-mixed workloads compile."""
    from benchmarks.ledger.compilecold import FAMILIES, KINDS, SIZES
    from benchmarks.ledger.servemixed import RUN_PROGRAM, two_clause_source

    out = [RUN_PROGRAM] + [two_clause_source(k) for k in (2, 17, 60)]
    for family in FAMILIES:
        for kind in KINDS:
            for n, pmax in SIZES:
                out.append(family(n, kind, pmax, 5)[0])
    return out


def comment(body):
    return ("# " if len(body) % 2 else "**") + body


#: tokens, comments, whitespace and short runs of any printable ASCII
_ASCII_SOUP = st.lists(st.one_of(
    st.sampled_from(sorted(KEYWORDS) + SYMBOLS),
    st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c",
                     "\x1f"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.integers(0, 10 ** 9).map(str),
    st.text(string.printable.replace("\n", ""), max_size=8).map(comment),
    st.text(string.printable, max_size=3),
), max_size=40).map("".join)


class TestLexer:
    def test_basic_tokens(self):
        toks = tokenize("for i := 0 to 9 do od")
        kinds = [(t.kind, t.value) for t in toks]
        assert kinds[0] == ("kw", "for")
        assert kinds[1] == ("ident", "i")
        assert kinds[2] == ("sym", ":=")
        assert kinds[-1] == ("eof", None)

    def test_numbers(self):
        toks = tokenize("123 4")
        assert toks[0].value == 123
        assert toks[1].value == 4

    def test_multi_char_symbols(self):
        toks = tokenize("<= >= != :=")
        assert [t.value for t in toks[:-1]] == ["<=", ">=", "!=", ":="]

    def test_double_star_comment(self):
        toks = tokenize("1 ** send all elem\n2")
        assert [t.value for t in toks[:-1]] == [1, 2]

    def test_hash_comment(self):
        toks = tokenize("1 # comment\n2")
        assert [t.value for t in toks[:-1]] == [1, 2]

    def test_line_tracking(self):
        toks = tokenize("a\nbb")
        assert toks[0].line == 1
        assert toks[1].line == 2

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_keywords_vs_idents(self):
        toks = tokenize("form for")
        assert toks[0].kind == "ident"
        assert toks[1].kind == "kw"

    @pytest.mark.parametrize("source, where", [
        ("A[i] := B[²];", "'²' at line 1, column 11"),
        ("for i := 0 to 3 do\n  A[i] := B[i\u00a0+ 1];\nod", "'\\xa0' at line 2, column 14"),
        ("x\u0661", "'\u0661' at line 1, column 2"),
    ])
    def test_non_ascii_outside_comments_is_a_lex_error(self, source, where):
        with pytest.raises(LexError) as exc:
            tokenize(source)
        assert str(exc.value) == f"unexpected character {where}"

    def test_non_ascii_inside_comments_is_skipped(self):
        toks = tokenize("x # (•) ²\ny ** é\n")
        assert [(t.kind, t.value, t.line) for t in toks] == [
            ("ident", "x", 1), ("ident", "y", 2), ("eof", None, 3)]


class TestLexerMatchesTheCharacterLoop:
    """The regex pass emits the old character loop's exact
    ``(kind, value, line, col)`` stream on every ASCII input."""

    @pytest.mark.parametrize("pal", sorted((ROOT / "examples" / "programs")
                                           .glob("*.pal")),
                             ids=lambda p: p.stem)
    def test_example_programs(self, pal):
        oracle, regex = both_lexers(pal.read_text())
        assert regex == oracle

    def test_ledger_sources(self):
        for source in ledger_sources():
            oracle, regex = both_lexers(source)
            assert regex == oracle, source

    @settings(max_examples=300, deadline=None)
    @given(_ASCII_SOUP)
    def test_token_soup(self, source):
        oracle, regex = both_lexers(source)
        assert regex == oracle

    def test_trailing_comment_keeps_the_eof_column(self):
        for source in ("a # tail", "a\n** tail", "#", ""):
            oracle, regex = both_lexers(source)
            assert regex == oracle, source


class TestParseMemo:
    """``parse`` is memoized on the text; its AST is immutable, and so
    are the clauses the memo keeps per text and params."""

    SOURCE = ("for i := 0 to 9 par do\n"
              "    if B[i] > 0 then A[i] := B[i] + 1; fi;\nod;\n")

    def setup_method(self):
        clear_parse_cache()

    def test_second_parse_is_a_lookup(self, monkeypatch):
        first = parse(self.SOURCE)

        def no_lexing(source):
            raise AssertionError("a memoized text was lexed again")

        monkeypatch.setattr(lexer, "tokenize", no_lexing)
        monkeypatch.setattr("repro.frontend.parser.tokenize", no_lexing)
        assert parse(self.SOURCE) is first
        info = parse_cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (1, 1, 1)
        assert info["bytes"] == len(self.SOURCE.encode())

    def test_ast_is_immutable(self):
        block = parse(self.SOURCE)
        (loop,) = block.body
        (iff,) = loop.body
        assert isinstance(block.body, tuple)
        assert isinstance(loop.body, tuple)
        assert isinstance(iff.body, tuple) and isinstance(iff.orelse, tuple)
        for node, name in ((block, "body"), (loop, "body"), (loop, "var"),
                           (iff, "orelse"), (iff.body[0], "value")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)
        # nodes built by hand are frozen the same way
        assert A.Block([loop]).body == (loop,)

    def test_translate_shares_frozen_clauses(self):
        one = translate_source(self.SOURCE)
        two = translate_source(self.SOURCE)
        assert parse_cache_info()["hits"] == 1
        assert one is not two and one.clauses is not two.clauses
        assert all(a is b for a, b in zip(one, two))
        src = "for i := 0 to n par do A[i] := B[i]; od"
        three, seven = (translate_source(src, {"n": n}) for n in (3, 7))
        assert three.clauses[0] is not seven.clauses[0]
        assert translate_source(src, {"n": 3}).clauses[0] \
            is three.clauses[0]

    def test_params_enter_after_the_memo(self):
        src = "for i := 0 to n par do A[i] := 0; od"
        assert translate_source(src, {"n": 3}).clauses[0].domain \
            .bounds.scalar() == (0, 3)
        assert translate_source(src, {"n": 7}).clauses[0].domain \
            .bounds.scalar() == (0, 7)
        assert parse_cache_info()["hits"] == 1

    def test_lru_is_bounded(self, monkeypatch):
        from repro.frontend.parser import _parse_cache

        monkeypatch.setattr(_parse_cache, "_maxsize", 2)
        for k in range(4):
            parse(f"for i := 0 to {k} do A[i] := 0; od")
        info = parse_cache_info()
        assert (info["size"], info["evictions"]) == (2, 2)

    def test_env_var_bounds_the_memo(self, monkeypatch):
        from repro.frontend.parser import _ParseCache

        monkeypatch.setenv("REPRO_CACHE_SIZE", "3")
        assert _ParseCache().maxsize == 3
        monkeypatch.delenv("REPRO_CACHE_SIZE")
        assert _ParseCache().maxsize == _ParseCache.DEFAULT_MAXSIZE

    def test_clear_all_caches_empties_the_memo(self, monkeypatch):
        from repro.cacheinfo import clear_all_caches

        parse(self.SOURCE)
        assert parse_cache_info()["size"] == 1
        assert clear_all_caches()["parse"] == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
            "maxsize": parse_cache_info()["maxsize"], "bytes": 0}
        lexed = []
        real = lexer.tokenize
        monkeypatch.setattr("repro.frontend.parser.tokenize",
                            lambda source: lexed.append(source)
                            or real(source))
        parse(self.SOURCE)  # a cold compile still parses
        assert lexed == [self.SOURCE]


class TestSharedTranslations:
    """Every caller of one ``(text, params)`` shares one set of frozen
    clauses, which compiling, verifying and running never change."""

    SOURCE = ("for i := 1 to n - 2 par do\n"
              "    B[i] := A[i - 1] + 3 * A[i] + A[i + 1];\nod;\n")

    def setup_method(self):
        clear_parse_cache()

    def test_probe_only_looks(self, monkeypatch):
        import sys

        def boom(*args):
            raise AssertionError("a probe translated")

        monkeypatch.setattr(sys.modules["repro.frontend.translate"],
                            "translate", boom)
        assert translate_source(self.SOURCE, {"n": 8}, probe=True) is None
        assert parse_cache_info()["hits"] + \
            parse_cache_info()["misses"] == 0
        monkeypatch.undo()
        kept = translate_source(self.SOURCE, {"n": 8})
        got = translate_source(self.SOURCE, {"n": 8}, probe=True)
        assert got.clauses == kept.clauses
        assert got.clauses[0] is kept.clauses[0]
        assert (parse_cache_info()["hits"], parse_cache_info()["misses"]) \
            == (0, 1)

    def test_clear_all_caches_drops_the_translations(self):
        from repro.cacheinfo import clear_all_caches

        first = translate_source(self.SOURCE, {"n": 8}).clauses[0]
        clear_all_caches()
        assert translate_source(self.SOURCE, {"n": 8}, probe=True) is None
        assert translate_source(self.SOURCE, {"n": 8}).clauses[0] \
            is not first

    def test_an_evicted_text_is_translated_again(self, monkeypatch):
        import sys

        from repro.frontend.parser import _parse_cache

        module = sys.modules["repro.frontend.translate"]
        translated = []
        real = module.translate
        monkeypatch.setattr(module, "translate",
                            lambda tree, params: translated.append(tree)
                            or real(tree, params))
        monkeypatch.setattr(_parse_cache, "_maxsize", 1)
        first = translate_source(self.SOURCE, {"n": 8}).clauses[0]
        translate_source(self.SOURCE, {"n": 8})
        assert len(translated) == 1
        translate_source("for i := 0 to 3 par do A[i] := 0; od", {})
        again = translate_source(self.SOURCE, {"n": 8}).clauses[0]
        assert len(translated) == 3 and again is not first

    def test_translations_per_text_are_bounded(self):
        from repro.frontend.parser import _ParseCache

        for n in range(_ParseCache.TRANSLATIONS + 1):
            translate_source(self.SOURCE, {"n": 8 + n})
        assert translate_source(self.SOURCE, {"n": 8}, probe=True) is None
        assert translate_source(self.SOURCE, {"n": 9}, probe=True) \
            is not None

    def test_racing_threads_share_one_translation(self):
        import sys
        import threading

        got, go = [], threading.Barrier(8)

        def worker():
            go.wait(timeout=10)
            for _ in range(20):
                got.append(translate_source(self.SOURCE, {"n": 8})
                           .clauses[0])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 160
        assert all(c is got[-1] for c in got)

    def test_clause_fields_are_frozen(self):
        (clause,) = translate_source(self.SOURCE, {"n": 8})
        for f in dataclasses.fields(clause):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(clause, f.name, getattr(clause, f.name))
        renamed = dataclasses.replace(clause, name="other")
        assert (renamed.name, clause.name) == ("other", "clause1")

    def test_compile_verify_run_leave_a_memoized_clause_unchanged(self):
        from repro.decomp import Block, Scatter
        from repro.pipeline import compile_plan, compile_program, run_program
        from repro.pipeline.cache import _clause_key

        def fingerprint(clause):
            # a replace() copy derives its key afresh from the sub-objects
            return _clause_key(dataclasses.replace(clause)), repr(clause)

        n = 32
        (clause,) = translate_source(self.SOURCE, {"n": n})
        before = fingerprint(clause)
        rng = np.random.default_rng(5)
        env = {"A": rng.random(n), "B": rng.random(n)}
        for decomps in ({"A": Block(n, 4), "B": Block(n, 4)},
                        {"A": Scatter(n, 4), "B": Block(n, 4)}):
            compile_plan(clause, decomps, verify=True)
            check_all_tiers(clause, decomps, env)
            pir = compile_program([clause], decomps, verify=True)
            run_program(pir, copy_env(env), backend="fused")
        (again,) = translate_source(self.SOURCE, {"n": n})
        assert again is clause
        assert fingerprint(clause) == before


class TestParser:
    def test_fig1_shape(self):
        prog = parse("""
            for i := k + 1 to n do
                if A[i] > 0 then
                    A[i] := B[i];
                fi;
            od;
        """)
        (loop,) = prog.body
        assert isinstance(loop, A.For)
        assert loop.var == "i"
        assert loop.order == "seq"  # default
        (iff,) = loop.body
        assert isinstance(iff, A.If)
        (asgn,) = iff.body
        assert isinstance(asgn, A.Assign)
        assert asgn.target.name == "A"

    def test_par_annotation(self):
        prog = parse("for i := 0 to 9 par do A[i] := 0; od")
        assert prog.body[0].order == "par"

    def test_precedence(self):
        prog = parse("for i := 0 to 0 do A[i] := 1 + 2 * 3; od")
        rhs = prog.body[0].body[0].value
        assert isinstance(rhs, A.Bin) and rhs.op == "+"
        assert isinstance(rhs.right, A.Bin) and rhs.right.op == "*"

    def test_parentheses(self):
        prog = parse("for i := 0 to 0 do A[i] := (1 + 2) * 3; od")
        rhs = prog.body[0].body[0].value
        assert rhs.op == "*"

    def test_div_mod_keywords(self):
        prog = parse("for i := 0 to 0 do A[i] := B[i div 2] + C[i mod 3]; od")
        rhs = prog.body[0].body[0].value
        assert rhs.left.indices[0].op == "div"
        assert rhs.right.indices[0].op == "mod"

    def test_multi_dim_subscript(self):
        prog = parse("for i := 0 to 0 do A[i] := M[i, i + 1]; od")
        sub = prog.body[0].body[0].value
        assert len(sub.indices) == 2

    def test_if_else(self):
        prog = parse("""
            for i := 0 to 4 do
                if A[i] > 0 then A[i] := 1; else A[i] := 2; fi;
            od
        """)
        iff = prog.body[0].body[0]
        assert len(iff.body) == 1
        assert len(iff.orelse) == 1

    def test_logical_operators(self):
        prog = parse("""
            for i := 0 to 4 do
                if A[i] > 0 and not (A[i] > 9) then A[i] := 1; fi;
            od
        """)
        cond = prog.body[0].body[0].cond
        assert cond.op == "and"

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("for i := 0 to 4 do A[i] := 1 od")

    def test_unclosed_loop(self):
        with pytest.raises(ParseError):
            parse("for i := 0 to 4 do A[i] := 1;")

    def test_garbage_atom(self):
        with pytest.raises(ParseError):
            parse("for i := 0 to ; do od")


class TestIndexClassification:
    def p(self, text):
        """Parse *text* as the subscript of A[...] and return the AST expr."""
        prog = parse(f"for i := 0 to 0 do X[{text}] := 0; od")
        return prog.body[0].body[0].target.indices[0]

    def test_constant(self):
        var, f = classify_index_expr(self.p("7"), {}, ("i",))
        assert var is None
        assert isinstance(f, ConstantF) and f.c == 7

    def test_param_constant(self):
        var, f = classify_index_expr(self.p("n - 1"), {"n": 10}, ("i",))
        assert isinstance(f, ConstantF) and f.c == 9

    def test_identity(self):
        var, f = classify_index_expr(self.p("i"), {}, ("i",))
        assert var == "i"
        assert isinstance(f, AffineF) and (f.a, f.c) == (1, 0)

    def test_shift(self):
        _, f = classify_index_expr(self.p("i + 3"), {}, ("i",))
        assert (f.a, f.c) == (1, 3)

    def test_general_affine(self):
        _, f = classify_index_expr(self.p("2 * i - 1"), {}, ("i",))
        assert (f.a, f.c) == (2, -1)

    def test_affine_with_params(self):
        _, f = classify_index_expr(self.p("a * i + c"), {"a": 3, "c": 4}, ("i",))
        assert (f.a, f.c) == (3, 4)

    def test_negated(self):
        _, f = classify_index_expr(self.p("n - i"), {"n": 20}, ("i",))
        assert (f.a, f.c) == (-1, 20)

    def test_modular_rotate(self):
        _, f = classify_index_expr(self.p("(i + 6) mod 20"), {}, ("i",))
        assert isinstance(f, ModularF)
        assert (f.g.a, f.g.c, f.z, f.d) == (1, 6, 20, 0)

    def test_modular_with_offset(self):
        _, f = classify_index_expr(self.p("(i mod 10) + 2"), {}, ("i",))
        assert isinstance(f, ModularF)
        assert (f.z, f.d) == (10, 2)

    def test_nonlinear_rejected(self):
        with pytest.raises(TranslateError):
            classify_index_expr(self.p("i * i"), {}, ("i",))

    def test_div_of_loop_var_rejected(self):
        with pytest.raises(TranslateError):
            classify_index_expr(self.p("i div 2"), {}, ("i",))

    def test_unknown_name_rejected(self):
        with pytest.raises(TranslateError):
            classify_index_expr(self.p("zz + 1"), {}, ("i",))


class TestTranslation:
    def test_fig1_translation(self):
        """The paper's Fig. 1 correspondence, end to end."""
        prog = translate_source("""
            for i := k + 1 to n do
                if A[i] > 0 then A[i] := B[2 * i + 1]; fi;
            od;
        """, params={"k": 2, "n": 9})
        (cl,) = prog.clauses
        assert cl.domain.bounds.scalar() == (3, 9)
        assert cl.guard is not None
        assert cl.lhs.name == "A"
        assert cl.lhs.scalar_func()(5) == 5
        (read,) = list(cl.rhs.refs())
        assert read.name == "B"
        assert read.scalar_func()(5) == 11

    def test_default_order_is_seq(self):
        prog = translate_source("for i := 0 to 4 do A[i] := 0; od")
        assert prog.clauses[0].ordering is Ordering.SEQ

    def test_par_order(self):
        prog = translate_source("for i := 0 to 4 par do A[i] := 0; od")
        assert prog.clauses[0].ordering is Ordering.PAR

    def test_two_assignments_two_clauses(self):
        prog = translate_source("""
            for i := 0 to 4 par do
                A[i] := 1;
                B[i] := 2;
            od
        """)
        assert len(prog.clauses) == 2
        assert prog.clauses[0].lhs.name == "A"
        assert prog.clauses[1].lhs.name == "B"

    def test_sequential_loops_become_program(self):
        prog = translate_source("""
            for i := 0 to 4 par do A[i] := 1; od
            for i := 0 to 4 par do B[i] := A[i]; od
        """)
        assert len(prog.clauses) == 2

    def test_nested_loops_flatten_to_2d(self):
        prog = translate_source("""
            for i := 0 to 2 par do
              for j := 0 to 3 par do
                M[i, j] := i + j;
              od
            od
        """)
        (cl,) = prog.clauses
        assert cl.domain.dim == 2
        assert cl.ordering is Ordering.PAR

    def test_mixed_order_nest_is_seq(self):
        prog = translate_source("""
            for i := 0 to 2 par do
              for j := 0 to 3 seq do
                y[i] := y[i] + M[i, j];
              od
            od
        """)
        assert prog.clauses[0].ordering is Ordering.SEQ

    def test_else_rejected(self):
        with pytest.raises(TranslateError):
            translate_source("""
                for i := 0 to 4 do
                    if A[i] > 0 then A[i] := 1; else A[i] := 2; fi;
                od
            """)

    def test_duplicate_loop_var_rejected(self):
        with pytest.raises(TranslateError):
            translate_source("""
                for i := 0 to 2 do
                  for i := 0 to 2 do
                    A[i] := 0;
                  od
                od
            """)

    def test_top_level_assignment_rejected(self):
        with pytest.raises(TranslateError):
            translate(parse("A[0] := 1;"))

    def test_nonconstant_bound_rejected(self):
        with pytest.raises(TranslateError):
            translate_source("for i := 0 to m do A[i] := 0; od")

    def test_empty_body_rejected(self):
        with pytest.raises(TranslateError):
            translate_source("for i := 0 to 4 do od")


class TestTranslatedSemantics:
    """Translated programs evaluate like hand-written Python."""

    def test_fig1_execution(self, rng):
        prog = translate_source("""
            for i := 0 to 19 par do
                if A[i] > 0 then A[i] := B[(i + 6) mod 20]; fi;
            od;
        """)
        a = rng.integers(-5, 5, 20).astype(float)
        b = rng.random(20)
        env = {"A": a.copy(), "B": b.copy()}
        evaluate_program(prog, env)
        want = a.copy()
        for i in range(20):
            if a[i] > 0:
                want[i] = b[(i + 6) % 20]
        assert np.allclose(env["A"], want)

    def test_matvec_execution(self, rng):
        prog = translate_source("""
            for i := 0 to 5 par do
              for j := 0 to 7 seq do
                y[i] := y[i] + M[i, j] * x[j];
              od
            od
        """)
        env = {"y": np.zeros(6), "M": rng.random((6, 8)), "x": rng.random(8)}
        want = env["M"] @ env["x"]
        evaluate_program(prog, env)
        assert np.allclose(env["y"], want)

    def test_loop_index_in_rhs(self):
        prog = translate_source("for i := 0 to 4 par do A[i] := 3 * i; od")
        env = {"A": np.zeros(5)}
        evaluate_program(prog, env)
        assert list(env["A"]) == [0.0, 3.0, 6.0, 9.0, 12.0]

    def test_scalar_param_in_rhs(self):
        prog = translate_source(
            "for i := 0 to 4 par do A[i] := c; od", params={"c": 7}
        )
        env = {"A": np.zeros(5)}
        evaluate_program(prog, env)
        assert list(env["A"]) == [7.0] * 5
