"""Expression syntax (Fig. 6): values, traversal, substitution."""

import pytest

from repro.core import ast
from repro.core.effects import PURE, STATE
from repro.core.errors import ReproError
from repro.core.types import NUMBER, STRING, UNIT


def lam(param, body, param_type=NUMBER, effect=PURE):
    return ast.Lam(param, param_type, body, effect)


class TestValues:
    def test_literals_are_values(self):
        assert ast.Num(3).is_value()
        assert ast.Str("x").is_value()
        assert ast.Var("x").is_value()
        assert ast.UNIT_VALUE.is_value()

    def test_num_normalizes_to_float(self):
        assert ast.Num(3).value == 3.0
        assert isinstance(ast.Num(3).value, float)

    def test_num_rejects_bool_and_str(self):
        with pytest.raises(ReproError):
            ast.Num(True)
        with pytest.raises(ReproError):
            ast.Num("3")

    def test_float_num_is_the_validated_num(self):
        built = ast.float_num(2.5)
        assert type(built) is ast.Num
        assert built == ast.Num(2.5) and hash(built) == hash(ast.Num(2.5))
        assert repr(built) == repr(ast.Num(2.5))
        # The validating constructor is untouched.
        with pytest.raises(ReproError):
            ast.Num(True)
        with pytest.raises(ReproError):
            ast.Num("1")

    def test_tuple_value_iff_components_values(self):
        assert ast.Tuple((ast.Num(1), ast.Str("a"))).is_value()
        assert not ast.Tuple((ast.GlobalRead("g"),)).is_value()

    def test_list_value_iff_items_values(self):
        assert ast.ListLit((ast.Num(1),), NUMBER).is_value()
        assert not ast.ListLit((ast.GlobalRead("g"),), NUMBER).is_value()

    def test_lambda_is_value_with_redex_body(self):
        body = ast.App(lam("x", ast.Var("x")), ast.Num(1))
        assert lam("y", body).is_value()

    def test_non_values(self):
        for expr in (
            ast.App(lam("x", ast.Var("x")), ast.Num(1)),
            ast.FunRef("f"),
            ast.GlobalRead("g"),
            ast.GlobalWrite("g", ast.Num(1)),
            ast.Pop(),
            ast.Boxed(ast.UNIT_VALUE),
            ast.Post(ast.Num(1)),
            ast.SetAttr("margin", ast.Num(1)),
            ast.Push("p", ast.UNIT_VALUE),
            ast.Proj(ast.Tuple((ast.Num(1),)), 1),
            ast.If(ast.Num(1), ast.Num(2), ast.Num(3)),
            ast.Prim("add", (ast.Num(1), ast.Num(2))),
        ):
            assert not expr.is_value(), expr


class TestStructuralEquality:
    def test_equal_structures(self):
        a = ast.Prim("add", (ast.Num(1), ast.Num(2)))
        b = ast.Prim("add", (ast.Num(1), ast.Num(2)))
        assert a == b

    def test_box_id_excluded_from_equality(self):
        """box_id is IDE metadata, erased as far as the calculus goes."""
        assert ast.Boxed(ast.Num(1), box_id=1) == ast.Boxed(
            ast.Num(1), box_id=2
        )

    def test_projection_index_validated(self):
        with pytest.raises(ReproError):
            ast.Proj(ast.Tuple(()), 0)


class TestTraversal:
    def test_children_cover_all_nodes(self):
        expr = ast.If(
            ast.Prim("lt", (ast.Num(1), ast.GlobalRead("g"))),
            ast.Post(ast.Str("yes")),
            ast.UNIT_VALUE,
        )
        names = [type(node).__name__ for node in ast.walk(expr)]
        assert names == ["If", "Prim", "Num", "GlobalRead", "Post", "Str",
                         "Tuple"]

    def test_rebuild_identity(self):
        expr = ast.App(lam("x", ast.Var("x")), ast.Num(1))
        rebuilt = ast.rebuild(expr, ast.children(expr))
        assert rebuilt == expr

    def test_rebuild_preserves_box_id(self):
        boxed = ast.Boxed(ast.Num(1), box_id=42)
        rebuilt = ast.rebuild(boxed, [ast.Num(2)])
        assert rebuilt.box_id == 42

    def test_size_counts_nodes(self):
        assert ast.size(ast.Num(1)) == 1
        assert ast.size(ast.Prim("add", (ast.Num(1), ast.Num(2)))) == 3

    def test_contains_lambda(self):
        assert ast.contains_lambda(lam("x", ast.Var("x")))
        assert ast.contains_lambda(
            ast.Tuple((ast.Num(1), lam("x", ast.Var("x"))))
        )
        assert not ast.contains_lambda(ast.Tuple((ast.Num(1),)))


class TestFreeVars:
    def test_var_is_free(self):
        assert ast.free_vars(ast.Var("x")) == {"x"}

    def test_lambda_binds(self):
        assert ast.free_vars(lam("x", ast.Var("x"))) == set()

    def test_shadowing(self):
        inner = lam("x", ast.Var("x"))
        outer = lam("y", ast.App(inner, ast.Var("x")))
        assert ast.free_vars(outer) == {"x"}

    def test_is_closed(self):
        assert ast.is_closed(lam("x", ast.Var("x")))
        assert not ast.is_closed(ast.Var("x"))


class TestSubstitution:
    def test_basic(self):
        assert ast.subst(ast.Var("x"), "x", ast.Num(5)) == ast.Num(5)

    def test_other_vars_untouched(self):
        assert ast.subst(ast.Var("y"), "x", ast.Num(5)) == ast.Var("y")

    def test_stops_at_shadowing_binder(self):
        expr = lam("x", ast.Var("x"))
        assert ast.subst(expr, "x", ast.Num(5)) == expr

    def test_descends_into_non_shadowing_binder(self):
        expr = lam("y", ast.Var("x"))
        result = ast.subst(expr, "x", ast.Num(5))
        assert result.body == ast.Num(5)

    def test_capture_avoidance(self):
        # (λy. x)[ (λz. y) / x ] must not capture the free y.
        victim = lam("z", ast.Var("y"), param_type=UNIT)
        expr = lam("y", ast.Var("x"))
        result = ast.subst(expr, "x", victim)
        assert result.param != "y"
        assert ast.free_vars(result) == {"y"}

    def test_rejects_non_value(self):
        with pytest.raises(ReproError):
            ast.subst(ast.Var("x"), "x", ast.GlobalRead("g"))

    def test_substitution_shares_unchanged_subtrees(self):
        subtree = ast.Prim("add", (ast.Num(1), ast.Num(2)))
        expr = ast.Tuple((subtree, ast.Var("x")))
        result = ast.subst(expr, "x", ast.Num(0))
        assert result.items[0] is subtree  # no gratuitous copying

    def test_fresh_names_never_collide_with_source(self):
        assert "%" in ast.fresh_name("x")
        assert ast.fresh_name("x") != ast.fresh_name("x")
