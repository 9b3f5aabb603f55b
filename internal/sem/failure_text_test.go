package sem

import (
	"testing"

	"repro/internal/ast"
)

// TestEvaluatorFailureTexts pins the kind, message, position and
// function of every runtime-error path of the evaluator, and of the
// assertion message, byte for byte: a change of the evaluator's
// representation must not move any of them. want nil rows pin failures
// that are reported lazily, only on execution.
func TestEvaluatorFailureTexts(t *testing.T) {
	type want struct {
		kind FailKind
		msg  string
		line int
		col  int
		fn   string
	}
	cases := []struct {
		name  string
		maxTS int
		src   string
		want  *want
	}{
		{"null deref", 0, `var p;
func main() {
  var x;
  p = null;
  x = *p;
}`, &want{RuntimeFail, "null pointer dereference", 5, 7, "main"}},
		{"null field read", 0, `record R { f; }
func main() {
  var p; var x;
  p = null;
  x = p->f;
}`, &want{RuntimeFail, "null pointer dereference (->f)", 5, 8, "main"}},
		{"null deref in assignment", 0, `func main() {
  var p;
  p = null;
  *p = 1;
}`, &want{RuntimeFail, "null pointer dereference in assignment", 4, 3, "main"}},
		{"null field store", 0, `record R { f; }
func main() {
  var p;
  p = null;
  p->f = 1;
}`, &want{RuntimeFail, "null pointer dereference (->f)", 5, 4, "main"}},
		{"null field address", 0, `record R { f; }
func main() {
  var p; var q;
  p = null;
  q = &p->f;
}`, &want{RuntimeFail, "null pointer dereference (->f)", 5, 7, "main"}},
		{"deref of non-pointer", 0, `func main() {
  var x; var y;
  x = 3;
  y = *x;
}`, &want{RuntimeFail, "dereference of non-pointer value 3", 4, 7, "main"}},
		{"assignment through non-pointer", 0, `func main() {
  var x;
  x = true;
  *x = 1;
}`, &want{RuntimeFail, "assignment through non-pointer value true", 4, 3, "main"}},
		{"field of non-object", 0, `var g;
func main() {
  var p; var y;
  p = &g;
  y = p->f;
}`, &want{RuntimeFail, "->f applied to non-object value &global[0]", 5, 8, "main"}},
		{"field of integer", 0, `func main() {
  var p;
  p = 7;
  p->f = 1;
}`, &want{RuntimeFail, "->f applied to non-object value 7", 4, 4, "main"}},
		{"unknown field", 0, `record R { f; }
func main() {
  var p; var y;
  p = new R;
  y = p->g;
}`, &want{RuntimeFail, `record R has no field "g"`, 5, 8, "main"}},
		{"load of whole object", 0, `record R { f; }
func main() {
  var p; var y;
  p = new R;
  y = *p;
}`, &want{RuntimeFail, "cannot load a whole object; use p->field", 5, 7, "main"}},
		{"store to whole object", 0, `record R { f; }
func main() {
  var p;
  p = new R;
  *p = 1;
}`, &want{RuntimeFail, "cannot store to a whole object; use p->field", 5, 3, "main"}},
		{"new of unknown record", 0, `func main() {
  var p;
  p = new S;
}`, &want{RuntimeFail, `new of unknown record "S"`, 3, 7, "main"}},
		{"non-boolean assert", 0, `func main() {
  var x;
  x = 3;
  assert(x);
}`, &want{RuntimeFail, "condition evaluated to non-boolean 3", 4, 10, "main"}},
		{"non-boolean assume", 0, `func main() {
  var x;
  assume(x);
}`, &want{RuntimeFail, "condition evaluated to non-boolean 0", 3, 10, "main"}},
		{"assertion violated", 0, `var g;
func main() {
  assert(g == 1 || !(g == 0));
}`, &want{AssertFail, "assertion violated: (__t0 || __t2)", 3, 3, "main"}},
		{"error deep in an assume condition", 0, `var g;
func main() {
  assume(g == 1 || !(g + true == 0));
}`, &want{RuntimeFail, `arithmetic "+" on non-integers 0, true`, 3, 24, "main"}},
		{"arithmetic on non-integers", 0, `func main() {
  var x;
  x = true + 1;
}`, &want{RuntimeFail, `arithmetic "+" on non-integers true, 1`, 3, 12, "main"}},
		{"comparison on non-integers", 0, `func main() {
  var b;
  b = null < 1;
}`, &want{RuntimeFail, `comparison "<" on non-integers null, 1`, 3, 12, "main"}},
		{"boolean on non-booleans", 0, `func main() {
  var b;
  b = 1 && true;
}`, &want{RuntimeFail, `boolean "&&" on non-booleans 1, true`, 3, 9, "main"}},
		{"not of non-boolean", 0, `func main() {
  var b;
  b = !3;
}`, &want{RuntimeFail, "'!' applied to non-boolean 3", 3, 7, "main"}},
		{"negation of non-integer", 0, `func main() {
  var b;
  b = true;
  b = -b;
}`, &want{RuntimeFail, "unary '-' applied to non-integer true", 4, 7, "main"}},
		{"call of non-function", 0, `func main() {
  var f;
  f = 3;
  f();
}`, &want{RuntimeFail, "call of non-function value 3", 4, 3, "main"}},
		{"async of non-function", 0, `func main() {
  var f;
  f = null;
  async f();
}`, &want{RuntimeFail, "async call of non-function value null", 4, 3, "main"}},
		{"call of undefined function", 0, `func main() {
  var f;
  f = @h;
  f();
}`, &want{RuntimeFail, `call of undefined function "h"`, 4, 3, "main"}},
		{"async of undefined function", 0, `func main() {
  async @h();
}`, &want{RuntimeFail, `async call of undefined function "h"`, 2, 3, "main"}},
		{"wrong arity", 0, `func f(a) { }
func main() {
  f(1, 2);
}`, &want{RuntimeFail, `call of "f" with 2 arguments, want 1`, 3, 3, "main"}},
		{"ts_put of non-function", 1, `func main() {
  __ts_put(3);
}`, &want{RuntimeFail, "__ts_put of non-function value 3", 2, 3, "main"}},
		{"dispatch of undefined function", 1, `func main() {
  __ts_put(@h);
  __ts_dispatch();
}`, &want{RuntimeFail, `__ts_dispatch of undefined function "h"`, 3, 3, "main"}},
		{"dangling load", 0, `func g() {
  var x;
  return &x;
}
func main() {
  var p; var y;
  p = g();
  y = *p;
}`, &want{RuntimeFail, "dangling pointer to local of a popped frame", 8, 7, "main"}},
		{"dangling store", 0, `func g() {
  var x;
  return &x;
}
func main() {
  var p;
  p = g();
  *p = 1;
}`, &want{RuntimeFail, "dangling pointer to local of a popped frame", 8, 3, "main"}},
		{"undefined variable read", 0, `func main() {
  var x;
  x = y;
}`, &want{RuntimeFail, `undefined variable "y"`, 3, 7, "main"}},
		{"undefined variable store", 0, `func main() {
  y = 1;
}`, &want{RuntimeFail, `undefined variable "y"`, 2, 3, "main"}},
		{"undefined variable address", 0, `func main() {
  var p;
  p = &y;
}`, &want{RuntimeFail, `undefined variable "y"`, 3, 7, "main"}},
		{"undefined variable in a condition", 0, `func main() {
  assume(y == 1);
}`, &want{RuntimeFail, `undefined variable "y"`, 2, 10, "main"}},
		{"undefined variable never executed", 0, `var g;
func main() {
  choice {
    { assume(false); g = y; }
  [] { g = 1; }
  }
}`, nil},
		{"undefined result variable", 0, `func g() {
  return 1;
}
func main() {
  r = g();
}`, &want{RuntimeFail, `undefined variable "r"`, 2, 3, "g"}},
		{"undefined result of implicit return", 0, `func g() { }
func main() {
  r = g();
}`, &want{RuntimeFail, `undefined variable "r"`, 0, 0, "g"}},
		{"error in a return value", 0, `func g() {
  return true + 1;
}
func main() {
  var r;
  r = g();
}`, &want{RuntimeFail, `arithmetic "+" on non-integers true, 1`, 2, 15, "g"}},
		{"error inside atomic", 0, `var p;
func main() {
  var x;
  p = null;
  atomic { x = 1; x = *p; }
}`, &want{RuntimeFail, "null pointer dereference", 5, 23, "main"}},
		{"assertion inside atomic", 0, `var g;
func main() {
  atomic { g = 2; assert(g == 1); }
}`, &want{AssertFail, "assertion violated: (g == 1)", 3, 19, "main"}},
		{"non-boolean condition inside atomic", 0, `var g;
func main() {
  atomic { assume(g); }
}`, &want{RuntimeFail, "condition evaluated to non-boolean 0", 3, 19, "main"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fail, _ := run(t, compileTS(t, tc.src, tc.maxTS))
			if tc.want == nil {
				if fail != nil {
					t.Fatalf("unexpected failure %v", fail)
				}
				return
			}
			if fail == nil {
				t.Fatalf("no failure, want %q", tc.want.msg)
			}
			w := tc.want
			got := want{fail.Kind, fail.Msg, fail.Pos.Line, fail.Pos.Col, fail.Fn}
			if got != *w {
				t.Errorf("failure %+v, want %+v", got, *w)
			}
			if fail.Pos != (ast.Pos{Line: w.line, Col: w.col}) {
				t.Errorf("position %v, want %d:%d", fail.Pos, w.line, w.col)
			}
		})
	}
}
