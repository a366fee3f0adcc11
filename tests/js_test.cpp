#include <gtest/gtest.h>

#include "js/interpreter.hpp"
#include "js/lexer.hpp"
#include "js/parser.hpp"
#include "js/stdlib.hpp"

namespace nakika::js {
namespace {

// Evaluates a script under BOTH engines — the tree-walker as the reference
// oracle and the bytecode VM as the production path — asserts they agree, and
// returns the VM's global `result`. Every test in this file is therefore also
// a differential test. If either engine throws, both must throw the same
// script_error kind (rethrown so EXPECT_THROW-style tests keep working).
value eval_result(const std::string& source, context_limits limits = {}) {
  bool tree_threw = false;
  script_error tree_err(script_error_kind::runtime, "");
  value tree_val;
  {
    context ctx(limits);
    try {
      eval_script(ctx, source, "<script>", engine_kind::tree_walker);
      tree_val = ctx.global()->get("result");
    } catch (const script_error& e) {
      tree_threw = true;
      tree_err = e;
    }
  }

  context ctx(limits);
  try {
    eval_script(ctx, source, "<script>", engine_kind::bytecode);
  } catch (const script_error& e) {
    if (!tree_threw) {
      ADD_FAILURE() << "VM threw but tree-walker did not: " << e.what();
    } else {
      EXPECT_EQ(to_string(tree_err.kind()), to_string(e.kind()))
          << "engines disagree on error kind for: " << source;
    }
    throw;
  }
  if (tree_threw) {
    ADD_FAILURE() << "tree-walker threw but VM did not: " << tree_err.what();
    throw tree_err;
  }
  const value vm_val = ctx.global()->get("result");
  EXPECT_EQ(tree_val.to_string(), vm_val.to_string()) << "engines disagree for: " << source;
  return vm_val;
}

std::string eval_str(const std::string& source) { return eval_result(source).to_string(); }
double eval_num(const std::string& source) { return eval_result(source).to_number(); }

// ----- lexer -------------------------------------------------------------------

TEST(Lexer, TokenKinds) {
  const auto tokens = tokenize("var x = 42.5; // comment\n\"str\" === x");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].kind, token_kind::keyword);
  EXPECT_EQ(tokens[1].kind, token_kind::identifier);
  EXPECT_EQ(tokens[2].text, "=");
  EXPECT_DOUBLE_EQ(tokens[3].number, 42.5);
  EXPECT_EQ(tokens[5].kind, token_kind::string);
  EXPECT_EQ(tokens[6].text, "===");
}

TEST(Lexer, NumbersAndEscapes) {
  EXPECT_DOUBLE_EQ(tokenize("0x1F")[0].number, 31.0);
  EXPECT_DOUBLE_EQ(tokenize("1e3")[0].number, 1000.0);
  EXPECT_DOUBLE_EQ(tokenize(".5")[0].number, 0.5);
  EXPECT_EQ(tokenize("'a\\n\\t\\x41'")[0].text, "a\n\tA");
}

TEST(Lexer, TracksLines) {
  const auto tokens = tokenize("a\nb\n\nc");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 4);
}

TEST(Lexer, RejectsMalformed) {
  EXPECT_THROW(tokenize("\"unterminated"), script_error);
  EXPECT_THROW(tokenize("/* open"), script_error);
  EXPECT_THROW(tokenize("@"), script_error);
  EXPECT_THROW(tokenize("0x"), script_error);
  EXPECT_THROW(tokenize("1e"), script_error);
}

// ----- parser ------------------------------------------------------------------

TEST(Parser, RejectsSyntaxErrors) {
  EXPECT_THROW(parse_program("var = 3;"), script_error);
  EXPECT_THROW(parse_program("if (x {"), script_error);
  EXPECT_THROW(parse_program("function () {}"), script_error);  // decl needs name
  EXPECT_THROW(parse_program("a + ;"), script_error);
  EXPECT_THROW(parse_program("3 = x;"), script_error);          // bad assign target
  EXPECT_THROW(parse_program("try {}"), script_error);          // needs catch/finally
  EXPECT_THROW(parse_program("do { } ;"), script_error);
}

TEST(Parser, ReportsLineNumbers) {
  try {
    (void)parse_program("var a = 1;\nvar b = ;\n");
    FAIL() << "expected syntax error";
  } catch (const script_error& e) {
    EXPECT_EQ(e.kind(), script_error_kind::syntax);
    EXPECT_EQ(e.line(), 2);
  }
}

// ----- interpreter: expressions ---------------------------------------------------

TEST(Interp, Arithmetic) {
  EXPECT_DOUBLE_EQ(eval_num("result = 2 + 3 * 4;"), 14);
  EXPECT_DOUBLE_EQ(eval_num("result = (2 + 3) * 4;"), 20);
  EXPECT_DOUBLE_EQ(eval_num("result = 7 % 3;"), 1);
  EXPECT_DOUBLE_EQ(eval_num("result = -2 * -3;"), 6);
  EXPECT_DOUBLE_EQ(eval_num("result = 10 / 4;"), 2.5);
}

TEST(Interp, StringConcatCoercion) {
  EXPECT_EQ(eval_str("result = 'a' + 1 + 2;"), "a12");
  EXPECT_EQ(eval_str("result = 1 + 2 + 'a';"), "3a");
  EXPECT_EQ(eval_str("result = 'n=' + null + ' u=' + undefined;"), "n=null u=undefined");
}

TEST(Interp, Comparisons) {
  EXPECT_EQ(eval_str("result = (1 < 2) + ',' + ('b' > 'a') + ',' + (2 >= 2);"),
            "true,true,true");
  EXPECT_EQ(eval_str("result = (1 == '1') + ',' + (1 === '1');"), "true,false");
  EXPECT_EQ(eval_str("result = (null == undefined) + ',' + (null === undefined);"),
            "true,false");
  EXPECT_EQ(eval_str("result = (0 == false) + ',' + ('' == false);"), "true,true");
}

TEST(Interp, LogicalOperatorsReturnOperands) {
  EXPECT_EQ(eval_str("result = 'x' || 'y';"), "x");
  EXPECT_EQ(eval_str("result = '' || 'y';"), "y");
  EXPECT_EQ(eval_str("result = 'x' && 'y';"), "y");
  EXPECT_EQ(eval_str("result = 0 && 'y';"), "0");
}

TEST(Interp, ShortCircuitSkipsEvaluation) {
  EXPECT_EQ(eval_str("var n = 0; function f() { n++; return true; }\n"
                     "false && f(); true || f(); result = '' + n;"),
            "0");
}

TEST(Interp, BitwiseOps) {
  EXPECT_DOUBLE_EQ(eval_num("result = 12 & 10;"), 8);
  EXPECT_DOUBLE_EQ(eval_num("result = 12 | 10;"), 14);
  EXPECT_DOUBLE_EQ(eval_num("result = 12 ^ 10;"), 6);
  EXPECT_DOUBLE_EQ(eval_num("result = 1 << 4;"), 16);
  EXPECT_DOUBLE_EQ(eval_num("result = 256 >> 4;"), 16);
  EXPECT_DOUBLE_EQ(eval_num("result = ~0;"), -1);
}

TEST(Interp, TernaryAndUpdate) {
  EXPECT_EQ(eval_str("result = 5 > 3 ? 'yes' : 'no';"), "yes");
  EXPECT_DOUBLE_EQ(eval_num("var i = 5; var a = i++; result = a * 10 + i;"), 56);
  EXPECT_DOUBLE_EQ(eval_num("var i = 5; var a = ++i; result = a * 10 + i;"), 66);
  EXPECT_DOUBLE_EQ(eval_num("var i = 5; i--; --i; result = i;"), 3);
}

TEST(Interp, CompoundAssignment) {
  EXPECT_DOUBLE_EQ(eval_num("var x = 10; x += 5; x -= 3; x *= 2; x /= 4; result = x;"), 6);
  EXPECT_EQ(eval_str("var s = 'a'; s += 'b'; result = s;"), "ab");
  EXPECT_DOUBLE_EQ(eval_num("var x = 12; x &= 10; x |= 1; result = x;"), 9);
}

TEST(Interp, TypeofAndDelete) {
  EXPECT_EQ(eval_str("result = typeof 3;"), "number");
  EXPECT_EQ(eval_str("result = typeof 'x';"), "string");
  EXPECT_EQ(eval_str("result = typeof undefinedVariable;"), "undefined");
  EXPECT_EQ(eval_str("result = typeof {};"), "object");
  EXPECT_EQ(eval_str("result = typeof function() {};"), "function");
  EXPECT_EQ(eval_str("var o = {a: 1}; delete o.a; result = typeof o.a;"), "undefined");
}

// ----- interpreter: statements -----------------------------------------------------

TEST(Interp, WhileAndFor) {
  EXPECT_DOUBLE_EQ(eval_num("var s = 0; for (var i = 1; i <= 10; i++) s += i; result = s;"),
                   55);
  EXPECT_DOUBLE_EQ(eval_num("var s = 0; var i = 0; while (i < 5) { s += i; i++; } result = s;"),
                   10);
  EXPECT_DOUBLE_EQ(eval_num("var s = 0; var i = 0; do { s++; i++; } while (i < 3); result = s;"),
                   3);
}

TEST(Interp, BreakContinue) {
  EXPECT_DOUBLE_EQ(
      eval_num("var s = 0; for (var i = 0; i < 10; i++) { if (i == 5) break; s += i; } "
               "result = s;"),
      10);
  EXPECT_DOUBLE_EQ(
      eval_num("var s = 0; for (var i = 0; i < 5; i++) { if (i % 2 == 0) continue; s += i; } "
               "result = s;"),
      4);
}

TEST(Interp, ForInIteratesKeys) {
  EXPECT_EQ(eval_str("var o = {a: 1, b: 2}; var keys = ''; for (var k in o) keys += k; "
                     "result = keys;"),
            "ab");
  EXPECT_EQ(eval_str("var a = [9, 8]; var s = ''; for (var i in a) s += i; result = s;"),
            "01");
}

TEST(Interp, SwitchWithFallthrough) {
  const char* script = R"JS(
    function classify(n) {
      var out = '';
      switch (n) {
        case 1:
        case 2: out = 'small'; break;
        case 3: out = 'three';  // falls through
        case 4: out += '+four'; break;
        default: out = 'big';
      }
      return out;
    }
    result = classify(1) + ',' + classify(3) + ',' + classify(9);
  )JS";
  EXPECT_EQ(eval_str(script), "small,three+four,big");
}

TEST(Interp, TryCatchFinally) {
  EXPECT_EQ(eval_str("var r = ''; try { throw 'oops'; } catch (e) { r = e; } "
                     "finally { r += '!'; } result = r;"),
            "oops!");
  EXPECT_EQ(eval_str("var r = 'none'; try { r = 'ok'; } finally { r += '+fin'; } result = r;"),
            "ok+fin");
  // Nested rethrow.
  EXPECT_EQ(eval_str("var r = ''; try { try { throw 'inner'; } finally { r += 'f'; } } "
                     "catch (e) { r += e; } result = r;"),
            "finner");
}

TEST(Interp, UncaughtThrowSurfacesAsScriptError) {
  try {
    eval_result("throw 'kaboom';");
    FAIL() << "expected script_error";
  } catch (const script_error& e) {
    EXPECT_EQ(e.kind(), script_error_kind::thrown);
    EXPECT_NE(std::string(e.what()).find("kaboom"), std::string::npos);
  }
}

// ----- functions and closures -------------------------------------------------------

TEST(Interp, FunctionsAndRecursion) {
  EXPECT_DOUBLE_EQ(eval_num("function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); } "
                            "result = fib(15);"),
                   610);
}

TEST(Interp, ClosuresCaptureEnvironment) {
  const char* script = R"JS(
    function counter() {
      var n = 0;
      return function() { n++; return n; };
    }
    var c1 = counter();
    var c2 = counter();
    c1(); c1(); c2();
    result = '' + c1() + c2();
  )JS";
  EXPECT_EQ(eval_str(script), "32");
}

TEST(Interp, ArgumentsObjectAndMissingParams) {
  EXPECT_EQ(eval_str("function f(a, b) { return '' + a + ',' + b + ',' + arguments.length; } "
                     "result = f(1);"),
            "1,undefined,0");
  EXPECT_EQ(eval_str("function f(a) { return arguments.length; } result = '' + f(1, 2, 3);"),
            "2");
}

TEST(Interp, PrototypesAndNew) {
  const char* script = R"JS(
    function Point(x, y) { this.x = x; this.y = y; }
    Point.prototype.norm2 = function() { return this.x * this.x + this.y * this.y; };
    var p = new Point(3, 4);
    result = p.norm2();
  )JS";
  EXPECT_DOUBLE_EQ(eval_num(script), 25);
}

TEST(Interp, InstanceofAndIn) {
  const char* script = R"JS(
    function A() {}
    var a = new A();
    result = (a instanceof A) + ',' + ('x' in {x: 1}) + ',' + ('y' in {x: 1});
  )JS";
  EXPECT_EQ(eval_str(script), "true,true,false");
}

TEST(Interp, MethodThisBinding) {
  EXPECT_DOUBLE_EQ(eval_num("var o = {v: 7, get: function() { return this.v; }}; "
                            "result = o.get();"),
                   7);
}

TEST(Interp, CallDepthLimited) {
  context_limits limits;
  limits.call_depth = 50;
  EXPECT_THROW(eval_result("function f() { return f(); } f();", limits), script_error);
}

// ----- objects and arrays -------------------------------------------------------------

TEST(Interp, ArrayBasics) {
  EXPECT_DOUBLE_EQ(eval_num("var a = [1, 2, 3]; a.push(4); result = a.length + a[3];"), 8);
  EXPECT_EQ(eval_str("var a = [3, 1, 2]; a.sort(); result = a.join('-');"), "1-2-3");
  EXPECT_EQ(eval_str("var a = [1,2,3,4]; result = a.slice(1, 3).join(',');"), "2,3");
  EXPECT_EQ(eval_str("var a = [1,2]; result = a.concat([3], 4).join('');"), "1234");
  EXPECT_DOUBLE_EQ(eval_num("result = [5, 6, 7].indexOf(6);"), 1);
  EXPECT_DOUBLE_EQ(eval_num("result = [5, 6, 7].indexOf(9);"), -1);
  EXPECT_EQ(eval_str("var a = [1, 2]; a.reverse(); result = a.join('');"), "21");
  EXPECT_EQ(eval_str("var a = [1, 2, 3]; result = '' + a.pop() + a.shift() + a.length;"),
            "311");
}

TEST(Interp, ArrayGrowthAndLength) {
  EXPECT_EQ(eval_str("var a = []; a[3] = 'x'; result = '' + a.length + typeof a[0];"),
            "4undefined");
  EXPECT_DOUBLE_EQ(eval_num("var a = [1,2,3]; a.length = 1; result = a.length;"), 1);
}

TEST(Interp, SortWithComparator) {
  EXPECT_EQ(eval_str("var a = [3, 10, 2]; a.sort(function(x, y) { return x - y; }); "
                     "result = a.join(',');"),
            "2,3,10");
}

TEST(Interp, ObjectLiteralsAndIndexing) {
  EXPECT_EQ(eval_str("var o = {'a b': 1, c: {d: 'deep'}}; result = o['a b'] + o.c.d;"),
            "1deep");
  EXPECT_EQ(eval_str("var o = {}; o['k' + 1] = 'v'; result = o.k1;"), "v");
}

// ----- stdlib -------------------------------------------------------------------------

TEST(Stdlib, StringMethods) {
  EXPECT_EQ(eval_str("result = 'Hello World'.toLowerCase();"), "hello world");
  EXPECT_EQ(eval_str("result = 'hi'.toUpperCase();"), "HI");
  EXPECT_DOUBLE_EQ(eval_num("result = 'abcabc'.indexOf('c');"), 2);
  EXPECT_DOUBLE_EQ(eval_num("result = 'abcabc'.indexOf('c', 3);"), 5);
  EXPECT_DOUBLE_EQ(eval_num("result = 'abcabc'.lastIndexOf('b');"), 4);
  EXPECT_EQ(eval_str("result = 'abcdef'.substring(1, 3);"), "bc");
  EXPECT_EQ(eval_str("result = 'abcdef'.substring(3, 1);"), "bc");  // swapped
  EXPECT_EQ(eval_str("result = 'abcdef'.slice(-2);"), "ef");
  EXPECT_EQ(eval_str("result = 'a,b,,c'.split(',').join('|');"), "a|b||c");
  EXPECT_EQ(eval_str("result = 'aaa'.replace('a', 'b');"), "baa");
  EXPECT_EQ(eval_str("result = 'aaa'.replaceAll('a', 'b');"), "bbb");
  EXPECT_EQ(eval_str("result = '  x '.trim();"), "x");
  EXPECT_EQ(eval_str("result = '' + 'abc'.startsWith('ab') + 'abc'.endsWith('bc');"),
            "truetrue");
  EXPECT_EQ(eval_str("result = 'abc'.charAt(1);"), "b");
  EXPECT_DOUBLE_EQ(eval_num("result = 'A'.charCodeAt(0);"), 65);
  EXPECT_EQ(eval_str("result = 'abc'[1];"), "b");
  EXPECT_DOUBLE_EQ(eval_num("result = 'hello'.length;"), 5);
}

TEST(Stdlib, MathFunctions) {
  EXPECT_DOUBLE_EQ(eval_num("result = Math.floor(2.7) + Math.ceil(2.2) + Math.round(2.5);"),
                   8);
  EXPECT_DOUBLE_EQ(eval_num("result = Math.min(3, 1, 2) + Math.max(3, 1, 2);"), 4);
  EXPECT_DOUBLE_EQ(eval_num("result = Math.abs(-5) + Math.sqrt(16) + Math.pow(2, 3);"), 17);
  EXPECT_EQ(eval_str("var r = Math.random(); result = '' + (r >= 0 && r < 1);"), "true");
}

TEST(Stdlib, GlobalConversions) {
  EXPECT_DOUBLE_EQ(eval_num("result = parseInt('42px');"), 42);
  EXPECT_DOUBLE_EQ(eval_num("result = parseInt('ff', 16);"), 255);
  EXPECT_DOUBLE_EQ(eval_num("result = parseFloat('2.5x');"), 2.5);
  EXPECT_EQ(eval_str("result = '' + isNaN('abc') + isNaN('12');"), "truefalse");
  EXPECT_EQ(eval_str("result = String(42) + typeof Number('3');"), "42number");
}

TEST(Stdlib, JsonRoundTrip) {
  const char* script = R"JS(
    var o = {name: "nakika", n: 3, list: [1, "two", null, true], nested: {x: 1}};
    var s = JSON.stringify(o);
    var back = JSON.parse(s);
    result = back.name + back.n + back.list[1] + back.nested.x;
  )JS";
  EXPECT_EQ(eval_str(script), "nakika3two1");
}

TEST(Stdlib, JsonEscapes) {
  EXPECT_EQ(eval_str(R"JS(result = JSON.stringify({s: "a\"b\n"});)JS"),
            R"({"s":"a\"b\n"})");
  EXPECT_EQ(eval_str(R"JS(result = JSON.parse('"\\u0041\\t"');)JS"), "A\t");
}

TEST(Stdlib, JsonParseErrorsAreCatchable) {
  EXPECT_EQ(eval_str("var r = 'no'; try { JSON.parse('{bad'); } catch (e) { r = 'caught'; } "
                     "result = r;"),
            "caught");
}

TEST(Stdlib, ObjectKeys) {
  EXPECT_EQ(eval_str("result = Object.keys({a: 1, b: 2}).join(',');"), "a,b");
}

TEST(Stdlib, ByteArray) {
  const char* script = R"JS(
    var b = new ByteArray("abc");
    b.append("def");
    b.append(33);
    var s = b.slice(2, 5);
    result = b.toString() + '|' + s.toString() + '|' + b.length + '|' + b[0];
  )JS";
  EXPECT_EQ(eval_str(script), "abcdef!|cde|7|97");
}

TEST(Stdlib, RegExpVocabulary) {
  EXPECT_EQ(eval_str("var re = new RegExp('^a+b'); result = '' + re.test('aab') + "
                     "re.test('cab') + re.search('xxaab');"),
            "truefalse-1");
  EXPECT_EQ(eval_str("var r = 'no'; try { new RegExp('('); } catch (e) { r = 'caught'; } "
                     "result = r;"),
            "caught");
}

// ----- sandboxing / resource limits ------------------------------------------------------

TEST(Sandbox, OpsBudgetStopsInfiniteLoop) {
  context_limits limits;
  limits.ops = 100000;
  try {
    eval_result("while (true) {}", limits);
    FAIL() << "expected ops budget error";
  } catch (const script_error& e) {
    EXPECT_EQ(e.kind(), script_error_kind::ops_budget);
  }
}

TEST(Sandbox, HeapLimitStopsMemoryHog) {
  context_limits limits;
  limits.heap_bytes = 1 * 1024 * 1024;
  // The paper's misbehaving script: "consumes all available memory by
  // repeatedly doubling a string".
  try {
    eval_result("var s = 'x'; while (true) { s = s + s; }", limits);
    FAIL() << "expected out-of-memory error";
  } catch (const script_error& e) {
    EXPECT_EQ(e.kind(), script_error_kind::out_of_memory);
  }
}

TEST(Sandbox, HeapLimitAppliesToByteArrays) {
  context_limits limits;
  limits.heap_bytes = 64 * 1024;
  try {
    eval_result("var b = new ByteArray('xxxxxxxx'); while (true) { b.append(b); }", limits);
    FAIL() << "expected out-of-memory error";
  } catch (const script_error& e) {
    EXPECT_EQ(e.kind(), script_error_kind::out_of_memory);
  }
}

TEST(Sandbox, KillFlagTerminatesPromptly) {
  for (const engine_kind engine : {engine_kind::tree_walker, engine_kind::bytecode}) {
    context ctx;
    ctx.kill_flag()->store(true);
    try {
      eval_script(ctx, "var i = 0; while (true) { i++; }", "<script>", engine);
      FAIL() << "expected termination under " << to_string(engine);
    } catch (const script_error& e) {
      EXPECT_EQ(e.kind(), script_error_kind::terminated) << to_string(engine);
    }
  }
}

TEST(Sandbox, EngineErrorsNotCatchableByScript) {
  context_limits limits;
  limits.ops = 50000;
  // try/catch must NOT swallow the sandbox's termination errors.
  EXPECT_THROW(
      eval_result("try { while (true) {} } catch (e) { result = 'swallowed'; }", limits),
      script_error);
}

TEST(Sandbox, ContextReuseResetsCounters) {
  for (const engine_kind engine : {engine_kind::tree_walker, engine_kind::bytecode}) {
    context ctx;
    eval_script(ctx, "var x = 0; for (var i = 0; i < 1000; i++) x++;", "<script>", engine);
    const auto ops_first = ctx.ops_used();
    EXPECT_GT(ops_first, 1000u) << to_string(engine);
    ctx.reset_for_reuse();
    EXPECT_EQ(ctx.ops_used(), 0u) << to_string(engine);
    // Globals survive reuse (that is the point of reuse).
    eval_script(ctx, "result = x;", "<script>", engine);
    EXPECT_DOUBLE_EQ(ctx.global()->get("result").to_number(), 1000) << to_string(engine);
  }
}

TEST(Sandbox, RuntimeErrorsCarryKind) {
  try {
    eval_result("nonexistentFunction();");
    FAIL() << "expected runtime error";
  } catch (const script_error& e) {
    EXPECT_EQ(e.kind(), script_error_kind::runtime);
  }
  EXPECT_THROW(eval_result("null.x;"), script_error);
  EXPECT_THROW(eval_result("var x = 3; x.y = 1;"), script_error);
  EXPECT_THROW(eval_result("(3)();"), script_error);
}

// ----- property sweep: numeric edge cases -------------------------------------------------

struct num_case {
  const char* expr;
  double expected;
};
// Print the expression, not the raw bytes: the default printer dumps the
// `expr` pointer, which ASLR moves on every run, so ctest's discovered test
// names (built from GetParam()) would change from build to build.
void PrintTo(const num_case& c, std::ostream* os) { *os << c.expr; }
class NumericEdge : public ::testing::TestWithParam<num_case> {};
TEST_P(NumericEdge, Evaluates) {
  EXPECT_DOUBLE_EQ(eval_num(std::string("result = ") + GetParam().expr + ";"),
                   GetParam().expected);
}
INSTANTIATE_TEST_SUITE_P(
    Cases, NumericEdge,
    ::testing::Values(num_case{"0.1 + 0.2 > 0.3 - 1e-9", 1},  // truthy -> 1 via to_number
                      num_case{"5 % 0 == 5 % 0 ? 0 : 1", 1},  // NaN != NaN
                      num_case{"parseInt('  12  ')", 12},
                      num_case{"1e2 + 1", 101},
                      num_case{"0x10 + 1", 17}));

// ----- closure lifetime (tree-walker env<->closure cycle fix) -------------------
// A function declared in a local scope holds its environment via `closure`
// while the environment's slot holds the function — a shared_ptr cycle the
// tree-walker used to strand on every scope exit. The context heap counter is
// charged per live object, so a leak shows up as heap_used never returning to
// baseline. Run these under ASan/LSan (CI sanitize-engines job) to catch the
// raw memory too.

TEST(TreeWalkerClosures, LocalScopeClosuresDoNotLeak) {
  context ctx;
  eval_script(ctx, "var warm = 0;", "<warm>", engine_kind::tree_walker);
  const std::size_t baseline = ctx.heap_used();
  eval_script(ctx, R"JS(
    for (var i = 0; i < 200; i++) {
      (function () {
        function helper(n) { return n <= 1 ? 1 : n * helper(n - 1); }
        helper(6);
      })();
    }
  )JS",
              "<leak>", engine_kind::tree_walker);
  // 200 stranded closures would hold 200 * object_overhead of charged heap.
  EXPECT_LE(ctx.heap_used(), baseline + 512);
}

TEST(TreeWalkerClosures, MutuallyRecursiveLocalClosuresDoNotLeak) {
  context ctx;
  eval_script(ctx, "var warm = 0;", "<warm>", engine_kind::tree_walker);
  const std::size_t baseline = ctx.heap_used();
  eval_script(ctx, R"JS(
    for (var i = 0; i < 100; i++) {
      (function () {
        function even(n) { return n == 0 ? true : odd(n - 1); }
        function odd(n) { return n == 0 ? false : even(n - 1); }
        if (!even(8)) { throw "wrong answer"; }
      })();
    }
  )JS",
              "<leak>", engine_kind::tree_walker);
  EXPECT_LE(ctx.heap_used(), baseline + 512);
}

TEST(TreeWalkerClosures, BlockScopedClosuresDoNotLeak) {
  context ctx;
  eval_script(ctx, "var warm = 0;", "<warm>", engine_kind::tree_walker);
  const std::size_t baseline = ctx.heap_used();
  eval_script(ctx, R"JS(
    for (var i = 0; i < 100; i++) {
      {
        function shadowed(x) { return x + 1; }
        shadowed(i);
      }
    }
  )JS",
              "<leak>", engine_kind::tree_walker);
  EXPECT_LE(ctx.heap_used(), baseline + 512);
}

// The cycle breaker must never fire for closures that escape their scope:
// escaped functions keep their environment (and stay callable), verified
// through both engines by the differential harness.

TEST(TreeWalkerClosures, EscapingClosureKeepsCaptures) {
  EXPECT_DOUBLE_EQ(eval_num(R"JS(
    function make(n) {
      var extra = 10;
      return function (m) { return n + extra + m; };
    }
    var f = make(5);
    result = f(1) + f(2);
  )JS"),
                   33.0);
}

TEST(TreeWalkerClosures, EscapedNamedHelperStaysRecursive) {
  EXPECT_DOUBLE_EQ(eval_num(R"JS(
    function make() {
      function helper(n) { return n <= 1 ? 1 : n * helper(n - 1); }
      return helper;
    }
    var f = make();
    result = f(5);
  )JS"),
                   120.0);
}

TEST(TreeWalkerClosures, ClosureStoredInObjectSurvives) {
  EXPECT_EQ(eval_str(R"JS(
    var holder = {};
    (function () {
      function tag(s) { return "[" + s + "]"; }
      holder.tag = tag;
    })();
    result = holder.tag("kept");
  )JS"),
            "[kept]");
}

}  // namespace
}  // namespace nakika::js
